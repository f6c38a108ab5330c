#include "common/json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hermes::json {

void AppendString(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  int len = 0;
  for (int precision = 15; precision <= 17; ++precision) {
    len = std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    double back = 0;
    std::from_chars(buf, buf + len, back);
    if (back == v) break;
  }
  out.append(buf, static_cast<size_t>(len));
}

bool Reader::Expect(char c) {
  if (TryExpect(c)) return true;
  return Fail(StrCat("expected '", c, "'"));
}

bool Reader::TryExpect(char c) {
  SkipSpace();
  if (pos_ < in_.size() && in_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool Reader::String(std::string& out) {
  if (!Expect('"')) return false;
  out.clear();
  while (pos_ < in_.size()) {
    const char c = in_[pos_++];
    if (c == '"') return true;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= in_.size()) return Fail("dangling escape");
    switch (in_[pos_++]) {
      case '"':
        out += '"';
        break;
      case '\\':
        out += '\\';
        break;
      case '/':
        out += '/';
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u': {
        unsigned code = 0;
        const char* hex = in_.data() + pos_;
        const char* end = in_.data() + std::min(pos_ + 4, in_.size());
        const auto [ptr, ec] = std::from_chars(hex, end, code, 16);
        if (ec != std::errc() || ptr != hex + 4) {
          return Fail("bad \\u escape");
        }
        if (code > 0x7f) return Fail("non-ASCII \\u escape unsupported");
        pos_ += 4;
        out += static_cast<char>(code);
        break;
      }
      default:
        return Fail("unknown escape");
    }
  }
  return Fail("unterminated string");
}

std::string_view Reader::IntToken() {
  SkipSpace();
  const size_t start = pos_;
  if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
  while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') ++pos_;
  return in_.substr(start, pos_ - start);
}

bool Reader::BadInt(std::string_view token) {
  pos_ -= token.size();
  const bool digits = token.find_first_of("0123456789") != token.npos;
  return Fail(digits ? "integer out of range" : "expected integer");
}

bool Reader::End() {
  SkipSpace();
  return pos_ == in_.size() || Fail("trailing characters");
}

bool Reader::Fail(std::string_view message) {
  if (error_.empty()) {
    error_ = StrCat(what_, " at offset ", pos_, ": ", message);
  }
  return false;
}

Status Reader::Done(bool ok) const {
  if (ok) return Status::Ok();
  return Status::InvalidArgument(
      error_.empty() ? StrCat(what_, " at offset ", pos_, ": parse error")
                     : error_);
}

void Reader::SkipSpace() {
  while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\t' ||
                               in_[pos_] == '\n' || in_[pos_] == '\r')) {
    ++pos_;
  }
}

bool Object(Reader& in, std::initializer_list<std::string_view> required,
            const std::function<bool(const std::string& key)>& field,
            std::vector<std::string>* seen) {
  std::vector<std::string> keys;
  keys.reserve(16);  // a fault-plan line has at most 9 keys
  if (!in.Expect('{')) return false;
  if (!in.TryExpect('}')) {
    do {
      std::string key;
      if (!in.String(key) || !in.Expect(':')) return false;
      if (std::find(keys.begin(), keys.end(), key) != keys.end()) {
        return in.Fail(StrCat("repeated key: ", key));
      }
      if (!field(key)) return false;
      keys.push_back(std::move(key));
    } while (in.TryExpect(','));
    if (!in.Expect('}')) return false;
  }
  if (!Require(in, keys, required)) return false;
  if (seen != nullptr) *seen = std::move(keys);
  return true;
}

bool Require(Reader& in, const std::vector<std::string>& seen,
             std::initializer_list<std::string_view> required) {
  for (const std::string_view key : required) {
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
      return in.Fail(StrCat("missing key: ", key));
    }
  }
  return true;
}

void ForEachLine(std::string_view text,
                 const std::function<bool(size_t, std::string_view)>& fn) {
  size_t start = 0;
  size_t line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    ++line_no;
    start = end + 1;
    if (!line.empty() && !fn(line_no, line)) return;
  }
}

}  // namespace hermes::json
