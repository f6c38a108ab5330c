#include "trace/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/str.h"
#include "trace/ring.h"

namespace hermes::trace {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTxnBegin:
      return "txn_begin";
    case EventKind::kStepStart:
      return "step_start";
    case EventKind::kStepEnd:
      return "step_end";
    case EventKind::kPrepareSend:
      return "prepare_send";
    case EventKind::kVoteRecv:
      return "vote_recv";
    case EventKind::kDecisionSend:
      return "decision_send";
    case EventKind::kAckRecv:
      return "ack_recv";
    case EventKind::kTxnEnd:
      return "txn_end";
    case EventKind::kPrepareRecv:
      return "prepare_recv";
    case EventKind::kCertReady:
      return "cert_ready";
    case EventKind::kCertRefuse:
      return "cert_refuse";
    case EventKind::kResubmitStart:
      return "resubmit_start";
    case EventKind::kResubmitDone:
      return "resubmit_done";
    case EventKind::kCommitRetry:
      return "commit_retry";
    case EventKind::kLocalCommit:
      return "local_commit";
    case EventKind::kLocalAbort:
      return "local_abort";
    case EventKind::kUnilateralAbort:
      return "unilateral_abort";
    case EventKind::kLocalTxnBegin:
      return "local_txn_begin";
    case EventKind::kLocalTxnEnd:
      return "local_txn_end";
    case EventKind::kSiteCrash:
      return "site_crash";
    case EventKind::kSiteRecover:
      return "site_recover";
    case EventKind::kInquirySend:
      return "inquiry_send";
    case EventKind::kInquiryReply:
      return "inquiry_reply";
    case EventKind::kFaultEvent:
      return "fault_event";
    case EventKind::kMsgSend:
      return "msg_send";
    case EventKind::kMsgDrop:
      return "msg_drop";
    case EventKind::kMsgDup:
      return "msg_dup";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kInjectFailure:
      return "inject_failure";
    case EventKind::kCgmLock:
      return "cgm_lock";
    case EventKind::kCgmAdmission:
      return "cgm_admission";
    case EventKind::kPaxosBegin:
      return "paxos_begin";
    case EventKind::kPaxosVote:
      return "paxos_vote";
    case EventKind::kPaxosAccept:
      return "paxos_accept";
    case EventKind::kPaxosDecided:
      return "paxos_decided";
    case EventKind::kPaxosPrepare:
      return "paxos_prepare";
    case EventKind::kPaxosPromise:
      return "paxos_promise";
    case EventKind::kPaxosElect:
      return "paxos_elect";
    case EventKind::kShortCommit:
      return "short_commit";
    case EventKind::kCsnAssign:
      return "csn_assign";
    case EventKind::kReconfigBegin:
      return "reconfig_begin";
    case EventKind::kReconfigHandoff:
      return "reconfig_handoff";
    case EventKind::kReconfigDone:
      return "reconfig_done";
    case EventKind::kEpochRefused:
      return "epoch_refused";
  }
  return "?";
}

const char* RefuseKindName(RefuseKind kind) {
  switch (kind) {
    case RefuseKind::kNone:
      return "none";
    case RefuseKind::kInterval:
      return "interval";
    case RefuseKind::kExtension:
      return "extension";
    case RefuseKind::kDead:
      return "dead";
    case RefuseKind::kUnknownTxn:
      return "unknown_txn";
    case RefuseKind::kSnapshot:
      return "snapshot";
  }
  return "?";
}

void AppendJsonString(std::string& out, std::string_view s) {
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

namespace {

// Parses all of `text` as a decimal T. Fails on empty input, trailing
// characters or a value outside T's range, so a corrupt number is never
// truncated or wrapped into a plausible one.
template <typename T>
bool ParseWhole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string EncodeTxnId(const TxnId& id) {
  if (!id.valid()) return "-";
  return StrCat(id.global() ? "G" : "L", id.site, ".", id.seq);
}

Result<TxnId> DecodeTxnId(const std::string& text) {
  if (text == "-") return TxnId{};
  const std::string_view view(text);
  const size_t dot = view.find('.');
  SiteId site = 0;
  int64_t seq = 0;
  if (view.empty() || (view[0] != 'G' && view[0] != 'L') ||
      dot == std::string_view::npos ||
      !ParseWhole(view.substr(1, dot - 1), site) ||
      !ParseWhole(view.substr(dot + 1), seq)) {
    return Status::InvalidArgument(StrCat("bad txn id: ", text));
  }
  return view[0] == 'G' ? TxnId::MakeGlobal(site, seq)
                        : TxnId::MakeLocal(site, seq);
}

std::string EncodeSerialNumber(const core::SerialNumber& sn) {
  if (!sn.valid()) return "-";
  return StrCat(sn.clock, "/", sn.coordinator, "/", sn.seq);
}

Result<core::SerialNumber> DecodeSerialNumber(const std::string& text) {
  if (text == "-") return core::SerialNumber{};
  const std::string_view view(text);
  const size_t a = view.find('/');
  const size_t b = a == std::string_view::npos ? a : view.find('/', a + 1);
  core::SerialNumber sn;
  if (b == std::string_view::npos || !ParseWhole(view.substr(0, a), sn.clock) ||
      !ParseWhole(view.substr(a + 1, b - a - 1), sn.coordinator) ||
      !ParseWhole(view.substr(b + 1), sn.seq)) {
    return Status::InvalidArgument(StrCat("bad serial number: ", text));
  }
  return sn;
}

std::string Event::ToJson() const {
  std::string out;
  out.reserve(96 + detail.size() + 16 * related.size());
  AppendJson(out);
  return out;
}

void Event::AppendJson(std::string& out) const {
  StrAppend(out, "{\"seq\":", seq, ",\"t\":", at, ",\"kind\":\"",
            EventKindName(kind), "\"");
  if (txn.valid()) {
    out += ",\"txn\":";
    AppendJsonString(out, EncodeTxnId(txn));
  }
  if (site != kInvalidSite) StrAppend(out, ",\"site\":", site);
  if (peer != kInvalidSite) StrAppend(out, ",\"peer\":", peer);
  if (resubmission >= 0) StrAppend(out, ",\"resub\":", resubmission);
  if (value >= 0) StrAppend(out, ",\"value\":", value);
  if (sn.valid()) {
    out += ",\"sn\":";
    AppendJsonString(out, EncodeSerialNumber(sn));
  }
  if (refuse != RefuseKind::kNone) {
    StrAppend(out, ",\"refuse\":\"", RefuseKindName(refuse), "\"");
  }
  StrAppend(out, ",\"ok\":", ok ? "true" : "false");
  if (!detail.empty()) {
    out += ",\"detail\":";
    AppendJsonString(out, detail);
  }
  if (!related.empty()) {
    out += ",\"related\":[";
    for (size_t i = 0; i < related.size(); ++i) {
      if (i > 0) out += ',';
      AppendJsonString(out, EncodeTxnId(related[i]));
    }
    out += ']';
  }
  out += '}';
}

namespace {

// SplitMix64 finisher — a deterministic, platform-independent mixer for
// the sampling decision (std::hash would tie trace content to the
// standard library implementation).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Tracer::Tracer(const sim::EventLoop* loop) : Tracer(TracerOptions{}, loop) {}

Tracer::Tracer(const TracerOptions& options, const sim::EventLoop* loop)
    : loop_(loop),
      options_(options),
      ring_(std::make_unique<TraceRing>(options.ring_capacity)) {}

Tracer::~Tracer() = default;

bool Tracer::KeepsTxn(const TxnId& txn) const {
  if (options_.sample_period <= 1) return true;
  // Only global transactions are sampled: their event population dominates
  // the trace, and whole-gtid keep-or-drop preserves span-tree shape.
  if (!txn.valid() || !txn.global()) return true;
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(txn.site)) << 32) ^
      static_cast<uint64_t>(txn.seq);
  return Mix64(options_.sample_seed ^ Mix64(key)) % options_.sample_period ==
         0;
}

void Tracer::Record(Event e) {
  // seq is the emit index, assigned before the sampling decision, so a
  // sampled trace shows honest seq gaps where transactions were dropped.
  e.seq = stats_.emitted;
  e.at = loop_ != nullptr ? loop_->Now() : -1;
  ++stats_.emitted;
  if (!KeepsTxn(e.txn)) {
    ++stats_.sampled_out;
    return;
  }
  for (EventFold* fold : folds_) fold->Fold(e);
  ring_->Append(e);
  stats_.dropped = ring_->dropped();
}

size_t Tracer::size() const { return ring_->size(); }

void Tracer::Clear() {
  ring_->Clear();
  stats_ = TracerStats{};
}

void Tracer::ForEach(const std::function<void(const Event&)>& fn) const {
  ring_->ForEach(fn);
}

void Tracer::AddFold(EventFold* fold) { folds_.push_back(fold); }

void Tracer::RemoveFold(EventFold* fold) {
  folds_.erase(std::remove(folds_.begin(), folds_.end(), fold), folds_.end());
}

std::string Tracer::ToJsonl() const {
  std::string out;
  ForEach([&](const Event& e) {
    e.AppendJson(out);
    out += '\n';
  });
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Stream in bounded chunks: exporting a million-event trace must not
  // materialize a hundreds-of-MB string first.
  constexpr size_t kChunk = 64 * 1024;
  std::string buf;
  buf.reserve(kChunk + 512);
  bool ok = true;
  ForEach([&](const Event& e) {
    if (!ok) return;
    e.AppendJson(buf);
    buf += '\n';
    if (buf.size() >= kChunk) {
      ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
      buf.clear();
    }
  });
  if (ok && !buf.empty()) {
    ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
  }
  return std::fclose(f) == 0 && ok;
}

std::string Tracer::ToBinary() const {
  return ring_->Serialize(stats_.sampled_out);
}

bool Tracer::WriteBinary(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string blob = ToBinary();
  const size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
  return std::fclose(f) == 0 && written == blob.size();
}

// --- JSONL parsing -----------------------------------------------------------

namespace {

// Minimal scanner for the flat JSON objects Tracer emits: keys mapping to
// integers, booleans, strings, or arrays of strings.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : in_(line) {}

  Status Parse(Event& out) {
    if (!Consume('{')) return Err("expected '{'");
    bool first = true;
    while (true) {
      SkipSpace();
      if (Consume('}')) break;
      if (!first && !Consume(',')) return Err("expected ',' or '}'");
      first = false;
      SkipSpace();
      std::string key;
      Status s = ParseString(key);
      if (!s.ok()) return s;
      SkipSpace();
      if (!Consume(':')) return Err("expected ':'");
      SkipSpace();
      s = ParseValue(key, out);
      if (!s.ok()) return s;
    }
    SkipSpace();
    if (pos_ != in_.size()) return Err("trailing characters");
    return Status::Ok();
  }

 private:
  Status ParseValue(const std::string& key, Event& out) {
    if (key == "seq") return ParseInt(out.seq);
    if (key == "t") return ParseInt(out.at);
    if (key == "site") return ParseInt(out.site);
    if (key == "peer") return ParseInt(out.peer);
    if (key == "resub") return ParseInt(out.resubmission);
    if (key == "value") return ParseInt(out.value);
    if (key == "ok") return ParseBool(out.ok);
    if (key == "kind") {
      std::string name;
      Status s = ParseString(name);
      if (!s.ok()) return s;
      for (EventKind k : kAllEventKinds) {
        if (name == EventKindName(k)) {
          out.kind = k;
          return Status::Ok();
        }
      }
      return Err(StrCat("unknown event kind: ", name));
    }
    if (key == "refuse") {
      std::string name;
      Status s = ParseString(name);
      if (!s.ok()) return s;
      for (RefuseKind k : kAllRefuseKinds) {
        if (name == RefuseKindName(k)) {
          out.refuse = k;
          return Status::Ok();
        }
      }
      return Err(StrCat("unknown refuse kind: ", name));
    }
    if (key == "txn") {
      std::string text;
      Status s = ParseString(text);
      if (!s.ok()) return s;
      Result<TxnId> id = DecodeTxnId(text);
      if (!id.ok()) return id.status();
      out.txn = *id;
      return Status::Ok();
    }
    if (key == "sn") {
      std::string text;
      Status s = ParseString(text);
      if (!s.ok()) return s;
      Result<core::SerialNumber> sn = DecodeSerialNumber(text);
      if (!sn.ok()) return sn.status();
      out.sn = *sn;
      return Status::Ok();
    }
    if (key == "detail") return ParseString(out.detail);
    if (key == "related") {
      if (!Consume('[')) return Err("expected '['");
      SkipSpace();
      if (Consume(']')) return Status::Ok();
      while (true) {
        SkipSpace();
        std::string text;
        Status s = ParseString(text);
        if (!s.ok()) return s;
        Result<TxnId> id = DecodeTxnId(text);
        if (!id.ok()) return id.status();
        out.related.push_back(*id);
        SkipSpace();
        if (Consume(']')) return Status::Ok();
        if (!Consume(',')) return Err("expected ',' or ']'");
      }
    }
    return Err(StrCat("unknown key: ", key));
  }

  Status ParseString(std::string& out) {
    if (!Consume('"')) return Err("expected '\"'");
    out.clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= in_.size()) return Err("dangling escape");
      char esc = in_[pos_++];
      switch (esc) {
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
          if (pos_ + 4 > in_.size()) return Err("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Err("bad \\u escape");
            }
          }
          if (code > 0x7f) return Err("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          return Err("unknown escape");
      }
    }
    return Err("unterminated string");
  }

  // Scans `-?[0-9]+` into `out`; a value outside T's range is an error,
  // never a truncation.
  template <typename T>
  Status ParseInt(T& out) {
    const size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') ++pos_;
    if (pos_ == start) return Err("expected integer");
    if (!ParseWhole(in_.substr(start, pos_ - start), out)) {
      return Err("integer out of range");
    }
    return Status::Ok();
  }

  Status ParseBool(bool& out) {
    if (in_.substr(pos_, 4) == "true") {
      out = true;
      pos_ += 4;
      return Status::Ok();
    }
    if (in_.substr(pos_, 5) == "false") {
      out = false;
      pos_ += 5;
      return Status::Ok();
    }
    return Err("expected boolean");
  }

  void SkipSpace() {
    while (pos_ < in_.size() && (in_[pos_] == ' ' || in_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(std::string msg) const {
    return Status::InvalidArgument(
        StrCat("trace jsonl at offset ", pos_, ": ", msg));
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

LenientParse ParseJsonlLenient(const std::string& text) {
  LenientParse out;
  size_t start = 0;
  size_t line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + start, end - start);
    ++line_no;
    start = end + 1;
    if (line.empty()) continue;
    Event e;
    const Status s = LineParser(line).Parse(e);
    if (!s.ok()) {
      ++out.skipped_lines;
      if (out.warnings.size() < LenientParse::kMaxWarnings) {
        out.warnings.push_back(StrCat("line ", line_no, ": ", s.message()));
      }
      continue;
    }
    out.events.push_back(std::move(e));
  }
  return out;
}

Result<std::vector<Event>> ParseJsonl(const std::string& text) {
  LenientParse parsed = ParseJsonlLenient(text);
  if (parsed.skipped_lines > 0) {
    return Status::InvalidArgument(parsed.warnings.front());
  }
  return std::move(parsed.events);
}

}  // namespace hermes::trace
