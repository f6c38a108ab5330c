// The repository's JSON text format, read and written in one place.
//
// Every JSON text the repository emits — fault-plan JSONL
// (fault/fault_plan.h), BENCH_*.json artifacts (runner/aggregate.h) and
// the Perfetto export — writes its strings and doubles with the Append*
// writers below. The one that is read back, the fault plan, is parsed
// with a strict Reader. Strict means: a number is a whole token in its
// field's range (never truncated or wrapped), a string escape is one the
// writer emits, a flat object repeats no key and omits no required one,
// and the first error is kept with its byte offset.

#ifndef HERMES_COMMON_JSON_H_
#define HERMES_COMMON_JSON_H_

#include <charconv>
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/str.h"

namespace hermes::json {

// Appends `s` as a double-quoted JSON string, escaping `"`, `\` and
// control characters.
void AppendString(std::string& out, std::string_view s);

// Appends the shortest decimal that parses back to exactly `v` (15 to 17
// significant digits); non-finite values are written as 0.
void AppendDouble(std::string& out, double v);

// Parses all of `text` as a decimal T. Fails on empty input, a character
// that is not part of the number, or a value outside T's range.
template <typename T>
bool ParseInt(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

// A cursor over one JSON text. Every read skips JSON whitespace first and
// returns false on a mismatch, after recording the first error as
// "<what> at offset N: <message>".
class Reader {
 public:
  // `what` names the input in error messages ("fault plan", ...).
  Reader(std::string_view in, std::string_view what) : in_(in), what_(what) {}

  // Reads a string, unescaping \" \\ \/ \n \t \r and ASCII \uXXXX.
  bool String(std::string& out);
  // Reads an integer token `-?[0-9]+` that fits T.
  template <typename T>
  bool Int(T& out) {
    const std::string_view token = IntToken();
    return ParseInt(token, out) || BadInt(token);
  }
  // Succeeds when only whitespace is left.
  bool End();

  // Records `message` at the current offset unless an error is already
  // recorded; returns false.
  bool Fail(std::string_view message);
  // Ok when `ok`, else the first recorded error.
  Status Done(bool ok) const;

 private:
  friend bool Object(Reader& in,
                     std::initializer_list<std::string_view> required,
                     const std::function<bool(const std::string& key)>& field,
                     std::vector<std::string>* seen);

  // Consumes `c`, or fails.
  bool Expect(char c);
  // Consumes `c` if it is next; never fails.
  bool TryExpect(char c);
  void SkipSpace();
  // Skips whitespace and consumes `-?[0-9]*`.
  std::string_view IntToken();
  // Fails at the start of `token`, which ParseInt rejected.
  bool BadInt(std::string_view token);

  std::string_view in_;
  std::string_view what_;
  size_t pos_ = 0;
  std::string error_;
};

// Reads a string naming one value of `all` (by `name_of`) into `out`;
// an unknown name fails with "unknown <what>: <name>".
template <typename Range, typename E>
bool Name(Reader& in, const Range& all, const char* (*name_of)(E), E& out,
          std::string_view what) {
  std::string name;
  if (!in.String(name)) return false;
  for (E e : all) {
    if (name == name_of(e)) {
      out = e;
      return true;
    }
  }
  return in.Fail(StrCat("unknown ", what, ": ", name));
}

// Walks one flat object `{}` or `{"key": value, ...}`. For each pair,
// `field(key)` is called with the reader at the value; it reads the
// value, or fails the reader (an unknown key, a bad value) and returns
// false. A key that appears twice fails the walk, and so does a key of
// `required` that never appears. The keys read are left in `seen`, in
// order, when it is given.
bool Object(Reader& in, std::initializer_list<std::string_view> required,
            const std::function<bool(const std::string& key)>& field,
            std::vector<std::string>* seen = nullptr);

// Fails `in` with "missing key: K" unless every key of `required` is in
// `seen`.
bool Require(Reader& in, const std::vector<std::string>& seen,
             std::initializer_list<std::string_view> required);

// Calls `fn(line_no, line)` for every non-empty '\n'-separated line of
// `text` (line_no is 1-based and counts empty lines), until `fn` returns
// false.
void ForEachLine(std::string_view text,
                 const std::function<bool(size_t, std::string_view)>& fn);

}  // namespace hermes::json

#endif  // HERMES_COMMON_JSON_H_
