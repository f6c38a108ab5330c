// Compact binary encoding of trace::Event — the on-disk `.bin` trace
// artifact that the Tracer's ring buffer exports.
//
// Every event becomes one fixed-width little-endian record
// (kBinaryRecordSize bytes); the two variable-length fields (`detail` and
// the `related` transaction list) are interned in a small string
// dictionary and referenced by id, netdata-style — no JSON string work
// anywhere. The ring holds its records varint-packed under the same
// dictionary ids (trace/ring.h) and writes this layout only when it
// exports them, renumbering the ids (TraceRing::Serialize);
// BinaryTraceWriter encodes events from scratch for the multi-run merge.
// The serialized file layout is
//
//   offset  size  field
//   0       4     magic "HTRB"
//   4       1     version (kBinaryTraceVersion)
//   5       3     reserved (zero)
//   8       8     u64 dictionary entry count D
//   16      8     u64 record count R
//   24      8     u64 ring-overflow dropped count
//   32      8     u64 sampled-out count
//   40      ...   D dictionary entries: u32 length + raw bytes (ids 1..D;
//                 id 0 is the empty string and is never serialized)
//   ...     80*R  R records (layout in EncodeBinaryRecord)
//
// Fixed-width records make truncation detection trivial: a file that ends
// mid-record yields exactly the whole records before the cut, with the
// header's declared count spelling out how many were lost. Encoding is
// deterministic (dictionary ids follow first use in record order), so the
// binary export of a seeded run is byte-identical across replays, which
// makes it fit for golden files and cross-run diffs.

#ifndef HERMES_TRACE_BINARY_H_
#define HERMES_TRACE_BINARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace hermes::trace {

inline constexpr char kBinaryTraceMagic[4] = {'H', 'T', 'R', 'B'};
inline constexpr uint8_t kBinaryTraceVersion = 1;
inline constexpr size_t kBinaryHeaderSize = 40;
inline constexpr size_t kBinaryRecordSize = 80;

// Interns strings into dense ids. Id 0 is always the empty string;
// non-empty strings get ids 1.. in first-appearance order, which makes the
// dictionary — and everything serialized from it — deterministic.
class StringInterner {
 public:
  StringInterner() = default;

  // Looks `s` up without copying it; only a new string is stored.
  uint32_t Intern(std::string_view s);

  // Entries with id >= 1, in id order (the empty id-0 entry is implicit).
  const std::vector<std::string>& entries() const { return entries_; }

  void Clear();

 private:
  // Hashes std::string keys and std::string_view probes alike, so a
  // lookup builds no temporary key.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> entries_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> ids_;
};

// `related` travels through the dictionary as one comma-joined string of
// EncodeTxnId values ("G0.1,L2.5"); empty lists map to the empty string.
// AppendRelated appends that text to `out`, so a caller can reuse one
// buffer across events.
void AppendRelated(const std::vector<TxnId>& related, std::string& out);
std::string EncodeRelated(const std::vector<TxnId>& related);
Result<std::vector<TxnId>> DecodeRelated(const std::string& text);

// Encodes `e` into exactly kBinaryRecordSize bytes at `out`. The caller
// supplies the dictionary ids for e.detail and EncodeRelated(e.related).
void EncodeBinaryRecord(const Event& e, uint32_t detail_id,
                        uint32_t related_id, uint8_t* out);

// Decodes one record. `dict` is indexed by id with dict[0] == "". Fails on
// an out-of-range kind/refuse byte or dictionary id (a corrupt record).
Status DecodeBinaryRecord(const uint8_t* in,
                          const std::vector<std::string>& dict, Event& out);

// The file layout above, shared by both serializers: the header, and one
// dictionary entry (u32 length + bytes, BinaryDictionaryEntrySize(s)
// bytes). Each writes at `out` and returns the byte after what it wrote.
uint8_t* WriteBinaryHeader(uint64_t dictionary_entries, uint64_t records,
                           int64_t dropped, int64_t sampled_out,
                           uint8_t* out);
inline size_t BinaryDictionaryEntrySize(std::string_view s) {
  return 4 + s.size();
}
uint8_t* WriteBinaryDictionaryEntry(std::string_view s, uint8_t* out);

// Accumulates events into a serialized binary trace: interning, encoding
// and the header bookkeeping in one place. Used by the multi-run trace
// merger; the ring exports its own records (TraceRing::Serialize).
class BinaryTraceWriter {
 public:
  void Add(const Event& e);
  void AddDropped(int64_t n) { dropped_ += n; }
  void AddSampledOut(int64_t n) { sampled_out_ += n; }

  // Header + dictionary + records.
  std::string Finish() const;

 private:
  StringInterner interner_;
  std::string records_;
  int64_t count_ = 0;
  int64_t dropped_ = 0;
  int64_t sampled_out_ = 0;
};

// Lenient parse for traces of unknown provenance (analysis tools): a
// truncated tail yields the whole records before the cut, undecodable
// records are skipped and counted: unless the file is truncated,
// events.size() + skipped_records is records_declared.
struct BinaryParse {
  static constexpr size_t kMaxWarnings = 10;

  std::vector<Event> events;
  int64_t records_declared = 0;  // from the header (0 if unreadable)
  int64_t skipped_records = 0;   // undecodable records
  int64_t trailing_bytes = 0;    // bytes after the last declared record
  int64_t dropped = 0;           // header: ring-overflow drops at capture
  int64_t sampled_out = 0;       // header: sampler drops at capture
  bool truncated = false;        // file ended before the declared payload
  std::vector<std::string> warnings;  // at most kMaxWarnings entries

  // True when any declared record was lost or the file holds more.
  bool damaged() const {
    return truncated || skipped_records > 0 || trailing_bytes > 0;
  }
};
BinaryParse ParseBinaryLenient(std::string_view data);

// Strict parse: any truncation, trailing garbage or undecodable record
// fails the whole parse (round-trip: ParseBinary(t.ToBinary()) yields
// exactly the stored events).
Result<std::vector<Event>> ParseBinary(std::string_view data);

// Streaming decode: invokes `fn` for each whole record without
// materializing the event vector. Returns the same accounting as
// ParseBinaryLenient (with `events` left empty).
BinaryParse ForEachBinaryEvent(std::string_view data,
                               const std::function<void(const Event&)>& fn);

}  // namespace hermes::trace

#endif  // HERMES_TRACE_BINARY_H_
