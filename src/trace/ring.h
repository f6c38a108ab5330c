// Bounded ring buffer of binary trace records — the one store behind
// trace::Tracer.
//
// Appending encodes the event into one fixed-width record (trace/binary.h)
// in a circular byte buffer: no per-event heap allocation once the
// dictionary has seen the event's strings and the buffer has room, which
// keeps always-on tracing cheap enough for million-transaction runs. The
// buffer starts empty and grows one fixed-size block at a time as records
// arrive, never past `capacity` records, so a short run pays only for
// what it records and a grown block is never copied. Once full, the
// oldest record is overwritten and counted: memory is bounded by
// construction and the trace degrades to a sliding window over the tail
// of the run — with the drop count carried in the serialized header so no
// truncation is ever silent. The string dictionary is bounded too:
// details (Status messages) and related lists are mostly unique, so after
// every `capacity` overwrites the ring re-interns only the strings the
// held records reference and rewrites their ids. That costs amortized
// O(1) per append, never runs before the first wrap, and holds the
// dictionary to at most 4 x capacity entries.
//
// Records are stored in the export layout, so Serialize copies them into
// one output buffer of the exact size and rewrites only their dictionary
// ids: an export decodes nothing and interns nothing, and its peak memory
// is the capture itself.

#ifndef HERMES_TRACE_RING_H_
#define HERMES_TRACE_RING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/binary.h"

namespace hermes::trace {

class TraceRing {
 public:
  // Records per block; the last block is cut short at the capacity.
  static constexpr size_t kBlockRecords = 4096;

  // `capacity` is in records; at least 1. Nothing is allocated until the
  // first Append.
  explicit TraceRing(size_t capacity);

  // Encodes and appends `e`, growing the buffer while it is below
  // capacity and evicting (and counting) the oldest record once full.
  void Append(const Event& e);

  // Records currently held (<= capacity).
  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }
  // Records the allocated blocks have room for (<= capacity).
  size_t allocated() const { return allocated_; }
  // Records evicted by overflow since construction/Clear.
  int64_t dropped() const { return dropped_; }
  // Strings in the dictionary (<= 4 x capacity).
  size_t dictionary_size() const { return interner_.entries().size(); }

  // Visits the held records oldest -> newest, decoded back into Events.
  void ForEach(const std::function<void(const Event&)>& fn) const;

  // Serializes to the binary trace format (header carries dropped() and
  // the caller's sampler drop count). The bytes equal those of a
  // BinaryTraceWriter fed every held record through ForEach.
  std::string Serialize(int64_t sampled_out) const;

  // Forgets every record and dictionary entry; the blocks stay
  // allocated.
  void Clear();

 private:
  // The dictionary ids the held records reference, renumbered 1.. in
  // first use (oldest record first, its detail before its related list):
  // remap[id] is the new id of `id` (0, the empty string, stays 0), and
  // used[k] is the id that becomes k + 1.
  struct Renumbering {
    std::vector<uint32_t> remap;
    std::vector<uint32_t> used;
  };

  // Start of physical slot `slot` (< allocated_).
  uint8_t* Slot(size_t slot) const;
  Renumbering RenumberDictionary() const;
  // Re-interns the strings the held records reference, dropping the rest.
  void RebuildDictionary();

  size_t capacity_;
  std::vector<std::unique_ptr<uint8_t[]>> blocks_;
  size_t allocated_ = 0;  // slots in blocks_
  size_t head_ = 0;       // physical slot of the oldest record
  size_t count_ = 0;
  int64_t dropped_ = 0;
  StringInterner interner_;
  std::string related_;  // Append's reusable EncodeRelated buffer
};

}  // namespace hermes::trace

#endif  // HERMES_TRACE_RING_H_
