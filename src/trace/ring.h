// Bounded ring buffer of trace records — the one store behind
// trace::Tracer.
//
// Appending packs the event into a variable-length record: every field is a
// LEB128 varint (signed ones zigzagged), and `seq` and `at` are stored as
// deltas from the previous record of the same block, so a record takes about
// 16 bytes on chaos_paxos_16site against the export layout's 80
// (trace/binary.h), and at most kMaxRecordBytes. Records fill fixed-size
// byte blocks; each block decodes on its own (its first record's deltas are
// from zero). The ring starts empty and grows one block at a time, never
// holding more than `capacity` records, so a short run pays only for what it
// records and a grown block is never copied. Once full, each append evicts
// and counts the oldest record, and a block is freed when all of its records
// are evicted: memory is bounded by construction and the trace degrades to a
// sliding window over the tail of the run — with the drop count carried in
// the serialized header so no truncation is ever silent. The string
// dictionary is bounded too: details (Status messages) and related lists are
// mostly unique, so after every `capacity` evictions the ring re-interns
// only the strings the held records reference and re-encodes those records
// with their new ids. That costs amortized O(1) per append, never runs
// before the first wrap, and holds the dictionary to at most 4 x capacity
// entries.
//
// Serialize decodes each held record and writes it in the export layout,
// with its dictionary ids renumbered, into one output buffer of the exact
// size: an export interns nothing, and its peak memory is the capture
// itself.

#ifndef HERMES_TRACE_RING_H_
#define HERMES_TRACE_RING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/binary.h"

namespace hermes::trace {

class TraceRing {
 public:
  // Bytes per block.
  static constexpr size_t kBlockBytes = 64 << 10;
  // The largest record: six 64-bit fields at 10 varint bytes, seven 32-bit
  // ones at 5, and two bytes of kinds and flags.
  static constexpr size_t kMaxRecordBytes = 6 * 10 + 7 * 5 + 2;

  // `capacity` is in records; at least 1. Nothing is allocated until the
  // first Append.
  explicit TraceRing(size_t capacity);

  // Encodes and appends `e`, evicting (and counting) the oldest record
  // once the ring holds `capacity` records.
  void Append(const Event& e);

  // Records currently held (<= capacity).
  size_t size() const { return count_; }
  size_t capacity() const { return capacity_; }
  // Bytes of the blocks held.
  size_t allocated() const { return blocks_.size() * kBlockBytes; }
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

  // Forgets every record and dictionary entry and frees the blocks.
  void Clear();

 private:
  struct Block {
    std::unique_ptr<uint8_t[]> bytes;
    size_t size = 0;     // bytes written
    size_t records = 0;  // records written
  };

  // The dictionary ids the held records reference, renumbered 1.. in
  // first use (oldest record first, its detail before its related list):
  // remap[id] is the new id of `id` (0, the empty string, stays 0), and
  // used[k] is the id that becomes k + 1.
  struct Renumbering {
    std::vector<uint32_t> remap;
    std::vector<uint32_t> used;
  };

  // Calls fn(e, detail_id, related_id) for each record of `block` after
  // the first `skip`, in order. Only the numeric fields of `e` are
  // decoded; `e` is reused across calls.
  template <typename Fn>
  static void DecodeBlock(const Block& block, size_t skip, Fn&& fn);
  // DecodeBlock over every held record, oldest first.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const;
  // Packs `e` with the given dictionary ids at the end of the newest
  // block, starting a block when it has less than kMaxRecordBytes left.
  void Put(const Event& e, uint32_t detail_id, uint32_t related_id);
  // The dictionary string of `id` (0 is the empty string).
  const std::string& Entry(uint32_t id) const;
  Renumbering RenumberDictionary() const;
  // Re-interns the strings the held records reference, dropping the rest,
  // and re-encodes the held records with their new ids.
  void RebuildDictionary();

  size_t capacity_;
  std::deque<Block> blocks_;  // oldest first
  size_t evicted_ = 0;        // evicted records at the front of blocks_[0]
  size_t count_ = 0;
  int64_t dropped_ = 0;
  // The last record written to the newest block: the bases of the next
  // record's seq and at deltas.
  int64_t last_seq_ = 0;
  int64_t last_at_ = 0;
  StringInterner interner_;
  std::string related_;  // Append's reusable EncodeRelated buffer
};

}  // namespace hermes::trace

#endif  // HERMES_TRACE_RING_H_
