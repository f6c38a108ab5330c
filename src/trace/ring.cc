#include "trace/ring.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace hermes::trace {

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

uint8_t* TraceRing::Slot(size_t slot) const {
  return blocks_[slot / kBlockRecords].get() +
         (slot % kBlockRecords) * kBinaryRecordSize;
}

void TraceRing::Append(const Event& e) {
  const uint32_t detail_id = interner_.Intern(e.detail);
  const uint32_t related_id = interner_.Intern(EncodeRelated(e.related));
  size_t slot;
  bool rebuild = false;
  if (count_ < capacity_) {
    // Until the first wrap head_ is 0 and records fill the slots in
    // order, so the ring grows exactly when the next slot is unallocated.
    slot = count_++;
    if (slot == allocated_) {
      const size_t records = std::min(kBlockRecords, capacity_ - allocated_);
      blocks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
          records * kBinaryRecordSize));
      allocated_ += records;
    }
  } else {
    slot = head_;  // overwrite the oldest record
    head_ = (head_ + 1) % capacity_;
    // After every `capacity` overwrites each held record is newer than
    // the last rebuild, which left at most 2 x capacity entries; each
    // append since added at most 2.
    rebuild = ++dropped_ % static_cast<int64_t>(capacity_) == 0;
  }
  EncodeBinaryRecord(e, detail_id, related_id, Slot(slot));
  if (rebuild) RebuildDictionary();
}

void TraceRing::RebuildDictionary() {
  const std::vector<std::string>& old_entries = interner_.entries();
  constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  StringInterner fresh;
  std::vector<uint32_t> remap(old_entries.size() + 1, kUnseen);
  remap[0] = 0;  // the empty string
  const auto new_id = [&](uint32_t id) {
    if (remap[id] == kUnseen) remap[id] = fresh.Intern(old_entries[id - 1]);
    return remap[id];
  };
  for (size_t i = 0; i < count_; ++i) {
    uint8_t* record = Slot((head_ + i) % capacity_);
    const auto [detail_id, related_id] = RecordStringIds(record);
    SetRecordStringIds(record, new_id(detail_id), new_id(related_id));
  }
  interner_ = std::move(fresh);
}

void TraceRing::ForEach(const std::function<void(const Event&)>& fn) const {
  // Records the ring wrote always decode: a dictionary rebuild keeps every
  // string a held record references, and the encoder writes in-range kind
  // bytes.
  std::vector<std::string> dict;
  dict.reserve(interner_.entries().size() + 1);
  dict.emplace_back();
  for (const std::string& s : interner_.entries()) dict.push_back(s);
  for (size_t i = 0; i < count_; ++i) {
    Event e;
    if (DecodeBinaryRecord(Slot((head_ + i) % capacity_), dict, e).ok()) {
      fn(e);
    }
  }
}

std::string TraceRing::Serialize(int64_t sampled_out) const {
  BinaryTraceWriter writer;
  writer.AddDropped(dropped_);
  writer.AddSampledOut(sampled_out);
  // Re-encode through a fresh writer so the serialized dictionary holds
  // only strings the surviving records reference, in first-use order —
  // evicted records must not leak entries into the export.
  ForEach([&](const Event& e) { writer.Add(e); });
  return writer.Finish();
}

void TraceRing::Clear() {
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  interner_.Clear();
}

}  // namespace hermes::trace
