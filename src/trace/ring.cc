#include "trace/ring.h"

#include <algorithm>

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
    ++dropped_;
  }
  EncodeBinaryRecord(e, detail_id, related_id, Slot(slot));
}

void TraceRing::ForEach(const std::function<void(const Event&)>& fn) const {
  // Records the ring wrote always decode: the dictionary only grows and
  // the encoder writes in-range kind bytes.
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
