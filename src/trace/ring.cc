#include "trace/ring.h"

#include <algorithm>
#include <cstring>
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
  related_.clear();
  AppendRelated(e.related, related_);
  const uint32_t related_id = interner_.Intern(related_);
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

TraceRing::Renumbering TraceRing::RenumberDictionary() const {
  constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  Renumbering r;
  r.remap.assign(interner_.entries().size() + 1, kUnseen);
  r.remap[0] = 0;  // the empty string
  const auto visit = [&](uint32_t id) {
    if (r.remap[id] != kUnseen) return;
    r.used.push_back(id);
    r.remap[id] = static_cast<uint32_t>(r.used.size());
  };
  for (size_t i = 0; i < count_; ++i) {
    const auto [detail_id, related_id] =
        RecordStringIds(Slot((head_ + i) % capacity_));
    visit(detail_id);
    visit(related_id);
  }
  return r;
}

void TraceRing::RebuildDictionary() {
  const Renumbering r = RenumberDictionary();
  StringInterner fresh;
  for (uint32_t id : r.used) fresh.Intern(interner_.entries()[id - 1]);
  for (size_t i = 0; i < count_; ++i) {
    uint8_t* record = Slot((head_ + i) % capacity_);
    const auto [detail_id, related_id] = RecordStringIds(record);
    SetRecordStringIds(record, r.remap[detail_id], r.remap[related_id]);
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
  // The export's dictionary holds only the strings the held records
  // reference, numbered in first use — what re-encoding the records
  // through a fresh BinaryTraceWriter would write — so evicted records
  // leak no entries and the bytes depend only on the records. Everything
  // is sized first and written once into the output.
  const Renumbering r = RenumberDictionary();
  const std::vector<std::string>& entries = interner_.entries();
  size_t dict_bytes = 0;
  for (uint32_t id : r.used) {
    dict_bytes += BinaryDictionaryEntrySize(entries[id - 1]);
  }
  std::string out(kBinaryHeaderSize + dict_bytes + count_ * kBinaryRecordSize,
                  '\0');
  uint8_t* p = WriteBinaryHeader(r.used.size(), count_, dropped_,
                                 sampled_out,
                                 reinterpret_cast<uint8_t*>(out.data()));
  for (uint32_t id : r.used) p = WriteBinaryDictionaryEntry(entries[id - 1], p);
  for (size_t i = 0; i < count_; ++i, p += kBinaryRecordSize) {
    std::memcpy(p, Slot((head_ + i) % capacity_), kBinaryRecordSize);
    const auto [detail_id, related_id] = RecordStringIds(p);
    SetRecordStringIds(p, r.remap[detail_id], r.remap[related_id]);
  }
  return out;
}

void TraceRing::Clear() {
  head_ = 0;
  count_ = 0;
  dropped_ = 0;
  interner_.Clear();
}

}  // namespace hermes::trace
