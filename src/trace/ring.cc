#include "trace/ring.h"

#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

namespace hermes::trace {

namespace {

// The flags byte: ok in bit 0, the transaction kind in bits 1-2 and the
// refuse kind from bit 3.
static_assert(std::size(kAllRefuseKinds) <= 32);

uint8_t* PutVarint(uint64_t v, uint8_t* p) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

// Zigzag: small magnitudes of either sign take few bytes.
uint8_t* PutSigned(int64_t v, uint8_t* p) {
  return PutVarint(
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63), p);
}

// v - base and base + d, wrapping, so any pair of int64 values round-trips.
int64_t Delta(int64_t v, int64_t base) {
  return static_cast<int64_t>(static_cast<uint64_t>(v) -
                              static_cast<uint64_t>(base));
}
int64_t Undelta(int64_t d, int64_t base) {
  return static_cast<int64_t>(static_cast<uint64_t>(base) +
                              static_cast<uint64_t>(d));
}

// Reads what the ring wrote, so it checks nothing.
struct Reader {
  const uint8_t* p;

  uint64_t Unsigned() {
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      const uint8_t byte = *p++;
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if (byte < 0x80) return v;
    }
  }
  int64_t Signed() {
    const uint64_t u = Unsigned();
    return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }
};

}  // namespace

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity) {}

void TraceRing::Append(const Event& e) {
  const uint32_t detail_id = interner_.Intern(e.detail);
  related_.clear();
  AppendRelated(e.related, related_);
  const uint32_t related_id = interner_.Intern(related_);
  bool rebuild = false;
  if (count_ == capacity_) {
    --count_;
    if (++evicted_ == blocks_.front().records) {
      blocks_.pop_front();
      evicted_ = 0;
    }
    // After every `capacity` evictions each held record is newer than
    // the last rebuild, which left at most 2 x capacity entries; each
    // append since added at most 2.
    rebuild = ++dropped_ % static_cast<int64_t>(capacity_) == 0;
  }
  Put(e, detail_id, related_id);
  if (rebuild) RebuildDictionary();
}

void TraceRing::Put(const Event& e, uint32_t detail_id, uint32_t related_id) {
  if (blocks_.empty() || kBlockBytes - blocks_.back().size < kMaxRecordBytes) {
    blocks_.push_back({std::make_unique_for_overwrite<uint8_t[]>(kBlockBytes)});
    last_seq_ = 0;
    last_at_ = 0;
  }
  Block& block = blocks_.back();
  uint8_t* p = block.bytes.get() + block.size;
  p = PutSigned(Delta(e.seq, last_seq_), p);
  p = PutSigned(Delta(e.at, last_at_), p);
  *p++ = static_cast<uint8_t>(e.kind);
  *p++ = static_cast<uint8_t>((e.ok ? 1u : 0u) |
                              (static_cast<unsigned>(e.txn.kind) << 1) |
                              (static_cast<unsigned>(e.refuse) << 3));
  p = PutSigned(e.txn.site, p);
  p = PutSigned(e.txn.seq, p);
  p = PutSigned(e.site, p);
  p = PutSigned(e.peer, p);
  p = PutSigned(e.resubmission, p);
  p = PutSigned(e.value, p);
  p = PutSigned(e.sn.clock, p);
  p = PutSigned(e.sn.coordinator, p);
  p = PutSigned(e.sn.seq, p);
  p = PutVarint(detail_id, p);
  p = PutVarint(related_id, p);
  block.size = static_cast<size_t>(p - block.bytes.get());
  ++block.records;
  ++count_;
  last_seq_ = e.seq;
  last_at_ = e.at;
}

template <typename Fn>
void TraceRing::DecodeBlock(const Block& block, size_t skip, Fn&& fn) {
  Reader r{block.bytes.get()};
  Event e;
  int64_t seq = 0;
  int64_t at = 0;
  for (size_t i = 0; i < block.records; ++i) {
    e.seq = seq = Undelta(r.Signed(), seq);
    e.at = at = Undelta(r.Signed(), at);
    e.kind = static_cast<EventKind>(*r.p++);
    const uint8_t flags = *r.p++;
    e.ok = (flags & 1) != 0;
    e.txn.kind = static_cast<TxnId::Kind>((flags >> 1) & 0x3);
    e.refuse = static_cast<RefuseKind>(flags >> 3);
    e.txn.site = static_cast<SiteId>(r.Signed());
    e.txn.seq = r.Signed();
    e.site = static_cast<SiteId>(r.Signed());
    e.peer = static_cast<SiteId>(r.Signed());
    e.resubmission = static_cast<int32_t>(r.Signed());
    e.value = r.Signed();
    e.sn.clock = r.Signed();
    e.sn.coordinator = static_cast<SiteId>(r.Signed());
    e.sn.seq = r.Signed();
    const auto detail_id = static_cast<uint32_t>(r.Unsigned());
    const auto related_id = static_cast<uint32_t>(r.Unsigned());
    if (i >= skip) fn(e, detail_id, related_id);
  }
}

template <typename Fn>
void TraceRing::ForEachRecord(Fn&& fn) const {
  for (size_t b = 0; b < blocks_.size(); ++b) {
    DecodeBlock(blocks_[b], b == 0 ? evicted_ : 0, fn);
  }
}

const std::string& TraceRing::Entry(uint32_t id) const {
  static const std::string kEmpty;
  return id == 0 ? kEmpty : interner_.entries()[id - 1];
}

TraceRing::Renumbering TraceRing::RenumberDictionary() const {
  Renumbering r;
  if (dropped_ == 0) {
    // Nothing was evicted: every entry is referenced by a held record and
    // was interned at its first use, so the ids keep their numbers.
    r.remap.resize(interner_.entries().size() + 1);
    std::iota(r.remap.begin(), r.remap.end(), 0);
    r.used.assign(r.remap.begin() + 1, r.remap.end());
    return r;
  }
  constexpr uint32_t kUnseen = std::numeric_limits<uint32_t>::max();
  r.remap.assign(interner_.entries().size() + 1, kUnseen);
  r.remap[0] = 0;  // the empty string
  const auto visit = [&](uint32_t id) {
    if (r.remap[id] != kUnseen) return;
    r.used.push_back(id);
    r.remap[id] = static_cast<uint32_t>(r.used.size());
  };
  ForEachRecord([&](const Event&, uint32_t detail_id, uint32_t related_id) {
    visit(detail_id);
    visit(related_id);
  });
  return r;
}

void TraceRing::RebuildDictionary() {
  const Renumbering r = RenumberDictionary();
  StringInterner fresh;
  for (uint32_t id : r.used) fresh.Intern(interner_.entries()[id - 1]);
  // Re-encode block by block, freeing each old block once it is copied,
  // so the rebuild holds at most one block more than the ring.
  std::deque<Block> old = std::exchange(blocks_, {});
  size_t skip = std::exchange(evicted_, 0);
  count_ = 0;
  while (!old.empty()) {
    DecodeBlock(old.front(), skip,
                [&](const Event& e, uint32_t detail_id, uint32_t related_id) {
                  Put(e, r.remap[detail_id], r.remap[related_id]);
                });
    skip = 0;
    old.pop_front();
  }
  interner_ = std::move(fresh);
}

void TraceRing::ForEach(const std::function<void(const Event&)>& fn) const {
  // Records the ring wrote always decode: a dictionary rebuild keeps every
  // string a held record references, and related lists are AppendRelated
  // text.
  ForEachRecord([&](Event& e, uint32_t detail_id, uint32_t related_id) {
    e.detail = Entry(detail_id);
    Result<std::vector<TxnId>> related = DecodeRelated(Entry(related_id));
    if (!related.ok()) return;
    e.related = std::move(*related);
    fn(e);
  });
}

std::string TraceRing::Serialize(int64_t sampled_out) const {
  // The export's dictionary holds only the strings the held records
  // reference, numbered in first use — what re-encoding the records
  // through a fresh BinaryTraceWriter would write — so evicted records
  // leak no entries and the bytes depend only on the records. Everything
  // is sized first and written once into the output.
  const Renumbering r = RenumberDictionary();
  size_t dict_bytes = 0;
  for (uint32_t id : r.used) dict_bytes += BinaryDictionaryEntrySize(Entry(id));
  std::string out(kBinaryHeaderSize + dict_bytes + count_ * kBinaryRecordSize,
                  '\0');
  uint8_t* p = WriteBinaryHeader(r.used.size(), count_, dropped_,
                                 sampled_out,
                                 reinterpret_cast<uint8_t*>(out.data()));
  for (uint32_t id : r.used) p = WriteBinaryDictionaryEntry(Entry(id), p);
  ForEachRecord([&](const Event& e, uint32_t detail_id, uint32_t related_id) {
    EncodeBinaryRecord(e, r.remap[detail_id], r.remap[related_id], p);
    p += kBinaryRecordSize;
  });
  return out;
}

void TraceRing::Clear() {
  blocks_.clear();
  evicted_ = 0;
  count_ = 0;
  dropped_ = 0;
  interner_.Clear();
}

}  // namespace hermes::trace
