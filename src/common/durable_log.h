// Stable storage of one protocol role: the one log discipline behind the
// Agent, Coordinator and Paxos acceptor logs.
//
// Every role force-writes the records its recovery reads before they take
// effect (the prepare record before READY, the commit record before the
// local commit, the decision before the first COMMIT, an acceptor's
// promise or vote before its reply) and appends the rest buffered. In the
// simulation "stable storage" is an in-memory structure that survives a
// site crash; the force-write flag and count model the discipline so it is
// visible and testable, and they are the terms of Gray & Lamport's cost
// table for 2PC against Paxos Commit.
//
// A Record carries `gtid`, `lsn` and `forced` members; the log assigns the
// last two. The per-transaction lookups also read a `kind` member. Records
// without a transaction (the coordinator's epoch records) are filed under
// the invalid TxnId{}.
//
// Retirement. A role that no longer needs a finished transaction's records
// retires the transaction: Retire(gtid) drops its records and its index
// node, so the log holds O(in-flight) records however long the run. LSNs
// come from a counter, so they stay unique and monotone across
// retirements. Retired slots are reclaimed in amortised O(1): once they
// outnumber the live records, the live ones move down in log order.
//
// Pointer validity. A `const Record*` from First/Last, and a record passed
// to a ForEachOf/ForEachRecord callback, stay valid until the next Append,
// ForceAppend or Retire: an append may reallocate the storage and a Retire
// may compact it.

#ifndef HERMES_COMMON_DURABLE_LOG_H_
#define HERMES_COMMON_DURABLE_LOG_H_

#include <cassert>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"

namespace hermes {

template <typename Record>
class DurableLog {
 public:
  // Buffered and forced writes; both return the record's LSN.
  int64_t Append(Record record) { return Add(std::move(record), false); }
  int64_t ForceAppend(Record record) { return Add(std::move(record), true); }

  int64_t forced_writes() const { return forced_writes_; }
  // Live records: appended and not retired.
  size_t size() const { return records_.size() - retired_; }

  // Calls fn(record) for every live record, in log order.
  template <typename Fn>
  void ForEachRecord(Fn&& fn) const {
    for (size_t pos = 0; pos < records_.size(); ++pos) {
      if (next_[pos] != kRetired) fn(records_[pos]);
    }
  }

  // True if a live record exists for `gtid`.
  bool Knows(const TxnId& gtid) const { return chains_.count(gtid) != 0; }

  // Calls fn(record) for every record of `gtid`, in log order.
  template <typename Fn>
  void ForEachOf(const TxnId& gtid, Fn&& fn) const {
    auto it = chains_.find(gtid);
    if (it == chains_.end()) return;
    for (uint32_t pos = it->second.first; pos != kEnd; pos = next_[pos]) {
      fn(records_[pos]);
    }
  }

  // Calls fn(gtid) once for every transaction with a live record;
  // unordered. `fn` must not append or retire.
  template <typename Fn>
  void ForEachTxn(Fn&& fn) const {
    for (const auto& [gtid, chain] : chains_) fn(gtid);
  }

  // First and last record of `kind` for `gtid` (nullptr if none), and how
  // many there are.
  template <typename Kind>
  const Record* First(const TxnId& gtid, Kind kind) const {
    auto it = chains_.find(gtid);
    if (it == chains_.end()) return nullptr;
    for (uint32_t pos = it->second.first; pos != kEnd; pos = next_[pos]) {
      if (records_[pos].kind == kind) return &records_[pos];
    }
    return nullptr;
  }
  template <typename Kind>
  const Record* Last(const TxnId& gtid, Kind kind) const {
    const Record* found = nullptr;
    ForEachOf(gtid, [&](const Record& r) {
      if (r.kind == kind) found = &r;
    });
    return found;
  }
  template <typename Kind>
  int Count(const TxnId& gtid, Kind kind) const {
    int n = 0;
    ForEachOf(gtid, [&](const Record& r) { n += r.kind == kind; });
    return n;
  }
  template <typename Kind>
  bool Has(const TxnId& gtid, Kind kind) const {
    return First(gtid, kind) != nullptr;
  }

  // Drops every record of `gtid` and its index node (a no-op for a gtid
  // without live records). The records' payloads are freed at once.
  void Retire(const TxnId& gtid) {
    auto it = chains_.find(gtid);
    if (it == chains_.end()) return;
    for (uint32_t pos = it->second.first; pos != kEnd;) {
      const uint32_t next = next_[pos];
      records_[pos] = Record{};
      next_[pos] = kRetired;
      ++retired_;
      pos = next;
    }
    chains_.erase(it);
    if (retired_ > size()) Compact();
  }

 private:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();
  // next_ value of a retired slot.
  static constexpr uint32_t kRetired = kEnd - 1;

  // One transaction's records as a list threaded through next_: no
  // per-transaction allocation beyond the hash node.
  struct Chain {
    uint32_t first;
    uint32_t last;
  };

  int64_t Add(Record record, bool forced) {
    const auto pos = static_cast<uint32_t>(records_.size());
    assert(pos < kRetired);
    record.lsn = next_lsn_++;
    record.forced = forced;
    if (forced) ++forced_writes_;
    auto [it, inserted] = chains_.try_emplace(record.gtid, Chain{pos, pos});
    if (!inserted) {
      next_[it->second.last] = pos;
      it->second.last = pos;
    }
    next_.push_back(kEnd);
    const int64_t lsn = record.lsn;
    records_.push_back(std::move(record));
    return lsn;
  }

  // Moves the live records down over the retired slots, keeping log order,
  // and renumbers the chains. The vectors keep their capacity.
  void Compact() {
    std::vector<uint32_t> remap(records_.size(), kEnd);  // old → new
    uint32_t live = 0;
    for (uint32_t pos = 0; pos < records_.size(); ++pos) {
      if (next_[pos] != kRetired) remap[pos] = live++;
    }
    for (uint32_t pos = 0; pos < records_.size(); ++pos) {
      const uint32_t to = remap[pos];
      if (to == kEnd) continue;
      next_[to] = next_[pos] == kEnd ? kEnd : remap[next_[pos]];
      if (to != pos) records_[to] = std::move(records_[pos]);
    }
    records_.resize(live);
    next_.resize(live);
    for (auto& [gtid, chain] : chains_) {
      chain.first = remap[chain.first];
      chain.last = remap[chain.last];
    }
    retired_ = 0;
  }

  std::vector<Record> records_;  // live records and retired slots
  std::vector<uint32_t> next_;   // next_[pos]: the gtid's next record
  std::unordered_map<TxnId, Chain> chains_;
  int64_t next_lsn_ = 0;
  size_t retired_ = 0;
  int64_t forced_writes_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_DURABLE_LOG_H_
