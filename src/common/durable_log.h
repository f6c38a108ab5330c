// Stable storage of one protocol role: the one log discipline behind the
// Agent, Coordinator, Paxos acceptor and CSN logs.
//
// Every role force-writes some records before a message leaves the site
// (the prepare record before READY, the decision before the first COMMIT,
// an acceptor's promise or vote before its reply, the XID → CSN record
// before the commit acknowledgement) and appends the rest buffered. In the
// simulation "stable storage" is an in-memory structure that survives a
// site crash; the force-write flag and count model the discipline so it is
// visible and testable, and they are the terms of Gray & Lamport's cost
// table for 2PC against Paxos Commit.
//
// A Record carries `gtid`, `lsn` and `forced` members; the log assigns the
// last two. The per-transaction lookups also read a `kind` member. Records
// without a transaction (the coordinator's epoch records) are filed under
// the invalid TxnId{}.

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

  const std::vector<Record>& records() const { return records_; }
  int64_t forced_writes() const { return forced_writes_; }
  size_t size() const { return records_.size(); }

  // True if any record exists for `gtid`: the role has seen the
  // transaction, even if a crash lost all volatile state about it.
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

  // Calls fn(gtid) once for every transaction with a record; unordered.
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

 private:
  static constexpr uint32_t kEnd = std::numeric_limits<uint32_t>::max();

  // One transaction's records as a list threaded through next_: no
  // per-transaction allocation beyond the hash node.
  struct Chain {
    uint32_t first;
    uint32_t last;
  };

  int64_t Add(Record record, bool forced) {
    const auto pos = static_cast<uint32_t>(records_.size());
    assert(pos != kEnd);
    record.lsn = pos;
    record.forced = forced;
    if (forced) ++forced_writes_;
    auto [it, inserted] = chains_.try_emplace(record.gtid, Chain{pos, pos});
    if (!inserted) {
      next_[it->second.last] = pos;
      it->second.last = pos;
    }
    next_.push_back(kEnd);
    records_.push_back(std::move(record));
    return pos;
  }

  std::vector<Record> records_;
  std::vector<uint32_t> next_;  // next_[pos]: the same gtid's next record
  std::unordered_map<TxnId, Chain> chains_;
  int64_t forced_writes_ = 0;
};

}  // namespace hermes

#endif  // HERMES_COMMON_DURABLE_LOG_H_
