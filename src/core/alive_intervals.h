// The alive time interval table of the basic prepare certification
// (section 4.2).
//
// A local subtransaction is *alive* when all its DML commands are completely
// executed and it is neither locally committed nor aborted. The Conflict
// Detection Basis: if two local subtransactions were alive at the same time
// and the LTM is rigorous, they cannot conflict, directly or indirectly.
//
// The table stores, for each global subtransaction currently in the
// prepared state at a site, its last known alive interval [begin, end]. The
// certification test for a new subtransaction is that its own alive
// interval has a non-empty intersection with EVERY stored interval.
//
// This table sits on the certifier's hot path (every PREPARE and every
// commit attempt consult it), so it is hashed rather than ordered, and the
// commit-certification test (is `gtid` the smallest stored serial number?)
// runs off a cached minimum-SN entry instead of a scan: the cache improves
// in O(1) on Insert and is recomputed lazily only after the minimum itself
// was removed or overwritten, which makes the test O(1) amortized.
// Diagnostic accessors (Snapshot, NonIntersecting, SmallerSerialNumbers,
// ToString) sort their output by TxnId so traces stay deterministic and
// independent of hash iteration order.

#ifndef HERMES_CORE_ALIVE_INTERVALS_H_
#define HERMES_CORE_ALIVE_INTERVALS_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "core/serial_number.h"
#include "sim/event_loop.h"

namespace hermes::core {

struct AliveInterval {
  sim::Time begin = 0;
  sim::Time end = 0;

  bool Intersects(const AliveInterval& other) const {
    return begin <= other.end && other.begin <= end;
  }
};

class AliveIntervalTable {
 public:
  struct Entry {
    TxnId gtid;
    AliveInterval interval;
    SerialNumber sn;
  };

  // True if `candidate` intersects every stored interval (the basic prepare
  // certification test).
  bool CertifiableAgainstAll(const AliveInterval& candidate) const;

  // Transactions whose stored interval does NOT intersect `candidate` — the
  // conflicting-transaction context of a basic-certification REFUSE
  // (diagnostics/tracing; empty iff CertifiableAgainstAll). Sorted by TxnId.
  std::vector<TxnId> NonIntersecting(const AliveInterval& candidate) const;

  // Prepared transactions other than `gtid` with a smaller serial number —
  // the ones a commit-certification retry is waiting on. Sorted by TxnId.
  std::vector<TxnId> SmallerSerialNumbers(const TxnId& gtid) const;

  void Insert(const TxnId& gtid, const AliveInterval& interval,
              const SerialNumber& sn);
  void Remove(const TxnId& gtid);
  bool Contains(const TxnId& gtid) const { return entries_.count(gtid) != 0; }

  // Extends the stored interval's end: to now before a prepare certifies
  // (the subtransaction is alive), or to the instant of its unilateral abort.
  void ExtendEnd(const TxnId& gtid, sim::Time end);
  // Overwrites the stored serial number (CSN certifier: a prepared entry
  // parked with an invalid SN is stamped with its decision-time CSN).
  void SetSerialNumber(const TxnId& gtid, const SerialNumber& sn);
  // Restarts the interval after a completed resubmission.
  void Restart(const TxnId& gtid, sim::Time at);

  const Entry* Find(const TxnId& gtid) const;

  // Commit certification test (Appendix C): every *other* prepared
  // subtransaction must have a bigger serial number. O(1) amortized via the
  // cached minimum.
  bool SmallestSerialNumber(const TxnId& gtid) const;

  // Transaction holding the smallest stored serial number (invalid TxnId
  // when the table is empty): the head of the commit order, which the
  // agent commits when its blocker leaves (cert::Certifier::CommitHead).
  TxnId MinSnTxn() const;

  size_t size() const { return entries_.size(); }
  // Sorted by TxnId (deterministic regardless of hash order).
  std::vector<Entry> Snapshot() const;

  // Read-only view of the underlying hashed entries, for allocation-free
  // iteration on the prepare path. Iteration order is unspecified — callers
  // must not let it influence observable behavior.
  const std::unordered_map<TxnId, Entry>& entries() const { return entries_; }

  std::string ToString() const;

 private:
  void RecomputeMin() const;

  std::unordered_map<TxnId, Entry> entries_;
  // Cached gtid of the minimum-SN entry. Invalid when the table is empty;
  // `min_dirty_` marks it stale (the previous minimum was removed or its SN
  // overwritten) and triggers one O(n) recomputation on the next query.
  mutable TxnId min_sn_gtid_;
  mutable bool min_dirty_ = false;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_ALIVE_INTERVALS_H_
