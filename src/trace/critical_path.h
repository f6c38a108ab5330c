// Attributes each global transaction's end-to-end virtual latency to 2PC
// phases, from the span forest.
//
// The coordinator timeline of a committed transaction is cut at the phase
// boundaries the spans expose (last DML reply, PREPARE fan-out, last vote,
// decision fan-out) and every microsecond between submission and the
// client report (txn_end) is assigned to exactly one bucket:
//
//   dml       executing DML steps at the participants
//   prepare   PREPARE -> vote round-trips (minus the certification work)
//   certify   agent-side certification (longest participant verdict)
//   consensus Paxos Commit acceptor round (votes in -> outcome chosen);
//             always 0 under 2PC
//   blocked   votes all in but no decision out yet (coordinator crash /
//             decision-log force-write window); under Paxos Commit the
//             part of that window after the outcome was chosen
//   decision  decision fan-out -> client report: 0 where the report
//             comes at the decision (2PC, Paxos Commit); the ACK round
//             after it is cleanup outside the latency
//   retx_wait tail of a phase spent waiting for a retransmitted message
//   other     submission bookkeeping and inter-phase gaps
//
// The buckets partition the latency exactly: their sum equals the
// transaction's end-to-end virtual time (asserted in tests). Prepared
// blocking windows at the *agents* (READY -> local commit/abort) are
// reported separately, since they overlap the coordinator's decision phase
// rather than extend it.

#ifndef HERMES_TRACE_CRITICAL_PATH_H_
#define HERMES_TRACE_CRITICAL_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/histogram.h"
#include "trace/span.h"

namespace hermes::trace {

// Virtual microseconds per phase; the fields sum to `total`.
struct PhaseBreakdown {
  int64_t dml = 0;
  int64_t prepare = 0;
  int64_t certify = 0;
  int64_t consensus = 0;
  int64_t decision = 0;
  int64_t blocked = 0;
  int64_t retx_wait = 0;
  int64_t other = 0;
  int64_t total = 0;

  int64_t Sum() const {
    return dml + prepare + certify + consensus + decision + blocked +
           retx_wait + other;
  }
  void Add(const PhaseBreakdown& o);

  friend bool operator==(const PhaseBreakdown& a,
                         const PhaseBreakdown& b) = default;
};

struct TxnCriticalPath {
  TxnId txn;
  bool committed = false;
  PhaseBreakdown phases;
  // Participant whose PREPARE -> vote round-trip finished last (the vote
  // the coordinator actually waited for); kInvalidSite without votes.
  SiteId critical_prepare_site = kInvalidSite;

  std::string ToString() const;
};

// Prepared blocking windows (READY -> local commit/rollback) across all
// agents, the paper's chief blocking cost.
struct BlockingWindowStats {
  int64_t windows = 0;       // closed windows observed
  int64_t open_windows = 0;  // still open at trace end (crash orphans)
  int64_t total_us = 0;
  int64_t max_us = 0;
  int64_t inquiries = 0;  // INQUIRY probes sent from inside a window
  Histogram hist;

  int64_t MeanUs() const { return windows > 0 ? total_us / windows : 0; }
  std::string ToString() const;
};

struct CriticalPathReport {
  // Finished transactions in trace order (committed and aborted).
  std::vector<TxnCriticalPath> txns;
  // Sum of phase breakdowns over committed transactions only.
  PhaseBreakdown committed_total;
  int64_t committed_txns = 0;
  int64_t aborted_txns = 0;
  int64_t unfinished_txns = 0;
  BlockingWindowStats blocking;

  const TxnCriticalPath* Find(const TxnId& txn) const;
  // Phase table (totals, means, shares) plus the blocking-window summary.
  std::string ToString() const;
};

CriticalPathReport AnalyzeCriticalPath(const SpanForest& forest);

}  // namespace hermes::trace

#endif  // HERMES_TRACE_CRITICAL_PATH_H_
