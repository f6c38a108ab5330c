// The centralized scheduler node of the CGM baseline.
//
// CGM's DTM runs a central component that (a) grants global S2PL locks on
// coarse granules before a global subtransaction's commands execute, and
// (b) admits transactions into commit processing only if their edges keep
// the commit graph loop-free; a transaction whose edges would close a loop
// waits until a finished transaction's edges leave. The scheduler is a
// separate network node, so every interaction costs real message latency —
// the price of centralization the reproduced paper's decentralized design
// avoids (benchmarked by the E6 scaling sweep).

#ifndef HERMES_CGM_CGM_SCHEDULER_H_
#define HERMES_CGM_CGM_SCHEDULER_H_

#include <variant>
#include <vector>

#include "cgm/commit_graph.h"
#include "cgm/global_locks.h"
#include "core/metrics.h"
#include "net/network.h"
#include "trace/trace.h"

namespace hermes::cgm {

struct LockRequestMsg {
  TxnId gtid;
  uint64_t request_id = 0;
  std::vector<Granule> granules;
};

struct LockReplyMsg {
  TxnId gtid;
  uint64_t request_id = 0;
  Status status;
};

struct CommitCheckMsg {
  TxnId gtid;
  std::vector<SiteId> sites;
};

// Admission into commit processing; the scheduler answers only once the
// transaction is admitted.
struct CommitCheckReplyMsg {
  TxnId gtid;
};

// Transaction left commit processing (committed or aborted): release its
// global locks and commit-graph edges.
struct FinishedMsg {
  TxnId gtid;
};

using CgmMessage = std::variant<LockRequestMsg, LockReplyMsg, CommitCheckMsg,
                                CommitCheckReplyMsg, FinishedMsg>;

class CgmScheduler {
 public:
  // `tracer` may be null (tracing disabled).
  CgmScheduler(SiteId endpoint, SiteId client_endpoint, sim::EventLoop* loop,
               net::Network* network, core::Metrics* metrics,
               trace::Tracer* tracer = nullptr);

  CgmScheduler(const CgmScheduler&) = delete;
  CgmScheduler& operator=(const CgmScheduler&) = delete;

  void Handle(const net::Envelope& env);

  const CommitGraph& commit_graph() const { return graph_; }

 private:
  struct Waiter {
    TxnId gtid;
    std::vector<SiteId> sites;
  };

  // Admits `gtid` and replies if its edges close no loop.
  bool TryAdmission(const TxnId& gtid, const std::vector<SiteId>& sites);

  SiteId endpoint_;
  SiteId client_endpoint_;
  net::Network* network_;
  core::Metrics* metrics_;
  trace::Tracer* tracer_;
  GlobalLockManager locks_;
  CommitGraph graph_;
  // Admissions blocked by a loop, in arrival order.
  std::vector<Waiter> waiters_;
};

}  // namespace hermes::cgm

#endif  // HERMES_CGM_CGM_SCHEDULER_H_
