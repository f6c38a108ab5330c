// Assembly of the CGM baseline: a standard Mdbs whose agents run with
// certification disabled (resubmission only), plus the centralized scheduler
// interposed through coordinator hooks — global granule locks before every
// step, commit-graph admission before the PREPARE fan-out, and release on
// completion.
//
// Data partitioning: CGM restricts local transactions to a *locally
// updateable* data set that updating global transactions may not read; the
// workload driver realizes the partition by giving CGM's local clients
// dedicated tables (see workload/driver.cc).

#ifndef HERMES_CGM_CGM_MDBS_H_
#define HERMES_CGM_CGM_MDBS_H_

#include <map>
#include <memory>

#include "cgm/cgm_scheduler.h"
#include "core/mdbs.h"

namespace hermes::cgm {

struct CgmConfig {
  core::MdbsConfig mdbs;
  Granularity granularity = Granularity::kSite;

  // mdbs.Validate(), and the scheduler interposes on unsharded 2PC with
  // SN only: InvalidArgument for num_shards > 0, short_commit,
  // certifier=csn or protocol=paxos-commit. CgmMdbs requires it.
  Status Validate() const;
};

class CgmMdbs {
 public:
  CgmMdbs(const CgmConfig& config, sim::EventLoop* loop);

  CgmMdbs(const CgmMdbs&) = delete;
  CgmMdbs& operator=(const CgmMdbs&) = delete;

  core::Mdbs& mdbs() { return *mdbs_; }
  const CgmScheduler& scheduler() const { return *scheduler_; }

  // Convenience passthroughs.
  TxnId Submit(core::GlobalTxnSpec spec, core::GlobalTxnCallback cb,
               SiteId coordinator_site = kInvalidSite) {
    return mdbs_->Submit(std::move(spec), std::move(cb), coordinator_site);
  }
  TxnId SubmitLocal(core::LocalTxnSpec spec, core::LocalTxnCallback cb) {
    return mdbs_->SubmitLocal(std::move(spec), std::move(cb));
  }

 private:
  void HandleReply(const net::Envelope& env);

  CgmConfig config_;
  sim::EventLoop* loop_;
  std::unique_ptr<core::Mdbs> mdbs_;
  SiteId scheduler_endpoint_ = kInvalidSite;
  SiteId stub_endpoint_ = kInvalidSite;
  std::unique_ptr<CgmScheduler> scheduler_;

  uint64_t next_request_id_ = 1;
  // In-flight lock requests / commit checks awaiting scheduler replies.
  std::map<uint64_t, std::function<void(const Status&)>> pending_locks_;
  std::map<TxnId, std::function<void()>> pending_checks_;
};

}  // namespace hermes::cgm

#endif  // HERMES_CGM_CGM_MDBS_H_
