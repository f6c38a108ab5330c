#include "cgm/cgm_scheduler.h"

namespace hermes::cgm {

namespace {

// Wait bound for one global granule lock.
constexpr sim::Duration kLockTimeout = 1 * sim::kSecond;
// Commit-graph admission is retried (commit processing *waits* for the
// loop to clear, as in the original CGM) until this deadline, after which
// the transaction is rejected.
constexpr sim::Duration kAdmissionRetryInterval = 5 * sim::kMillisecond;
constexpr sim::Duration kAdmissionTimeout = 500 * sim::kMillisecond;

}  // namespace

CgmScheduler::CgmScheduler(SiteId endpoint, SiteId client_endpoint,
                           sim::EventLoop* loop, net::Network* network,
                           core::Metrics* metrics, trace::Tracer* tracer)
    : endpoint_(endpoint),
      client_endpoint_(client_endpoint),
      loop_(loop),
      network_(network),
      metrics_(metrics),
      tracer_(tracer),
      locks_(kLockTimeout, loop) {}

void CgmScheduler::TryAdmission(const TxnId& gtid, std::vector<SiteId> sites,
                                sim::Time deadline) {
  if (graph_.TryAdd(gtid, sites)) {
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kCgmAdmission;
      e.txn = gtid;
      e.site = endpoint_;
      tracer_->Record(std::move(e));
    }
    network_->Send(endpoint_, client_endpoint_,
                   CgmMessage{CommitCheckReplyMsg{gtid, Status::Ok()}});
    return;
  }
  if (loop_->Now() >= deadline) {
    ++metrics_->cgm_graph_rejections;
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kCgmAdmission;
      e.txn = gtid;
      e.site = endpoint_;
      e.ok = false;
      e.detail = "commit graph: admission would create a loop";
      tracer_->Record(std::move(e));
    }
    network_->Send(
        endpoint_, client_endpoint_,
        CgmMessage{CommitCheckReplyMsg{
            gtid,
            Status::Rejected("commit graph: admission would create a loop")}});
    return;
  }
  loop_->ScheduleAfter(kAdmissionRetryInterval,
                       [this, gtid, sites = std::move(sites), deadline]() {
                         TryAdmission(gtid, sites, deadline);
                       });
}

void CgmScheduler::Handle(const net::Envelope& env) {
  const auto* msg = std::any_cast<CgmMessage>(&env.payload);
  if (msg == nullptr) return;

  if (const auto* m = std::get_if<LockRequestMsg>(msg)) {
    const TxnId gtid = m->gtid;
    const uint64_t request_id = m->request_id;
    const int64_t granules = static_cast<int64_t>(m->granules.size());
    locks_.AcquireAll(gtid, m->granules,
                      [this, gtid, request_id, granules](Status s) {
      if (!s.ok()) ++metrics_->cgm_lock_timeouts;
      if (tracer_ != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kCgmLock;
        e.txn = gtid;
        e.site = endpoint_;
        e.value = granules;
        e.ok = s.ok();
        if (!s.ok()) e.detail = s.ToString();
        tracer_->Record(std::move(e));
      }
      network_->Send(endpoint_, client_endpoint_,
                     CgmMessage{LockReplyMsg{gtid, request_id, s}});
    });
    return;
  }
  if (const auto* m = std::get_if<CommitCheckMsg>(msg)) {
    TryAdmission(m->gtid, m->sites, loop_->Now() + kAdmissionTimeout);
    return;
  }
  if (const auto* m = std::get_if<FinishedMsg>(msg)) {
    locks_.ReleaseAll(m->gtid);
    graph_.Remove(m->gtid);
  }
}

}  // namespace hermes::cgm
