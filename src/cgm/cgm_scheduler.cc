#include "cgm/cgm_scheduler.h"

namespace hermes::cgm {

namespace {

// Wait bound for one global granule lock.
constexpr sim::Duration kLockTimeout = 1 * sim::kSecond;

}  // namespace

CgmScheduler::CgmScheduler(SiteId endpoint, SiteId client_endpoint,
                           sim::EventLoop* loop, net::Network* network,
                           core::Metrics* metrics, trace::Tracer* tracer)
    : endpoint_(endpoint),
      client_endpoint_(client_endpoint),
      network_(network),
      metrics_(metrics),
      tracer_(tracer),
      locks_(kLockTimeout, loop) {}

bool CgmScheduler::TryAdmission(const TxnId& gtid,
                                const std::vector<SiteId>& sites) {
  if (!graph_.TryAdd(gtid, sites)) return false;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kCgmAdmission;
    e.txn = gtid;
    e.site = endpoint_;
    tracer_->Record(std::move(e));
  }
  network_->Send(endpoint_, client_endpoint_,
                 CgmMessage{CommitCheckReplyMsg{gtid}});
  return true;
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
    // Commit processing waits for the loop to clear, as in the original
    // CGM: only a FinishedMsg removes edges, so that is when waiters retry.
    if (!TryAdmission(m->gtid, m->sites)) {
      ++metrics_->cgm_graph_rejections;
      if (tracer_ != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kCgmAdmission;
        e.txn = m->gtid;
        e.site = endpoint_;
        e.ok = false;
        e.detail = "commit graph: admission would create a loop; waiting";
        tracer_->Record(std::move(e));
      }
      waiters_.push_back(Waiter{m->gtid, m->sites});
    }
    return;
  }
  if (const auto* m = std::get_if<FinishedMsg>(msg)) {
    locks_.ReleaseAll(m->gtid);
    graph_.Remove(m->gtid);
    // Retry the waiters in arrival order; an admission adds edges that the
    // later waiters see.
    std::erase_if(waiters_, [this](const Waiter& w) {
      return TryAdmission(w.gtid, w.sites);
    });
  }
}

}  // namespace hermes::cgm
