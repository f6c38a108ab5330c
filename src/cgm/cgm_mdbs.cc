#include "cgm/cgm_mdbs.h"

#include <cassert>

#include "common/str.h"

namespace hermes::cgm {

Status CgmConfig::Validate() const {
  const Status assembly = mdbs.Validate();
  if (!assembly.ok()) return assembly;
  const char* knob =
      mdbs.num_shards > 0 ? "num_shards > 0"
      : mdbs.agent.short_commit ? "short_commit"
      : mdbs.agent.certifier == cert::CertifierKind::kCsn ? "certifier=csn"
      : mdbs.protocol == consensus::ProtocolKind::kPaxosCommit
          ? "protocol=paxos-commit"
          : nullptr;
  if (knob == nullptr) return Status::Ok();
  return Status::InvalidArgument(
      StrCat("system=CGM does not compose with ", knob));
}

CgmMdbs::CgmMdbs(const CgmConfig& config, sim::EventLoop* loop)
    : config_(config), loop_(loop) {
  assert(config_.Validate().ok());
  // CGM agents do resubmission but no certification: the global locks and
  // the commit graph provide the serializability protection.
  config_.mdbs.agent.policy = core::CertPolicy::kNone;
  mdbs_ = std::make_unique<core::Mdbs>(config_.mdbs, loop_);

  scheduler_endpoint_ = config_.mdbs.num_sites;
  stub_endpoint_ = config_.mdbs.num_sites + 1;
  scheduler_ = std::make_unique<CgmScheduler>(
      scheduler_endpoint_, stub_endpoint_, loop_, &mdbs_->network(),
      &mdbs_->scheduler_metrics(), config_.mdbs.tracer);
  mdbs_->network().RegisterEndpoint(
      scheduler_endpoint_,
      [this](const net::Envelope& env) { scheduler_->Handle(env); });
  mdbs_->network().RegisterEndpoint(
      stub_endpoint_,
      [this](const net::Envelope& env) { HandleReply(env); });

  core::CoordinatorHooks hooks;
  hooks.before_step = [this](const TxnId& gtid,
                             const core::GlobalTxnSpec::Step& step,
                             std::function<void(const Status&)> done) {
    std::vector<Granule> granules =
        GranulesOf(config_.granularity, step.site, step.cmd);
    const uint64_t request_id = next_request_id_++;
    pending_locks_[request_id] = std::move(done);
    mdbs_->network().Send(
        stub_endpoint_, scheduler_endpoint_,
        CgmMessage{LockRequestMsg{gtid, request_id, std::move(granules)}});
  };
  hooks.before_prepare = [this](const TxnId& gtid,
                                const std::vector<SiteId>& sites,
                                std::function<void()> done) {
    pending_checks_[gtid] = std::move(done);
    mdbs_->network().Send(stub_endpoint_, scheduler_endpoint_,
                          CgmMessage{CommitCheckMsg{gtid, sites}});
  };
  hooks.on_finished = [this](const TxnId& gtid, bool /*committed*/) {
    mdbs_->network().Send(stub_endpoint_, scheduler_endpoint_,
                          CgmMessage{FinishedMsg{gtid}});
  };
  mdbs_->SetCoordinatorHooks(hooks);
}

void CgmMdbs::HandleReply(const net::Envelope& env) {
  const auto* msg = std::any_cast<CgmMessage>(&env.payload);
  if (msg == nullptr) return;
  if (const auto* m = std::get_if<LockReplyMsg>(msg)) {
    auto it = pending_locks_.find(m->request_id);
    if (it == pending_locks_.end()) return;
    auto done = std::move(it->second);
    pending_locks_.erase(it);
    done(m->status);
    return;
  }
  if (const auto* m = std::get_if<CommitCheckReplyMsg>(msg)) {
    auto it = pending_checks_.find(m->gtid);
    if (it == pending_checks_.end()) return;
    auto done = std::move(it->second);
    pending_checks_.erase(it);
    done();
  }
}

}  // namespace hermes::cgm
