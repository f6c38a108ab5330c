#include "core/mdbs.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/str.h"

namespace hermes::core {

// Executes one local transaction: Begin, commands in order, Commit.
struct Mdbs::LocalRun : std::enable_shared_from_this<Mdbs::LocalRun> {
  Mdbs* mdbs = nullptr;
  LocalTxnSpec spec;
  LocalTxnCallback cb;
  TxnId id;
  LtmTxnHandle handle = kInvalidLtmTxn;
  size_t next = 0;
  std::vector<db::CmdResult> results;

  void Start() {
    if (mdbs->config_.tracer != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kLocalTxnBegin;
      e.txn = id;
      e.site = spec.site;
      e.value = static_cast<int64_t>(spec.commands.size());
      mdbs->config_.tracer->Record(std::move(e));
    }
    handle = mdbs->ltm(spec.site)->Begin(SubTxnId{id, 0});
    RunNext();
  }

  void RunNext() {
    ltm::Ltm* ltm = mdbs->ltm(spec.site);
    if (next >= spec.commands.size()) {
      const Status status = ltm->Commit(handle);
      core::Metrics& m = mdbs->site_metrics_[static_cast<size_t>(spec.site)];
      if (status.ok()) {
        ++m.local_committed;
      } else {
        ++m.local_aborted;
      }
      Finish(status);
      return;
    }
    auto self = shared_from_this();
    ltm->Execute(handle, spec.commands[next],
                 [self](const Status& status, const db::CmdResult& result) {
                   if (!status.ok()) {
                     // The executor aborted the transaction on failure
                     // already (statement errors, lock timeouts); aborts
                     // requested here would be redundant but harmless.
                     ltm::Ltm* ltm = self->mdbs->ltm(self->spec.site);
                     if (ltm->IsActive(self->handle)) {
                       ltm->Abort(self->handle);
                     }
                     ++self->mdbs
                           ->site_metrics_[static_cast<size_t>(
                               self->spec.site)]
                           .local_aborted;
                     self->Finish(status);
                     return;
                   }
                   self->results.push_back(result);
                   ++self->next;
                   self->RunNext();
                 });
  }

  void Finish(const Status& status) {
    if (mdbs->config_.tracer != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kLocalTxnEnd;
      e.txn = id;
      e.site = spec.site;
      e.ok = status.ok();
      if (!status.ok()) e.detail = status.ToString();
      mdbs->config_.tracer->Record(std::move(e));
    }
    if (cb) {
      cb(LocalTxnResult{id, status, std::move(results)});
    }
  }
};

Status MdbsConfig::Validate() const {
  if (num_sites < 1 || num_shards < 0 ||
      (max_sites != 0 && max_sites < num_sites)) {
    return Status::InvalidArgument(
        StrCat("num_sites=", num_sites, " num_shards=", num_shards,
               " max_sites=", max_sites, ": need num_sites >= 1, ",
               "num_shards >= 0 and max_sites 0 or >= num_sites"));
  }
  if (protocol != consensus::ProtocolKind::kPaxosCommit) return Status::Ok();
  if (paxos_f < 0 || 2 * paxos_f + 1 > num_sites) {
    return Status::InvalidArgument(
        StrCat("protocol=paxos-commit with paxos_f=", paxos_f, " needs ",
               "2*paxos_f+1 acceptor sites, but num_sites=", num_sites));
  }
  const char* knob = agent.certifier == cert::CertifierKind::kCsn
                         ? "certifier=csn"
                     : agent.short_commit ? "short_commit" : nullptr;
  if (knob == nullptr) return Status::Ok();
  return Status::InvalidArgument(
      StrCat("protocol=paxos-commit does not compose with ", knob));
}

Mdbs::Mdbs(const MdbsConfig& config, sim::EventLoop* loop)
    : config_(config), loop_(loop) {
  assert(config_.Validate().ok());
  if (config_.max_sites == 0) config_.max_sites = config_.num_sites;
  recorder_ = std::make_unique<history::Recorder>(loop_);
  recorder_->set_enabled(config_.record_history);
  network_ = std::make_unique<net::Network>(config_.network, loop_,
                                            config_.tracer);
  // Sized to the capacity ceiling before any site takes a pointer into
  // them; never resized again, so ProvisionSite cannot invalidate the
  // Metrics* held by live agents/coordinators.
  next_local_seq_.resize(static_cast<size_t>(config_.max_sites), 0);
  site_metrics_.resize(static_cast<size_t>(config_.max_sites));

  for (SiteId s = 0; s < config_.num_sites; ++s) BuildSite(s);

  if (config_.num_shards > 0) {
    directory_ = std::make_unique<shard::Directory>(
        shard::ShardMap::MakeInitial(config_.num_shards, config_.num_sites));
    std::vector<SiteId> protected_sites;
    if (config_.protocol == consensus::ProtocolKind::kPaxosCommit) {
      // The acceptor set is fixed for life: sites 0..2f may never be
      // removed or replaced.
      for (SiteId a = 0; a < 2 * config_.paxos_f + 1; ++a) {
        protected_sites.push_back(a);
      }
    }
    // The base conversion must happen here, inside Mdbs, where the
    // private shard::HostOps base is accessible.
    shard::HostOps* host = this;
    controller_ = std::make_unique<shard::Controller>(
        std::move(protected_sites), directory_.get(), host,
        &scheduler_metrics_, config_.tracer);
    for (auto& site : sites_) {
      site->agent->set_directory(directory_.get());
      site->coordinator->set_directory(directory_.get());
    }
  }
}

void Mdbs::BuildSite(SiteId s) {
  assert(s == static_cast<SiteId>(sites_.size()));
  auto site = std::make_unique<Site>();
  const sim::Duration offset =
      static_cast<size_t>(s) < config_.clock_offsets.size()
          ? config_.clock_offsets[s]
          : 0;
  site->clock = std::make_unique<sim::SiteClock>(loop_, offset);
  site->storage = std::make_unique<db::Storage>(s);

  ltm::LtmConfig ltm_config = config_.ltm;
  ltm_config.site = s;
  site->ltm = std::make_unique<ltm::Ltm>(ltm_config, loop_,
                                         site->storage.get(),
                                         recorder_.get(), config_.tracer);

  AgentConfig agent_config = config_.agent;
  agent_config.site = s;
  Metrics* metrics = &site_metrics_[static_cast<size_t>(s)];
  site->agent = std::make_unique<TwoPCAgent>(agent_config, loop_,
                                             network_.get(),
                                             site->ltm.get(), metrics,
                                             config_.tracer);
  site->coordinator = std::make_unique<Coordinator>(
      s, loop_, network_.get(), site->clock.get(), recorder_.get(),
      metrics, config_.tracer, config_.coordinator_retry);
  if (agent_config.certifier == cert::CertifierKind::kCsn) {
    site->coordinator->set_csn_source(&csn_source_);
  }
  site->coordinator->set_short_commit(agent_config.short_commit);
  if (config_.protocol == consensus::ProtocolKind::kPaxosCommit) {
    consensus::PaxosConfig pc;
    pc.site = s;
    // max_sites, not num_sites: ballot numbers are unique modulo this
    // value, and provisioned sites (id >= num_sites) must not collide
    // with the founding ones. Identical when no headroom is configured.
    pc.num_sites = config_.max_sites;
    pc.f = config_.paxos_f;
    site->consensus = std::make_unique<consensus::PaxosCommit>(
        pc, loop_, network_.get(), recorder_.get(), metrics,
        config_.tracer);
    site->coordinator->set_decision_protocol(site->consensus.get());
    consensus::PaxosCommit* p = site->consensus.get();
    site->agent->set_vote_hook(
        [p](const TxnId& gtid, bool ready, SiteId coordinator) {
          p->BroadcastVote(gtid, ready, coordinator);
        });
    site->agent->set_escalate_hook(
        [p](const TxnId& gtid, SiteId coordinator, int attempt) {
          p->Escalate(gtid, coordinator, attempt);
        });
  }
  sites_.push_back(std::move(site));
  network_->RegisterEndpoint(s, [this, s](const net::Envelope& env) {
    RouteMessage(s, env);
  });
}

Mdbs::~Mdbs() = default;

Metrics Mdbs::metrics() const {
  Metrics total = scheduler_metrics_;
  for (const Metrics& m : site_metrics_) total.Merge(m);
  return total;
}

void Mdbs::RouteMessage(SiteId site, const net::Envelope& env) {
  const auto* msg = std::any_cast<Message>(&env.payload);
  if (msg == nullptr) return;  // not a 2PC protocol message (CGM traffic)
  if (sites_[site]->removed) {
    // A retired site forwards only the second half of the commit protocol
    // to the site that adopted its shards (the agent there answers on the
    // original participant's behalf). BEGIN/DML must not follow — the
    // coordinator re-targets those against the fresh map itself — and
    // coordinator-bound traffic has nowhere meaningful to go: the drain
    // guaranteed the retired coordinator owed no one an answer.
    const bool forwardable = std::holds_alternative<PrepareMsg>(*msg) ||
                             std::holds_alternative<DecisionMsg>(*msg) ||
                             std::holds_alternative<OnePhaseCommitMsg>(*msg);
    if (!forwardable || directory_ == nullptr) return;
    const SiteId target = directory_->Forward(site);
    if (target == site || sites_[target]->removed || !sites_[target]->up) {
      return;
    }
    network_->Send(env.from, target, env.payload);
    return;
  }
  if (IsPaxosMessage(*msg)) {
    if (sites_[site]->consensus != nullptr) {
      sites_[site]->consensus->Handle(env.from, *msg);
    }
    return;
  }
  // Agent-bound message kinds go to the site's agent, the rest to the
  // site's coordinator.
  const bool to_agent = std::holds_alternative<BeginMsg>(*msg) ||
                        std::holds_alternative<DmlRequestMsg>(*msg) ||
                        std::holds_alternative<PrepareMsg>(*msg) ||
                        std::holds_alternative<DecisionMsg>(*msg) ||
                        std::holds_alternative<OnePhaseCommitMsg>(*msg);
  if (to_agent) {
    sites_[site]->agent->Handle(env.from, *msg);
  } else {
    sites_[site]->coordinator->Handle(env.from, *msg);
  }
}

Result<db::TableId> Mdbs::CreateTable(SiteId site, const std::string& name) {
  return sites_[site]->storage->CreateTable(name);
}

Result<db::TableId> Mdbs::CreateTableEverywhere(const std::string& name) {
  Result<db::TableId> first = sites_[0]->storage->CreateTable(name);
  if (!first.ok()) return first;
  for (SiteId s = 1; s < num_sites(); ++s) {
    Result<db::TableId> r = sites_[s]->storage->CreateTable(name);
    if (!r.ok()) return r;
    if (*r != *first) {
      return Status::Internal("table ids diverged across sites");
    }
  }
  // Remembered so ProvisionSite can replay the shared schema onto sites
  // added later.
  table_names_.push_back(name);
  return first;
}

Status Mdbs::LoadRow(SiteId site, db::TableId table, int64_t key,
                     db::Row row) {
  return sites_[site]->storage->LoadRow(table, key, std::move(row));
}

TxnId Mdbs::Submit(GlobalTxnSpec spec, GlobalTxnCallback cb,
                   SiteId coordinator_site) {
  if (coordinator_site == kInvalidSite) {
    coordinator_site = spec.steps.empty() ? 0 : spec.steps[0].site;
  }
  if (!sites_[coordinator_site]->up) {
    // The coordinating site is down: the client notices the outage
    // immediately — the transaction never starts.
    Metrics& m = site_metrics_[static_cast<size_t>(coordinator_site)];
    ++m.global_aborted;
    ++m.global_aborted_crash;
    if (cb) {
      loop_->ScheduleAfter(0, [cb = std::move(cb)]() {
        GlobalTxnResult r;
        r.status = Status::Unavailable("coordinating site is down");
        cb(r);
      });
    }
    return TxnId{};
  }
  return sites_[coordinator_site]->coordinator->Submit(std::move(spec),
                                                       std::move(cb));
}

TxnId Mdbs::SubmitLocal(LocalTxnSpec spec, LocalTxnCallback cb) {
  assert(spec.site >= 0 && spec.site < num_sites());
  if (!sites_[spec.site]->up) {
    ++site_metrics_[static_cast<size_t>(spec.site)].local_aborted;
    if (cb) {
      loop_->ScheduleAfter(0, [cb = std::move(cb)]() {
        cb(LocalTxnResult{TxnId{}, Status::Unavailable("site is down"), {}});
      });
    }
    return TxnId{};
  }
  auto run = std::make_shared<LocalRun>();
  run->mdbs = this;
  run->id = TxnId::MakeLocal(spec.site,
                             next_local_seq_[static_cast<size_t>(spec.site)]++);
  run->spec = std::move(spec);
  run->cb = std::move(cb);
  const TxnId id = run->id;
  loop_->ScheduleAfter(0, [run]() { run->Start(); });
  return id;
}

Status Mdbs::CrashSite(SiteId site, sim::Duration downtime) {
  if (site < 0 || site >= num_sites()) {
    return Status::InvalidArgument(StrCat("unknown site ", site));
  }
  Site& s = *sites_[site];
  if (s.removed) {
    return Status::InvalidArgument(
        StrCat("site ", site, " was removed by reconfiguration"));
  }
  if (!s.up) return Status::Ok();  // already down: a second crash is a no-op
  s.up = false;
  if (config_.tracer != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kSiteCrash;
    e.site = site;
    e.ok = false;
    e.value = downtime < 0 ? -1 : downtime;
    config_.tracer->Record(std::move(e));
  }
  // A down site answers nothing: drop its endpoint so messages to it —
  // including ones already in flight — vanish (counted as drops).
  network_->UnregisterEndpoint(site);
  // Both co-located roles fail. The coordinator first: its undecided
  // transactions are presumed aborted, decided ones wait for recovery.
  s.coordinator->Crash();
  // The consensus module loses its volatile leader/resolver/acceptor state;
  // only the acceptor log — stable storage — survives.
  if (s.consensus != nullptr) s.consensus->Crash();
  // Wipe agent volatile state before the collective abort so the UAN storm
  // from below hits an agent that no longer knows the transactions.
  s.agent->Crash();
  for (LtmTxnHandle handle : s.ltm->ActiveHandles()) {
    (void)s.ltm->InjectUnilateralAbort(handle);
  }
  s.ltm->ClearBindings();
  if (downtime == 0) {
    RecoverSiteNow(site);
  } else if (downtime > 0) {
    loop_->ScheduleAfter(downtime, [this, site]() { RecoverSiteNow(site); });
  }
  // downtime < 0: down until an explicit RecoverSite().
  return Status::Ok();
}

Status Mdbs::RecoverSite(SiteId site) {
  if (site < 0 || site >= num_sites()) {
    return Status::InvalidArgument(StrCat("unknown site ", site));
  }
  if (sites_[site]->removed) {
    return Status::InvalidArgument(
        StrCat("site ", site, " was removed by reconfiguration"));
  }
  RecoverSiteNow(site);
  return Status::Ok();
}

void Mdbs::RecoverSiteNow(SiteId site) {
  Site& s = *sites_[site];
  if (s.up || s.removed) return;
  s.up = true;
  // Re-register the endpoint first: recovery immediately sends messages
  // (inquiries, COMMIT re-deliveries) whose replies must be able to
  // reach this site again.
  network_->RegisterEndpoint(site, [this, site](const net::Envelope& env) {
    RouteMessage(site, env);
  });
  // Acceptor state first: the agent's recovery inquiries may escalate into
  // a resolution round that needs the replayed promises/votes.
  if (s.consensus != nullptr) s.consensus->Recover();
  s.agent->Recover();
  s.coordinator->Recover();
  if (config_.tracer != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kSiteRecover;
    e.site = site;
    config_.tracer->Record(std::move(e));
  }
}

Status Mdbs::StartReconfig(const shard::ReconfigOp& op,
                           std::function<void(Status)> done) {
  if (controller_ == nullptr) {
    return Status::InvalidArgument("sharding disabled (num_shards == 0)");
  }
  if (op.kind != shard::ReconfigKind::kRemoveSite &&
      num_sites() >= config_.max_sites) {
    return Status::InvalidArgument(
        StrCat("max_sites (", config_.max_sites, ") exhausted"));
  }
  if (op.kind != shard::ReconfigKind::kAddSite) {
    if (op.site < 0 || op.site >= num_sites()) {
      return Status::InvalidArgument(StrCat("unknown site ", op.site));
    }
    if (sites_[op.site]->removed) {
      return Status::InvalidArgument(
          StrCat("site ", op.site, " already removed"));
    }
    if (!sites_[op.site]->up) {
      return Status::InvalidArgument(
          StrCat("site ", op.site, " is down (cannot drain)"));
    }
  }
  return controller_->Start(op, std::move(done));
}

// --- shard::HostOps --------------------------------------------------------

SiteId Mdbs::ProvisionSite() {
  const SiteId s = static_cast<SiteId>(sites_.size());
  assert(s < config_.max_sites);  // StartReconfig checked capacity
  BuildSite(s);
  Site& site = *sites_[s];
  // Replay the shared schema so table ids align with the rest of the
  // federation (tables created per-site with CreateTable stay where they
  // are — heterogeneity is the point).
  for (const std::string& name : table_names_) {
    const Result<db::TableId> r = site.storage->CreateTable(name);
    assert(r.ok());
    (void)r;
  }
  site.agent->set_directory(directory_.get());
  site.coordinator->set_directory(directory_.get());
  return s;
}

bool Mdbs::SiteUsable(SiteId site) {
  return sites_[site]->up && !sites_[site]->removed;
}

bool Mdbs::QuiescentForShards(SiteId site, const std::vector<int>& shards,
                              bool and_coordinator) {
  const Site& s = *sites_[site];
  if (s.agent->InFlightOnShards(directory_->Current(), shards)) return false;
  if (and_coordinator && s.coordinator->active_transactions() > 0) {
    return false;
  }
  return true;
}

bool Mdbs::CanForceTransfer(SiteId site, SiteId to,
                            const std::vector<int>& shards,
                            bool and_coordinator) {
  const Site& s = *sites_[site];
  if (!s.agent->CanMigrateResidue(directory_->Current(), shards,
                                  *sites_[to]->agent)) {
    return false;
  }
  // The coordinator drain cannot be forced: an in-flight global
  // transaction's decision state is not migratable.
  if (and_coordinator && s.coordinator->active_transactions() > 0) {
    return false;
  }
  return true;
}

int64_t Mdbs::TransferShards(SiteId from, SiteId to,
                             const std::vector<int>& shards) {
  const shard::ShardMap& map = directory_->Current();
  Site& src = *sites_[from];
  Site& dst = *sites_[to];
  const auto in_moved = [&](int64_t key) {
    return std::find(shards.begin(), shards.end(), map.ShardOf(key)) !=
           shards.end();
  };

  // 1. Prepared residue leaves the source agent; still-active global
  //    subtransactions touching the moving shards are unilaterally aborted
  //    inside ExtractResidueForShards (the coordinator resubmits them
  //    against the new owner).
  std::vector<MigratedTxn> residue =
      src.agent->ExtractResidueForShards(map, shards, to);

  // 2. Local transactions still holding rows of the moving shards are
  //    unilaterally aborted too (execution autonomy permits this), so their
  //    undo runs before the committed state is copied.
  for (LtmTxnHandle h : src.ltm->ActiveHandles()) {
    const ltm::LocalTxn* t = src.ltm->Find(h);
    if (t == nullptr) continue;
    bool touches = false;
    for (const ItemId& item : t->write_set) {
      if (in_moved(item.key)) {
        touches = true;
        break;
      }
    }
    if (!touches) {
      for (const ItemId& item : t->read_set) {
        if (in_moved(item.key)) {
          touches = true;
          break;
        }
      }
    }
    if (touches) (void)src.ltm->InjectUnilateralAbort(h);
  }

  // 3. Committed rows move as one synthetic committed transaction per side
  //    — a delete-all at the source, an insert-all at the destination —
  //    recorded in the history so the oracles' world matches the storage.
  const SubTxnId out_id{
      TxnId::MakeLocal(from, next_local_seq_[static_cast<size_t>(from)]++),
      0};
  const SubTxnId in_id{
      TxnId::MakeLocal(to, next_local_seq_[static_cast<size_t>(to)]++), 0};
  uint64_t out_seq = 1;
  uint64_t in_seq = 1;
  int64_t rows_moved = 0;
  for (int32_t t = 0; t < src.storage->table_count(); ++t) {
    db::Table* st = src.storage->GetTable(t);
    db::Table* dt = dst.storage->GetTable(t);
    if (st == nullptr || dt == nullptr) continue;
    std::vector<std::pair<int64_t, db::Row>> moving;
    for (const auto& [key, entry] : st->entries()) {
      if (entry.live() && in_moved(key)) moving.emplace_back(key, *entry.row);
    }
    for (auto& [key, row] : moving) {
      const db::VersionTag in_tag{in_id, in_seq++};
      dt->Put(key, db::RowEntry{std::move(row), in_tag});
      recorder_->RecordWrite(in_id, dst.storage->MakeItemId(t, key), in_tag,
                             /*is_delete=*/false);
      const db::VersionTag out_tag{out_id, out_seq++};
      st->Delete(key, out_tag);
      recorder_->RecordWrite(out_id, src.storage->MakeItemId(t, key),
                             out_tag, /*is_delete=*/true);
      ++rows_moved;
    }
  }
  if (out_seq > 1) recorder_->RecordLocalCommit(out_id, from);
  if (in_seq > 1) recorder_->RecordLocalCommit(in_id, to);

  // 4. The destination adopts the prepared residue — after the rows, so
  //    resubmitted commands re-execute against the migrated state.
  for (const MigratedTxn& m : residue) {
    dst.agent->AdoptMigrated(m);
  }
  return rows_moved;
}

void Mdbs::DeactivateSite(SiteId site) {
  Site& s = *sites_[site];
  s.removed = true;
  s.up = false;
  // Any leftover purely-local transactions die with the site.
  for (LtmTxnHandle handle : s.ltm->ActiveHandles()) {
    (void)s.ltm->InjectUnilateralAbort(handle);
  }
  s.ltm->ClearBindings();
  // The drain guaranteed neither role owes anyone an answer; Crash() just
  // cancels stray timers and drops volatile maps. The network endpoint
  // stays registered so RouteMessage can forward late PREPARE/decision
  // traffic to the adopting site.
  s.coordinator->Crash();
  if (s.consensus != nullptr) s.consensus->Crash();
  s.agent->Crash();
}

void Mdbs::Schedule(sim::Time delay, std::function<void()> fn) {
  loop_->ScheduleAfter(delay, std::move(fn));
}

void Mdbs::SetCoordinatorHooks(const CoordinatorHooks& hooks) {
  for (auto& site : sites_) site->coordinator->set_hooks(hooks);
}

void Mdbs::SetSnAtSubmit(bool v) {
  for (auto& site : sites_) site->coordinator->set_sn_at_submit(v);
}

}  // namespace hermes::core
