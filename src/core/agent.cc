#include "core/agent.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <utility>

#include "sim/backoff.h"

namespace hermes::core {

namespace {

using trace::EventKind;

// Backoff before restarting a failed resubmission attempt.
constexpr sim::Duration kResubmitRetryInterval = 5 * sim::kMillisecond;
// Paxos Commit (the only protocol that installs an escalate hook): from
// this many unanswered inquiries on, the agent escalates to leader election.
constexpr int kInquiryEscalateAfter = 2;

// Where a subtransaction's logged commands fall against `shards`:
// `touches` when one may reach them (a command without an exact key may
// reach any shard), `inside` when every one surely stays inside them.
struct ShardReach {
  bool touches = false;
  bool inside = true;
};

ShardReach ReachOf(const AgentLog& log, const TxnId& gtid,
                   const shard::ShardMap& map,
                   const std::vector<int>& shards) {
  ShardReach reach;
  log.ForEachOf(gtid, [&](const LogRecord& r) {
    if (r.kind != LogRecordKind::kCommand || !r.command.has_value()) return;
    const std::optional<int64_t> key = db::CommandExactKey(*r.command);
    const bool in = key.has_value() &&
                    std::find(shards.begin(), shards.end(),
                              map.ShardOf(*key)) != shards.end();
    reach.touches = reach.touches || !key.has_value() || in;
    reach.inside = reach.inside && in;
  });
  return reach;
}

// Trace fill of a local abort.
void MarkFailed(trace::Event& e) { e.ok = false; }

// Prepared, decision not yet received.
bool Undecided(AgentState s) {
  return s == AgentState::kPrepared || s == AgentState::kResubmitting;
}
bool Decided(AgentState s) {
  return s == AgentState::kCommitPending ||
         s == AgentState::kCommitResubmitting;
}
bool Resubmitting(AgentState s) {
  return s == AgentState::kResubmitting ||
         s == AgentState::kCommitResubmitting;
}

}  // namespace

const char* CertPolicyName(CertPolicy policy) {
  switch (policy) {
    case CertPolicy::kNone:
      return "none";
    case CertPolicy::kPrepareOnly:
      return "prepare-only";
    case CertPolicy::kPrepareExtended:
      return "prepare-extended";
    case CertPolicy::kFull:
      return "full";
  }
  return "?";
}

TwoPCAgent::TwoPCAgent(const AgentConfig& config, sim::EventLoop* loop,
                       net::Network* network, ltm::Ltm* ltm, Metrics* metrics,
                       trace::Tracer* tracer)
    : config_(config),
      loop_(loop),
      network_(network),
      ltm_(ltm),
      metrics_(metrics),
      tracer_(tracer),
      certifier_(cert::MakeCertifier(config.certifier, config.policy)) {
  ltm_->SetUanListener(
      [this](const SubTxnId& id, LtmTxnHandle handle) {
        OnUnilateralAbort(id, handle);
      });
}

TwoPCAgent::~TwoPCAgent() { Crash(); }

TwoPCAgent::AgentTxn* TwoPCAgent::FindTxn(const TxnId& gtid) {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? nullptr : &it->second;
}

LtmTxnHandle TwoPCAgent::HandleOf(const TxnId& gtid) const {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? kInvalidLtmTxn : it->second.ltm_handle;
}

AgentState TwoPCAgent::StateOf(const TxnId& gtid) const {
  if (auto it = txns_.find(gtid); it != txns_.end()) return it->second.state;
  // Retired: the outcome entry's durable facts. A committed subtransaction
  // always wrote its completion record before it retired.
  const AgentOutcome* outcome = log_.OutcomeOf(gtid);
  if (outcome == nullptr) return AgentState::kUnknown;
  if (outcome->migrated_to != kInvalidSite) return AgentState::kMigrated;
  return outcome->has_complete ? AgentState::kCommitted
                               : AgentState::kRolledBack;
}

TwoPCAgent::Lookup TwoPCAgent::Find(const TxnId& gtid) {
  if (AgentTxn* txn = FindTxn(gtid)) return {txn->state, txn, nullptr};
  AgentOutcome::Late* late = log_.LateOf(gtid);
  if (late != nullptr && late->incarnation != incarnation_) late = nullptr;
  return {StateOf(gtid), nullptr, late};
}

template <typename Fn>
void TwoPCAgent::Apply([[maybe_unused]] const TxnId& gtid,
                       [[maybe_unused]] AgentState from,
                       [[maybe_unused]] AgentInput input, Fn&& transition) {
  assert(TransitionAllowed(kAgentTransitions, from, input));
  [[maybe_unused]] const uint32_t incarnation = incarnation_;
  transition();
  assert(incarnation != incarnation_ ||
         TransitionAllowed(kAgentTransitions, from, input, StateOf(gtid)));
}

void TwoPCAgent::Enter(AgentTxn& txn, AgentState to) {
  if (!(Undecided(txn.state) && Undecided(to))) {
    loop_->Cancel(txn.coordinator_timer);
  }
  if (!Resubmitting(to)) loop_->Cancel(txn.retry_timer);
  txn.state = to;
}

template <typename Fill>
void TwoPCAgent::Trace(EventKind kind, const TxnId& gtid, int resubmission,
                       Fill&& fill) {
  if (tracer_ == nullptr || !tracer_->Admit(gtid)) return;
  trace::Event e;
  e.kind = kind;
  e.txn = gtid;
  e.site = config_.site;
  e.resubmission = resubmission;
  fill(e);
  tracer_->Record(std::move(e));
}

void TwoPCAgent::Handle(SiteId from, const Message& msg) {
  // Epoch fencing and migrated-residue redirection. Every coordinator-bound
  // kind carries the sender's shard-map epoch view: a sender below this
  // agent's epoch is refused (it must re-fetch the map and re-drive), and
  // any message for a subtransaction whose residue left in a shard handoff
  // is answered with the adopting site instead of being processed here.
  // Epoch 0 marks an unfenced sender (sharding disabled) and always passes.
  const auto fenced = [&](const TxnId& gtid, int64_t epoch, const char* what,
                          AgentState state) {
    if (state == AgentState::kMigrated) {
      RefuseEpoch(from, gtid, what, log_.MigratedToOf(gtid));
      return true;
    }
    if (directory_ != nullptr && epoch > 0 && epoch < directory_->epoch()) {
      RefuseEpoch(from, gtid, what, kInvalidSite);
      return true;
    }
    return false;
  };
  const auto receive = [&](const auto& m, AgentInput input, const char* what,
                           auto on) {
    const Lookup l = Find(m.gtid);
    if (fenced(m.gtid, m.epoch, what, l.state)) return;
    Apply(m.gtid, l.state, input, [&] { (this->*on)(from, m, l); });
    DrainCommitHead();
  };
  if (const auto* m = std::get_if<BeginMsg>(&msg)) {
    receive(*m, AgentInput::kBegin, "begin", &TwoPCAgent::OnBegin);
  } else if (const auto* m = std::get_if<DmlRequestMsg>(&msg)) {
    receive(*m, AgentInput::kDml, "dml", &TwoPCAgent::OnDmlRequest);
  } else if (const auto* m = std::get_if<PrepareMsg>(&msg)) {
    receive(*m, AgentInput::kPrepare, "prepare", &TwoPCAgent::OnPrepare);
  } else if (const auto* m = std::get_if<DecisionMsg>(&msg)) {
    receive(*m, m->commit ? AgentInput::kCommit : AgentInput::kRollback,
            "decision", &TwoPCAgent::OnDecision);
  } else if (const auto* m = std::get_if<OnePhaseCommitMsg>(&msg)) {
    receive(*m, AgentInput::kOnePhaseCommit, "1pc",
            &TwoPCAgent::OnOnePhaseCommit);
  }
}

void TwoPCAgent::RefuseEpoch(SiteId from, const TxnId& gtid, const char* what,
                             SiteId moved_to) {
  const int64_t current = directory_ != nullptr ? directory_->epoch() : 0;
  ++metrics_->epoch_refusals;
  Trace(EventKind::kEpochRefused, gtid, -1, [&](trace::Event& e) {
    e.peer = from;
    e.value = current;
    e.ok = false;
    e.detail = what;
  });
  network_->Send(config_.site, from,
                 Message{EpochRefusedMsg{gtid, current, moved_to}});
}

// --- active state ----------------------------------------------------------

void TwoPCAgent::OnBegin(SiteId from, const BeginMsg& msg, const Lookup& l) {
  if (l.txn != nullptr || l.late != nullptr) {
    // Duplicate or retransmitted BEGIN: the subtransaction already exists
    // or existed, nothing to (re)open and nothing to acknowledge.
    ++metrics_->dup_msgs_absorbed;
    return;
  }
  if (l.state != AgentState::kUnknown) {
    // Retired before a crash, which wiped its late-message answers. Re-
    // opening it now would silently drop the commands executed before the
    // crash, so refuse all further work: it stands as aborted in this
    // incarnation, the coordinator's DML requests get "no active
    // subtransaction" and the global transaction rolls back.
    log_.Retire(msg.gtid, AgentOutcome::Late{.incarnation = incarnation_});
    return;
  }
  AgentTxn& txn = txns_[msg.gtid];
  txn.gtid = msg.gtid;
  txn.coordinator = from;
  txn.ltm_handle = ltm_->Begin(SubTxnId{msg.gtid, 0});
  txn.last_completion = loop_->Now();
  log_.Append(LogRecord{.kind = LogRecordKind::kBegin,
                        .gtid = msg.gtid,
                        .peer = from});
  if (config_.orphan_abort_timeout > 0) {
    ArmCoordinatorTimer(txn, config_.orphan_abort_timeout);
  }
}

void TwoPCAgent::OnDmlRequest(SiteId from, const DmlRequestMsg& msg,
                              const Lookup& l) {
  AgentTxn* txn = l.txn;
  if (txn == nullptr) {
    // A retired subtransaction answers what a finished one did. Without
    // answers the BEGIN was lost (or this is a stray duplicate for a
    // transaction wiped by a crash): stay silent; the coordinator times out
    // and retransmits BEGIN + DML, or rolls back after enough attempts.
    if (l.late != nullptr &&
        !AbsorbDuplicateDml(from, msg, l.late->dml_inflight_index,
                            l.late->dml_done_index,
                            Status(l.late->dml_last_code, ""), {})) {
      RefuseDml(from, msg, "no active subtransaction");
    }
    return;
  }
  if (txn->state == AgentState::kActive && config_.orphan_abort_timeout > 0) {
    ArmCoordinatorTimer(*txn, config_.orphan_abort_timeout);
  }
  if (AbsorbDuplicateDml(from, msg, txn->dml_inflight_index,
                         txn->dml_done_index, txn->dml_last_status,
                         txn->dml_last_result)) {
    return;
  }
  if (txn->state != AgentState::kActive) {
    RefuseDml(from, msg, "no active subtransaction");
    return;
  }
  if (directory_ != nullptr) {
    // Post-handoff guard: a command whose key's shard now belongs to another
    // (unwedged) owner must not execute here — the handoff already copied
    // the rows away, so a write would be invisible at the new owner. The
    // coordinator rolls the global transaction back and the workload
    // re-plans against the fresh map. (Wedged shards still execute: the
    // drain lets pre-fence transactions finish at the old owner.)
    const std::optional<int64_t> key = db::CommandExactKey(msg.cmd);
    if (key.has_value()) {
      const shard::ShardMap& map = directory_->Current();
      const shard::ShardEntry& entry = map.shards[map.ShardOf(*key)];
      if (entry.owner != config_.site && !entry.wedged) {
        RefuseDml(from, msg, "key's shard moved to another site");
        return;
      }
    }
  }
  // Log the command first: it is the resubmission source.
  log_.Append(LogRecord{.kind = LogRecordKind::kCommand,
                        .gtid = msg.gtid,
                        .command = msg.cmd});
  if (!ltm_->IsActive(txn->ltm_handle)) {
    // Unilaterally aborted while still active: fail the command; the
    // coordinator will roll the global transaction back. (Resubmission is
    // reserved for the prepared state.)
    RefuseDml(from, msg, "subtransaction unilaterally aborted");
    return;
  }
  const TxnId gtid = msg.gtid;
  const int32_t index = msg.cmd_index;
  txn->dml_inflight_index = index;
  ltm_->Execute(txn->ltm_handle, msg.cmd,
                [this, gtid, index, from](const Status& status,
                                          const db::CmdResult& result) {
                  const Lookup l = Find(gtid);
                  Apply(gtid, l.state, AgentInput::kDmlDone, [&] {
                    if (AgentTxn* t = l.txn) {
                      if (status.ok()) t->last_completion = loop_->Now();
                      if (t->dml_inflight_index == index) {
                        t->dml_inflight_index = -1;
                        t->dml_done_index = index;
                        t->dml_last_status = status;
                        t->dml_last_result = result;
                      }
                    } else if (l.late != nullptr &&
                               l.late->dml_inflight_index == index) {
                      // Finished while the command ran (a rollback).
                      l.late->dml_inflight_index = -1;
                      l.late->dml_done_index = index;
                      l.late->dml_last_code = status.code();
                    }
                  });
                  network_->Send(config_.site, from,
                                 Message{DmlResponseMsg{gtid, index, status,
                                                        result}});
                });
}

bool TwoPCAgent::AbsorbDuplicateDml(SiteId from, const DmlRequestMsg& msg,
                                    int32_t inflight, int32_t done,
                                    const Status& status,
                                    const db::CmdResult& result) {
  // Executing now (e.g. a slow lock wait outlasted the coordinator's
  // timeout): the execution will answer. Already executed: re-send the
  // cached response instead of running the command a second time
  // (exactly-once execution, at-least-once reply).
  if (msg.cmd_index != inflight && msg.cmd_index > done) return false;
  ++metrics_->dup_msgs_absorbed;
  if (msg.cmd_index == done) {
    network_->Send(
        config_.site, from,
        Message{DmlResponseMsg{msg.gtid, msg.cmd_index, status, result}});
  }
  return true;
}

void TwoPCAgent::RefuseDml(SiteId from, const DmlRequestMsg& msg,
                           const char* reason) {
  network_->Send(config_.site, from,
                 Message{DmlResponseMsg{msg.gtid, msg.cmd_index,
                                        Status::Aborted(reason),
                                        db::CmdResult{}}});
}

// --- prepare certification (Appendix B) -------------------------------------

// Every vote travels to the coordinator and — under Paxos Commit — is also
// handed to the vote hook, which broadcasts it to the acceptors as the
// participant's ballot-0 proposal for its own Paxos instance.
void TwoPCAgent::SendVote(const TxnId& gtid, SiteId coordinator, bool ready,
                          Status status, bool read_only,
                          SiteId on_behalf_of) {
  network_->Send(config_.site, coordinator,
                 Message{VoteMsg{gtid, ready, std::move(status), read_only,
                                 on_behalf_of}});
  // Adopted residue never re-enters the Paxos vote hook: the original
  // participant's ballot-0 vote already reached the acceptors at the source
  // site, and a proposal under this site's id would target the wrong
  // instance of the transaction's membership.
  if (vote_hook_ && on_behalf_of == kInvalidSite) {
    vote_hook_(gtid, ready, coordinator);
  }
}

void TwoPCAgent::OnPrepare(SiteId from, const PrepareMsg& msg,
                           const Lookup& l) {
  ++metrics_->prepares_received;
  if (l.late != nullptr) {
    // Retransmitted PREPARE after the subtransaction finished: re-vote as
    // below.
    ++metrics_->dup_msgs_absorbed;
    SendVote(msg.gtid, from, l.late->committed,
             l.late->committed ? Status::Ok()
                               : Status::Aborted("previously refused"),
             l.late->read_only, l.late->acting_for);
    return;
  }
  if (l.txn == nullptr) {
    Trace(EventKind::kCertRefuse, msg.gtid, -1, [&](trace::Event& e) {
      e.sn = msg.sn;
      e.refuse = trace::RefuseKind::kUnknownTxn;
      e.ok = false;
    });
    SendVote(msg.gtid, from, /*ready=*/false,
             Status::NotFound("unknown transaction"));
    return;
  }
  AgentTxn& txn = *l.txn;
  if (txn.state != AgentState::kActive) {
    // Retransmitted PREPARE (the READY vote was lost): re-vote without
    // re-running certification — the prepare record is already forced and
    // the alive interval already registered.
    ++metrics_->dup_msgs_absorbed;
    SendVote(msg.gtid, from, /*ready=*/true, Status::Ok(),
             /*read_only=*/false, txn.acting_for);
    return;
  }
  txn.coordinator = from;
  txn.sn = msg.sn;
  Trace(EventKind::kPrepareRecv, txn.gtid, txn.resubmission,
        [&](trace::Event& e) {
          e.peer = from;
          e.sn = msg.sn;
        });

  // Refresh the stored intervals first: for every prepared subtransaction
  // that is *currently* alive (its LTM handle is active; a dead one's
  // interval already ended at its UAN), the interval end extends to now.
  // Without it, a transaction preparing after another prepared would be
  // refused spuriously, violating the paper's failure-free-no-aborts
  // property.
  // (Allocation-free: ExtendEnd only mutates the entry's interval in place,
  // never the hash table itself, so iterating `entries()` directly is safe;
  // the refresh is order-independent.)
  AliveIntervalTable& table = certifier_->table();
  for (const auto& [entry_gtid, entry] : table.entries()) {
    AgentTxn* other = FindTxn(entry_gtid);
    if (other != nullptr && !Resubmitting(other->state) &&
        ltm_->IsActive(other->ltm_handle)) {
      table.ExtendEnd(entry_gtid, loop_->Now());
    }
  }

  // Prepare certification behind the certifier seam: the scheme's ordering
  // admission check (the SN extension) plus the basic alive-interval test,
  // with trace detail strings built only when tracing. Only an active
  // subtransaction gets here, so this is its one certification: a
  // resubmission restarts its alive interval without being re-certified.
  const AliveInterval candidate{txn.last_completion, loop_->Now()};
  cert::PrepareOutcome verdict = certifier_->CertifyPrepare(
      msg.sn, candidate, /*want_detail=*/Traced(txn.gtid));
  if (verdict.admit && !ltm_->IsActive(txn.ltm_handle)) {
    ++metrics_->refuse_dead;
    static constexpr char kDead[] = "unilaterally aborted before prepare";
    verdict = {.admit = false,
               .refuse = trace::RefuseKind::kDead,
               .reason = Status::Aborted(kDead),
               .detail = kDead};
  } else if (!verdict.admit) {
    ++(verdict.refuse == trace::RefuseKind::kExtension
           ? metrics_->refuse_extension
           : metrics_->refuse_interval);
  }
  if (!verdict.admit) {
    Trace(EventKind::kCertRefuse, txn.gtid, txn.resubmission,
          [&](trace::Event& e) {
            e.sn = msg.sn;
            e.refuse = verdict.refuse;
            e.ok = false;
            e.detail = std::move(verdict.detail);
            e.related = std::move(verdict.related);
          });
    // The subtransaction never entered the prepared set, so the certifier
    // has nothing to drop.
    if (ltm_->IsActive(txn.ltm_handle)) ltm_->Abort(txn.ltm_handle);
    SendVote(txn.gtid, txn.coordinator, /*ready=*/false, verdict.reason,
             /*read_only=*/false, txn.acting_for);
    Retire(txn, AgentState::kRolledBack);
    return;
  }

  // Short-commit read-only fast path: a write-free participant that passed
  // certification can commit locally *now* — releasing its read locks —
  // instead of holding them through the decision round. Safe because every
  // read happened before the global lock point (the prepare round), so
  // strict 2PL already fixed its serialization order; see
  // docs/DESIGN-SPACE.md. The reader never enters the prepared set and the
  // coordinator excludes it from the decision fan-out.
  if (config_.short_commit) {
    const ltm::LocalTxn* local = ltm_->Find(txn.ltm_handle);
    if (local != nullptr && local->write_set.empty()) {
      Trace(EventKind::kCertReady, txn.gtid, txn.resubmission,
            [&](trace::Event& e) { e.sn = msg.sn; });
      ltm_->recorder()->RecordPrepare(SubTxnId{txn.gtid, txn.resubmission},
                                      config_.site);
      // The dead branch above returned, and the coordinator sends PREPARE
      // only after every DML answered: the handle is active with no command
      // in flight, so the commit cannot fail.
      [[maybe_unused]] const Status commit_status =
          ltm_->Commit(txn.ltm_handle);
      assert(commit_status.ok());
      ++metrics_->short_commits_readonly;
      Trace(EventKind::kShortCommit, txn.gtid, txn.resubmission,
            [](trace::Event& e) { e.detail = "readonly"; });
      Trace(EventKind::kLocalCommit, txn.gtid, txn.resubmission,
            [&](trace::Event& e) { e.sn = msg.sn; });
      // No forced prepare record: with no writes there is nothing to redo
      // and nothing in doubt — one less force-write is part of the win.
      log_.Append(
          LogRecord{.kind = LogRecordKind::kComplete, .gtid = txn.gtid});
      SendVote(txn.gtid, from, /*ready=*/true, Status::Ok(),
               /*read_only=*/true);
      Retire(txn, AgentState::kCommitted, /*read_only=*/true);
      return;
    }
  }

  // Certification passed: force-write the prepare record, move to prepared.
  log_.ForceAppend(LogRecord{.kind = LogRecordKind::kPrepare,
                             .gtid = txn.gtid,
                             .sn = msg.sn});
  certifier_->OnPrepared(txn.gtid, candidate, msg.sn);
  Enter(txn, AgentState::kPrepared);
  Trace(EventKind::kCertReady, txn.gtid, txn.resubmission,
        [&](trace::Event& e) { e.sn = msg.sn; });
  ltm_->recorder()->RecordPrepare(SubTxnId{txn.gtid, txn.resubmission},
                                  config_.site);
  if (config_.bind_bound_data) BindAccessedItems(txn);
  SendVote(txn.gtid, txn.coordinator, /*ready=*/true, Status::Ok(),
           /*read_only=*/false, txn.acting_for);
  // Arm the decision wait: if no COMMIT/ROLLBACK arrives in time the agent
  // starts probing the coordinator — the 2PC blocking window made visible.
  if (config_.decision_inquiry_timeout > 0) {
    ArmCoordinatorTimer(txn, config_.decision_inquiry_timeout);
  }
  // Last: a hook may crash this site (fault plans), wiping txns_ and
  // invalidating `txn`.
  const LtmTxnHandle handle = txn.ltm_handle;
  for (size_t i = 0; i < prepared_hooks_.size(); ++i) {
    prepared_hooks_[i](msg.gtid, handle);
  }
}

// --- resubmission (Appendix A) ----------------------------------------------

void TwoPCAgent::StartResubmission(AgentTxn& txn) {
  Enter(txn, Decided(txn.state) ? AgentState::kCommitResubmitting
                                : AgentState::kResubmitting);
  ++txn.resubmit_attempts;
  ++metrics_->resubmissions;
  ++txn.resubmission;
  Trace(EventKind::kResubmitStart, txn.gtid, txn.resubmission,
        [&](trace::Event& e) { e.value = txn.resubmit_attempts; });
  log_.Append(
      LogRecord{.kind = LogRecordKind::kResubmission, .gtid = txn.gtid});
  txn.resubmit_next_cmd = 0;
  txn.ltm_handle = ltm_->Begin(SubTxnId{txn.gtid, txn.resubmission});
  RunNextResubmitCommand(txn);
}

void TwoPCAgent::RunNextResubmitCommand(AgentTxn& txn) {
  const db::Command* cmd = log_.CommandAt(txn.gtid, txn.resubmit_next_cmd);
  if (cmd == nullptr) {
    OnResubmissionComplete(txn);
    return;
  }
  const TxnId gtid = txn.gtid;
  ltm_->Execute(
      txn.ltm_handle, *cmd,
      [this, gtid](const Status& status, const db::CmdResult&) {
        AgentTxn* t = FindTxn(gtid);
        if (t == nullptr) return;  // rolled back mid-resubmission
        Apply(gtid, t->state,
              status.ok() ? AgentInput::kResubmitDone
                          : AgentInput::kResubmitFailed,
              [&] {
                if (status.ok()) {
                  ++t->resubmit_next_cmd;
                  RunNextResubmitCommand(*t);
                  return;
                }
                // This resubmission attempt died (lock timeout or another
                // injected failure). Back off and start a fresh attempt.
                ++metrics_->resubmission_failures;
                if (ltm_->IsActive(t->ltm_handle)) ltm_->Abort(t->ltm_handle);
                t->retry_timer = loop_->ScheduleAfter(
                    kResubmitRetryInterval, [this, gtid]() {
                      AgentTxn* t2 = FindTxn(gtid);
                      assert(t2 != nullptr);  // Enter cancels it on exit
                      Apply(gtid, t2->state, AgentInput::kRetryTimer,
                            [&] { StartResubmission(*t2); });
                      DrainCommitHead();
                    });
              });
        DrainCommitHead();
      });
}

void TwoPCAgent::OnResubmissionComplete(AgentTxn& txn) {
  Enter(txn, Decided(txn.state) ? AgentState::kCommitPending
                                : AgentState::kPrepared);
  txn.resubmit_attempts = 0;
  txn.last_completion = loop_->Now();
  Trace(EventKind::kResubmitDone, txn.gtid, txn.resubmission,
        [](trace::Event&) {});
  // "A new interval is always initiated after the resubmission of all the
  // commands is complete."
  certifier_->table().Restart(txn.gtid, loop_->Now());
  // The resubmitted decomposition may touch different rows: extend the
  // bound-data set.
  if (config_.bind_bound_data) BindAccessedItems(txn);
  if (txn.state == AgentState::kCommitPending) TryCommit(txn);
}

// --- commit certification (Appendix C) ---------------------------------------

void TwoPCAgent::OnDecision(SiteId from, const DecisionMsg& msg,
                            const Lookup& l) {
  if (const AgentOutcome::Late* late = l.late) {
    // A duplicate decision for a finished subtransaction: re-ack, as the
    // branches below do. A COMMIT for an aborted one is ignored.
    if (msg.commit && !late->committed) return;
    if (msg.commit == late->committed) ++metrics_->dup_msgs_absorbed;
    network_->Send(config_.site, from,
                   Message{AckMsg{msg.gtid, msg.commit, late->acting_for}});
    return;
  }
  if (l.txn == nullptr) {
    // Rollback of a transaction this incarnation never held: ack.
    network_->Send(config_.site, from, Message{AckMsg{msg.gtid, msg.commit}});
    return;
  }
  AgentTxn* txn = l.txn;
  if (!msg.commit) {
    Rollback(*txn);
    return;
  }
  if (txn->state == AgentState::kActive) return;
  if (Decided(txn->state)) ++metrics_->dup_msgs_absorbed;
  // The decision arrived: stop probing for it.
  Enter(*txn, Resubmitting(txn->state) ? AgentState::kCommitResubmitting
                                       : AgentState::kCommitPending);
  if (msg.csn >= 0) {
    // Decision-time CSN: stamp the prepared entry so commit certification
    // can order this subtransaction against co-prepared peers. The stamp
    // can move the head of the commit order, which may be this
    // subtransaction itself.
    txn->csn = msg.csn;
    certifier_->OnCommitDecision(txn->gtid, msg.csn);
    DrainCommitHead();
    txn = FindTxn(msg.gtid);
    if (txn == nullptr) return;
  }
  // A resubmission in progress commits when it completes.
  if (txn->state == AgentState::kCommitPending) TryCommit(*txn);
}

void TwoPCAgent::TryCommit(AgentTxn& txn) {
  // Commit certification: the scheme's ordering rule — SN: all other
  // prepared subtransactions must have a bigger serial number; CSN: no
  // co-prepared peer may hold a smaller (or still-undecided) CSN.
  // Otherwise wait: DrainCommitHead commits this subtransaction once it
  // heads the commit order.
  std::vector<TxnId> waiting_on;
  if (!certifier_->CertifyCommit(
          txn.gtid, Traced(txn.gtid) ? &waiting_on : nullptr)) {
    ++metrics_->commit_cert_retries;
    Trace(EventKind::kCommitRetry, txn.gtid, txn.resubmission,
          [&](trace::Event& e) {
            e.sn = txn.sn;
            e.related = std::move(waiting_on);
          });
    return;
  }

  if (!ltm_->IsActive(txn.ltm_handle)) {
    // Unilaterally aborted in this very instant: the LTM delivers its UAN
    // as a zero-delay event, and this COMMIT ran first. Resubmit now, then
    // commit (TW guarantees eventual success); the UAN then names a
    // superseded handle and is dropped.
    StartResubmission(txn);
    return;
  }

  // Write the commit record to the Agent log, then commit locally.
  log_.ForceAppend(LogRecord{.kind = LogRecordKind::kCommit,
                             .gtid = txn.gtid,
                             .csn = txn.csn});
  // Active just above, and not resubmitting: no command is in
  // flight, so the commit cannot fail.
  [[maybe_unused]] const Status status = ltm_->Commit(txn.ltm_handle);
  assert(status.ok());
  // Fencing tripwire: committing a row whose shard now belongs to another
  // (unwedged) owner would install a write invisible at the new owner. The
  // fence + drain + handoff machinery must make this impossible; the E19
  // sweep gates on the counter staying zero.
  if (directory_ != nullptr) {
    const shard::ShardMap& map = directory_->Current();
    for (const ItemId& item : txn.bound_items) {
      const shard::ShardEntry& entry = map.shards[map.ShardOf(item.key)];
      if (entry.owner != config_.site && !entry.wedged) {
        ++metrics_->commits_stale_epoch;
        break;
      }
    }
  }
  UnbindAll(txn);
  certifier_->OnCommitted(txn.gtid, txn.sn);
  Trace(EventKind::kLocalCommit, txn.gtid, txn.resubmission,
        [&](trace::Event& e) {
          e.sn = txn.sn;
          if (txn.csn >= 0) e.value = txn.csn;
        });
  log_.Append(LogRecord{.kind = LogRecordKind::kComplete, .gtid = txn.gtid});
  network_->Send(config_.site, txn.coordinator,
                 Message{AckMsg{txn.gtid, /*commit=*/true, txn.acting_for}});
  Retire(txn, AgentState::kCommitted);
}

void TwoPCAgent::DrainCommitHead() {
  for (;;) {
    const TxnId head = certifier_->CommitHead();
    AgentTxn* txn = FindTxn(head);
    if (txn == nullptr || txn->state != AgentState::kCommitPending) return;
    Apply(head, txn->state, AgentInput::kHead, [&] { TryCommit(*txn); });
    // Still held: the commit found the work unilaterally aborted and
    // resubmits it; the resubmission's completion commits it.
    if (FindTxn(head) != nullptr) return;
  }
}

void TwoPCAgent::Rollback(AgentTxn& txn) {
  if (ltm_->IsActive(txn.ltm_handle)) ltm_->Abort(txn.ltm_handle);
  UnbindAll(txn);
  certifier_->OnRemoved(txn.gtid);
  Trace(EventKind::kLocalAbort, txn.gtid, txn.resubmission, MarkFailed);
  log_.Append(LogRecord{.kind = LogRecordKind::kAbort, .gtid = txn.gtid});
  network_->Send(config_.site, txn.coordinator,
                 Message{AckMsg{txn.gtid, /*commit=*/false, txn.acting_for}});
  Retire(txn, AgentState::kRolledBack);
}

// --- short-commit 1PC (single-site fast path) --------------------------------

void TwoPCAgent::OnOnePhaseCommit(SiteId from, const OnePhaseCommitMsg& msg,
                                  const Lookup& l) {
  if (l.txn == nullptr) {
    // A retransmission after the subtransaction finished, or after a crash
    // wiped the volatile state. The log is the truth: a committed 1PC
    // transaction left commit + completion records (retired ones answer
    // from their outcome entry); anything else is presumed abort.
    const bool committed =
        log_.HasCommit(msg.gtid) && log_.HasComplete(msg.gtid);
    network_->Send(config_.site, from, Message{AckMsg{msg.gtid, committed}});
    return;
  }
  // Only the coordinator of a single-site transaction sends a 1PC-COMMIT,
  // and never a PREPARE; the fused handler below forces the prepare and
  // commit records and commits in one event (the invalid serial number
  // never waits), and stable storage keeps every record. So a 1PC
  // subtransaction is never prepared when a 1PC-COMMIT arrives, not even
  // after a crash: it is active here (the transition table holds no other
  // pair), or retired above.
  AgentTxn& txn = *l.txn;
  txn.coordinator = from;
  if (!ltm_->IsActive(txn.ltm_handle)) {
    // Unilaterally aborted while still active: with no prepare record there
    // is nothing to resubmit for — the agent is the commit point here and
    // decides abort, like a refused vote plus an immediate rollback.
    ltm_->recorder()->RecordGlobalAbort(txn.gtid, config_.site);
    Rollback(txn);
    return;
  }
  // Fuse prepare + commit: a momentary prepared state with the invalid
  // serial number, which sorts below every real SN — commit certification
  // passes immediately and the committed high-water mark stays untouched
  // (a single-site transaction constrains no global order).
  log_.ForceAppend(LogRecord{.kind = LogRecordKind::kPrepare,
                             .gtid = txn.gtid,
                             .sn = SerialNumber{}});
  certifier_->OnPrepared(txn.gtid,
                         AliveInterval{txn.last_completion, loop_->Now()},
                         SerialNumber{});
  Enter(txn, AgentState::kCommitPending);
  txn.sn = SerialNumber{};
  ltm_->recorder()->RecordPrepare(SubTxnId{txn.gtid, txn.resubmission},
                                  config_.site);
  Trace(EventKind::kShortCommit, txn.gtid, txn.resubmission,
        [](trace::Event& e) { e.detail = "1pc"; });
  // The agent is the commit point: record the global decision *before* the
  // local commit, preserving the C_k-before-local-commit order invariant.
  ltm_->recorder()->RecordGlobalCommit(txn.gtid, config_.site);
  ++metrics_->short_commits_1pc;
  // TryCommit reuses the full 2PC tail: force-kCommit, local commit, the
  // COMMIT-ACK, and resubmission if the LDBS kills the work mid-commit.
  TryCommit(txn);
}

// --- DLU bound data ----------------------------------------------------------

void TwoPCAgent::BindAccessedItems(AgentTxn& txn) {
  const ltm::LocalTxn* local = ltm_->Find(txn.ltm_handle);
  if (local == nullptr) return;
  std::vector<ItemId>& bound = txn.bound_items;
  std::vector<ItemId> fresh;
  for (const std::set<ItemId>* set : {&local->read_set, &local->write_set}) {
    for (const ItemId& item : *set) {
      auto it = std::lower_bound(bound.begin(), bound.end(), item);
      if (it != bound.end() && *it == item) continue;
      bound.insert(it, item);
      fresh.push_back(item);
    }
  }
  ltm_->BindItems(fresh);
}

void TwoPCAgent::UnbindAll(AgentTxn& txn) {
  if (txn.bound_items.empty()) return;
  ltm_->UnbindItems(txn.bound_items);
  txn.bound_items.clear();
}

// --- site crash recovery -------------------------------------------------------

void TwoPCAgent::Crash() {
  for (auto& [gtid, txn] : txns_) Enter(txn, AgentState::kUnknown);
  txns_.clear();
  ++incarnation_;  // invalidates every retired entry's late answers
  certifier_->Crash();
}

void TwoPCAgent::Recover() {
  // Restore the scheme's committed ordering state: the SN high-water mark
  // of completed transactions, which the log keeps as a checkpoint.
  const AgentLog::HighWater committed = log_.CommittedHighWater();
  certifier_->OnRecoveredCommitted(committed.gtid, committed.sn);
  // A live subtransaction that is not in doubt lost its work to the crash
  // (it was active, or refused before it prepared): it retires.
  const std::vector<TxnId> in_doubt = log_.InDoubt();
  std::vector<TxnId> lost;
  log_.ForEachTxn([&](const TxnId& gtid) {
    if (!std::binary_search(in_doubt.begin(), in_doubt.end(), gtid)) {
      lost.push_back(gtid);
    }
  });
  for (const TxnId& gtid : lost) {
    Apply(gtid, StateOf(gtid), AgentInput::kReenter,
          [&] { log_.Retire(gtid, AgentOutcome::Late{}); });
  }
  // Rebuild every in-doubt subtransaction; a logged commit record carries
  // the decision (and its CSN, if one traveled).
  for (const TxnId& gtid : in_doubt) {
    Apply(gtid, StateOf(gtid), AgentInput::kReenter, [&] {
      Reenter(gtid, log_.HasCommit(gtid), log_.CommitCsnOf(gtid));
    });
    DrainCommitHead();
  }
}

void TwoPCAgent::Reenter(const TxnId& gtid, bool commit_pending,
                         int64_t csn) {
  const auto prepare = log_.PrepareRecordOf(gtid);
  assert(prepare.has_value());
  AgentTxn& txn = txns_[gtid];
  txn.gtid = gtid;
  txn.coordinator = log_.CoordinatorOf(gtid);
  txn.state = commit_pending ? AgentState::kCommitPending
                             : AgentState::kPrepared;
  txn.resubmission = log_.ResubmissionsOf(gtid);
  txn.sn = prepare->sn;
  txn.acting_for = prepare->peer;
  txn.last_completion = loop_->Now();
  certifier_->OnPrepared(gtid, AliveInterval{loop_->Now(), loop_->Now()},
                         txn.sn);
  if (commit_pending) {
    // Re-stamp the prepared entry with the decision before resubmitting.
    txn.csn = csn;
    certifier_->OnCommitDecision(gtid, csn);
  }
  StartResubmission(txn);
  // Undecided, it cannot have retired: probe the coordinator.
  if (!commit_pending) SendInquiry(txn);
}

void TwoPCAgent::Retire(AgentTxn& txn, AgentState to, bool read_only) {
  Enter(txn, to);
  log_.Retire(txn.gtid,
              AgentOutcome::Late{
                  .incarnation = incarnation_,
                  .committed = to == AgentState::kCommitted,
                  .read_only = read_only,
                  .acting_for = txn.acting_for,
                  .dml_done_index = txn.dml_done_index,
                  .dml_inflight_index = txn.dml_inflight_index,
                  .dml_last_code = txn.dml_last_status.code()});
  const TxnId gtid = txn.gtid;
  txns_.erase(gtid);
}

// --- a silent coordinator ----------------------------------------------------

void TwoPCAgent::SendInquiry(AgentTxn& txn) {
  ++txn.inquiry_attempts;
  ++metrics_->inquiries_sent;
  Trace(EventKind::kInquirySend, txn.gtid, -1, [&](trace::Event& e) {
    e.peer = txn.coordinator;
    e.value = txn.inquiry_attempts;
  });
  network_->Send(config_.site, txn.coordinator,
                 Message{InquiryMsg{txn.gtid}});
  // Paxos Commit: enough unanswered inquiries and the agent presumes the
  // coordinator dead, escalating to the consensus module's resolution round
  // (leader election) instead of probing a corpse forever.
  if (escalate_hook_ && txn.inquiry_attempts >= kInquiryEscalateAfter) {
    escalate_hook_(txn.gtid, txn.coordinator,
                   txn.inquiry_attempts - kInquiryEscalateAfter);
  }
  // Retry with capped exponential backoff until a decision arrives: the
  // coordinator stays silent while still collecting votes, the inquiry or
  // its reply may be lost, or the coordinator may itself be down — the
  // prepared agent must keep probing (the blocking window).
  ArmCoordinatorTimer(txn, sim::CappedBackoff(config_.inquiry_retry_initial,
                                              config_.inquiry_retry_max,
                                              txn.inquiry_attempts - 1));
}

void TwoPCAgent::ArmCoordinatorTimer(AgentTxn& txn, sim::Duration delay) {
  loop_->Cancel(txn.coordinator_timer);
  const TxnId gtid = txn.gtid;
  txn.coordinator_timer = loop_->ScheduleAfter(delay, [this, gtid]() {
    AgentTxn* txn = FindTxn(gtid);
    assert(txn != nullptr);  // Enter cancels it on exit
    AgentTxn& t = *txn;
    if (t.state != AgentState::kActive) {
      Apply(gtid, t.state, AgentInput::kInquiryTimer, [&] { SendInquiry(t); });
      return;
    }
    // Orphan detection. Only an *active* subtransaction may be abandoned:
    // before the READY vote the LDBS can unilaterally abort at any time
    // (execution autonomy). A silent coordinator usually means it crashed
    // before reaching PREPARE; releasing the orphan's locks keeps the rest
    // of the workload moving.
    Apply(gtid, t.state, AgentInput::kOrphanTimer, [&] {
      if (ltm_->IsActive(t.ltm_handle)) {
        ltm_->InjectUnilateralAbort(t.ltm_handle);
      }
    });
  });
}

void TwoPCAgent::OnUnilateralAbort(const SubTxnId& id,
                                   LtmTxnHandle handle) {
  AgentTxn* txn = FindTxn(id.txn);
  if (txn == nullptr || handle != txn->ltm_handle ||
      id.resubmission != txn->resubmission) {
    return;  // not the current local subtransaction of a held one
  }
  Apply(id.txn, txn->state, AgentInput::kUan, [&] {
    // An active subtransaction's death surfaces at its next command, its
    // vote or its 1PC commit; a resubmission attempt's in its command
    // callback, which retries.
    if (txn->state != AgentState::kPrepared &&
        txn->state != AgentState::kCommitPending) {
      return;
    }
    // Appendix A's alive check, run at the instant of the abort: the alive
    // interval ends here, and the commands are resubmitted from the Agent
    // log. With none to run, the resubmission completes at once.
    certifier_->table().ExtendEnd(id.txn, loop_->Now());
    StartResubmission(*txn);
  });
  DrainCommitHead();
}

// --- shard handoff -----------------------------------------------------------

bool TwoPCAgent::InFlightOnShards(const shard::ShardMap& map,
                                  const std::vector<int>& shards) const {
  for (const auto& [gtid, txn] : txns_) {
    if (ReachOf(log_, gtid, map, shards).touches) return true;
  }
  return false;
}

bool TwoPCAgent::CanMigrateResidue(const shard::ShardMap& map,
                                   const std::vector<int>& shards,
                                   const TwoPCAgent& dest) const {
  // Actives can always be force-aborted (execution autonomy). A *prepared*
  // subtransaction can only relocate whole: if any of its commands touch a
  // shard that is staying, its resubmission would have to split across two
  // sites — keep draining instead. So too while `dest` has logged its own
  // subtransaction of the gtid: adopting would resubmit that one as well.
  for (const auto& [gtid, txn] : txns_) {
    if (txn.state == AgentState::kActive) continue;
    const ShardReach reach = ReachOf(log_, gtid, map, shards);
    if (reach.touches && (!reach.inside || dest.log_.Knows(gtid))) {
      return false;
    }
  }
  return true;
}

std::vector<MigratedTxn> TwoPCAgent::ExtractResidueForShards(
    const shard::ShardMap& map, const std::vector<int>& shards, SiteId dest) {
  // Deterministic extraction order: txns_ is an unordered_map.
  std::vector<TxnId> targets;
  for (const auto& [gtid, txn] : txns_) {
    if (ReachOf(log_, gtid, map, shards).touches) targets.push_back(gtid);
  }
  std::sort(targets.begin(), targets.end());
  std::vector<MigratedTxn> out;
  for (const TxnId& gtid : targets) {
    AgentTxn& txn = *FindTxn(gtid);
    Apply(gtid, txn.state, AgentInput::kExtract, [&] {
      if (txn.state == AgentState::kActive) {
        // Force-abort: before the READY vote the LDBS may kill active work
        // at any time; the coordinator sees failing DML and rolls back
        // globally.
        if (ltm_->IsActive(txn.ltm_handle)) {
          ltm_->InjectUnilateralAbort(txn.ltm_handle);
          ++metrics_->reconfig_forced_aborts;
        }
        return;
      }
      assert(ReachOf(log_, gtid, map, shards).inside);
      const MigratedTxn& m = out.emplace_back(MigratedTxn{
          .gtid = gtid,
          .coordinator = txn.coordinator,
          .origin = config_.site,
          .resubmission = txn.resubmission,
          .sn = txn.sn,
          .commit_pending = Decided(txn.state),
          .csn = txn.csn,
          .commands = log_.CommandsOf(gtid)});
      Enter(txn, AgentState::kMigrated);
      UnbindAll(txn);
      const LtmTxnHandle handle = txn.ltm_handle;
      txns_.erase(gtid);  // before the abort: mutes the UAN listener
      // Undo the residue's local work (the handoff copies only committed
      // rows); the adopting site re-executes the commands from its own log.
      if (ltm_->IsActive(handle)) ltm_->InjectUnilateralAbort(handle);
      certifier_->OnRemoved(gtid);
      ltm_->recorder()->RecordMigrateOut(SubTxnId{gtid, m.resubmission},
                                         config_.site);
      // Force the migration record: after a crash the residue must not be
      // resurrected here as in-doubt — it lives at `dest` now.
      log_.ForceAppend(LogRecord{.kind = LogRecordKind::kMigrated,
                                 .gtid = gtid,
                                 .peer = dest});
      // Retiring keeps the redirect: Handle answers every later message
      // for the gtid with the adopting site.
      log_.Retire(gtid, AgentOutcome::Late{});
    });
  }
  // A subtransaction staying here may have waited on extracted residue.
  DrainCommitHead();
  return out;
}

void TwoPCAgent::AdoptMigrated(const MigratedTxn& m) {
  const AgentState from = StateOf(m.gtid);
  // Replay the residue into this agent's log so later crash recovery and
  // resubmission treat the adopted subtransaction exactly like a native one
  // (kResubmission records keep ResubmissionsOf in step with the carried
  // incarnation index; the prepare record names the origin it acts for).
  log_.Append(LogRecord{.kind = LogRecordKind::kBegin,
                        .gtid = m.gtid,
                        .peer = m.coordinator});
  for (const db::Command& cmd : m.commands) {
    log_.Append(LogRecord{.kind = LogRecordKind::kCommand,
                          .gtid = m.gtid,
                          .command = cmd});
  }
  log_.ForceAppend(LogRecord{.kind = LogRecordKind::kPrepare,
                             .gtid = m.gtid,
                             .peer = m.origin,
                             .sn = m.sn});
  for (int i = 0; i < m.resubmission; ++i) {
    log_.Append(LogRecord{.kind = LogRecordKind::kResubmission,
                          .gtid = m.gtid});
  }
  ++metrics_->reconfig_residue_adopted;
  // Same re-entry as crash recovery: resubmit the commands against the
  // copied rows, then finish via the carried decision or an inquiry.
  Apply(m.gtid, from, AgentInput::kAdopt,
        [&] { Reenter(m.gtid, m.commit_pending, m.csn); });
  DrainCommitHead();
}

}  // namespace hermes::core
