#include "core/agent.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "common/str.h"
#include "sim/backoff.h"

namespace hermes::core {

namespace {

// Backoff before restarting a failed resubmission attempt.
constexpr sim::Duration kResubmitRetryInterval = 5 * sim::kMillisecond;
// Paxos Commit (the only protocol that installs an escalate hook): from
// this many unanswered inquiries on, the agent escalates to leader election.
constexpr int kInquiryEscalateAfter = 2;

bool ShardInSet(int shard, const std::vector<int>& shards) {
  return std::find(shards.begin(), shards.end(), shard) != shards.end();
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

TwoPCAgent::~TwoPCAgent() {
  for (auto& [gtid, txn] : txns_) CancelTimers(txn);
}

TwoPCAgent::AgentTxn* TwoPCAgent::FindTxn(const TxnId& gtid) {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? nullptr : &it->second;
}

LtmTxnHandle TwoPCAgent::HandleOf(const TxnId& gtid) const {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? kInvalidLtmTxn : it->second.ltm_handle;
}

void TwoPCAgent::Handle(SiteId from, const Message& msg) {
  // Epoch fencing and migrated-residue redirection. Every coordinator-bound
  // kind carries the sender's shard-map epoch view: a sender below this
  // agent's epoch is refused (it must re-fetch the map and re-drive), and
  // any message for a subtransaction whose residue left in a shard handoff
  // is answered with the adopting site instead of being processed here.
  // Epoch 0 marks an unfenced sender (sharding disabled) and always passes.
  const TxnId* gtid = nullptr;
  int64_t epoch = 0;
  const char* what = nullptr;
  if (const auto* m = std::get_if<BeginMsg>(&msg)) {
    gtid = &m->gtid, epoch = m->epoch, what = "begin";
  } else if (const auto* m = std::get_if<DmlRequestMsg>(&msg)) {
    gtid = &m->gtid, epoch = m->epoch, what = "dml";
  } else if (const auto* m = std::get_if<PrepareMsg>(&msg)) {
    gtid = &m->gtid, epoch = m->epoch, what = "prepare";
  } else if (const auto* m = std::get_if<DecisionMsg>(&msg)) {
    gtid = &m->gtid, epoch = m->epoch, what = "decision";
  } else if (const auto* m = std::get_if<OnePhaseCommitMsg>(&msg)) {
    gtid = &m->gtid, epoch = m->epoch, what = "1pc";
  }
  if (gtid != nullptr) {
    // Residue retires the moment it migrates, so only a retired gtid can
    // have moved; the outcome entry survives crashes.
    const AgentOutcome* outcome = log_.OutcomeOf(*gtid);
    if (outcome != nullptr && outcome->migrated_to != kInvalidSite) {
      RefuseEpoch(from, *gtid, what, outcome->migrated_to);
      return;
    }
    if (directory_ != nullptr && epoch > 0 && epoch < directory_->epoch()) {
      RefuseEpoch(from, *gtid, what, kInvalidSite);
      return;
    }
  }
  if (const auto* m = std::get_if<BeginMsg>(&msg)) {
    OnBegin(from, *m);
  } else if (const auto* m = std::get_if<DmlRequestMsg>(&msg)) {
    OnDmlRequest(from, *m);
  } else if (const auto* m = std::get_if<PrepareMsg>(&msg)) {
    OnPrepare(from, *m);
  } else if (const auto* m = std::get_if<DecisionMsg>(&msg)) {
    OnDecision(from, *m);
  } else if (const auto* m = std::get_if<OnePhaseCommitMsg>(&msg)) {
    OnOnePhaseCommit(from, *m);
  }
}

void TwoPCAgent::RefuseEpoch(SiteId from, const TxnId& gtid, const char* what,
                             SiteId moved_to) {
  const int64_t current = directory_ != nullptr ? directory_->epoch() : 0;
  ++metrics_->epoch_refusals;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kEpochRefused;
    e.txn = gtid;
    e.site = config_.site;
    e.peer = from;
    e.value = current;
    e.ok = false;
    e.detail = what;
    tracer_->Record(std::move(e));
  }
  network_->Send(config_.site, from,
                 Message{EpochRefusedMsg{gtid, current, moved_to}});
}

// --- active state ----------------------------------------------------------

void TwoPCAgent::OnBegin(SiteId from, const BeginMsg& msg) {
  if (FindTxn(msg.gtid) != nullptr || FindRetired(msg.gtid) != nullptr) {
    // Duplicate or retransmitted BEGIN: the subtransaction already exists
    // or existed, nothing to (re)open and nothing to acknowledge.
    ++metrics_->dup_msgs_absorbed;
    return;
  }
  if (log_.Knows(msg.gtid)) {
    // The log knows this transaction but the volatile state does not: a
    // crash wiped it (and recovery did not consider it in-doubt, so its
    // pre-crash work was rolled back and it retired). Re-opening it now
    // would silently drop the commands executed before the crash, so
    // refuse all further work: it stands as aborted in this incarnation,
    // the coordinator's DML requests get "no active subtransaction" and
    // the global transaction rolls back.
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
  ArmOrphanTimer(txn);
}

void TwoPCAgent::OnDmlRequest(SiteId from, const DmlRequestMsg& msg) {
  AgentTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) {
    if (const AgentOutcome::Late* late = FindRetired(msg.gtid)) {
      AnswerLateDml(from, msg, *late);
      return;
    }
    // The BEGIN was lost (or this is a stray duplicate for a transaction
    // wiped by a crash): stay silent; the coordinator times out and
    // retransmits BEGIN + DML, or rolls back after enough attempts.
    return;
  }
  ArmOrphanTimer(*txn);
  if (msg.cmd_index == txn->dml_inflight_index) {
    // Retransmission of the command currently executing (e.g. a slow lock
    // wait outlasted the coordinator's timeout): the in-flight execution
    // will answer.
    ++metrics_->dup_msgs_absorbed;
    return;
  }
  if (msg.cmd_index <= txn->dml_done_index) {
    // Already executed: re-send the cached response instead of running the
    // command a second time (exactly-once execution, at-least-once reply).
    ++metrics_->dup_msgs_absorbed;
    if (msg.cmd_index == txn->dml_done_index) {
      network_->Send(config_.site, from,
                     Message{DmlResponseMsg{msg.gtid, msg.cmd_index,
                                            txn->dml_last_status,
                                            txn->dml_last_result}});
    }
    return;
  }
  if (txn->phase != Phase::kActive) {
    network_->Send(config_.site, from,
                   Message{DmlResponseMsg{
                       msg.gtid, msg.cmd_index,
                       Status::Aborted("no active subtransaction"),
                       db::CmdResult{}}});
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
        network_->Send(
            config_.site, from,
            Message{DmlResponseMsg{
                msg.gtid, msg.cmd_index,
                Status::Aborted("key's shard moved to another site"),
                db::CmdResult{}}});
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
    network_->Send(config_.site, from,
                   Message{DmlResponseMsg{
                       msg.gtid, msg.cmd_index,
                       Status::Aborted("subtransaction unilaterally aborted"),
                       db::CmdResult{}}});
    return;
  }
  const TxnId gtid = msg.gtid;
  const int32_t index = msg.cmd_index;
  txn->dml_inflight_index = index;
  ltm_->Execute(txn->ltm_handle, msg.cmd,
                [this, gtid, index, from](const Status& status,
                                          const db::CmdResult& result) {
                  AgentTxn* t = FindTxn(gtid);
                  if (t != nullptr) {
                    if (status.ok()) t->last_completion = loop_->Now();
                    if (t->dml_inflight_index == index) {
                      t->dml_inflight_index = -1;
                      t->dml_done_index = index;
                      t->dml_last_status = status;
                      t->dml_last_result = result;
                    }
                  } else if (AgentOutcome::Late* late = FindRetired(gtid);
                             late != nullptr &&
                             late->dml_inflight_index == index) {
                    // Finished while the command ran (a rollback).
                    late->dml_inflight_index = -1;
                    late->dml_done_index = index;
                    late->dml_last_code = status.code();
                  }
                  network_->Send(config_.site, from,
                                 Message{DmlResponseMsg{gtid, index, status,
                                                        result}});
                });
}

// A DML request for a retired subtransaction gets what a finished one got:
// the duplicate checks, then "no active subtransaction".
void TwoPCAgent::AnswerLateDml(SiteId from, const DmlRequestMsg& msg,
                               const AgentOutcome::Late& late) {
  if (msg.cmd_index == late.dml_inflight_index) {
    ++metrics_->dup_msgs_absorbed;
    return;
  }
  if (msg.cmd_index <= late.dml_done_index) {
    ++metrics_->dup_msgs_absorbed;
    if (msg.cmd_index == late.dml_done_index) {
      network_->Send(config_.site, from,
                     Message{DmlResponseMsg{msg.gtid, msg.cmd_index,
                                            Status(late.dml_last_code, ""),
                                            db::CmdResult{}}});
    }
    return;
  }
  network_->Send(config_.site, from,
                 Message{DmlResponseMsg{
                     msg.gtid, msg.cmd_index,
                     Status::Aborted("no active subtransaction"),
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

void TwoPCAgent::Refuse(AgentTxn& txn, const Status& reason) {
  // Only an active subtransaction is refused: it never entered the
  // prepared set, so the certifier has nothing to drop.
  if (ltm_->IsActive(txn.ltm_handle)) ltm_->Abort(txn.ltm_handle);
  SendVote(txn.gtid, txn.coordinator, /*ready=*/false, reason,
           /*read_only=*/false, txn.acting_for);
  Retire(txn, /*committed=*/false);
}

void TwoPCAgent::OnPrepare(SiteId from, const PrepareMsg& msg) {
  ++metrics_->prepares_received;
  AgentTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) {
    if (const AgentOutcome::Late* late = FindRetired(msg.gtid)) {
      // Retransmitted PREPARE after the subtransaction finished: re-vote
      // as below.
      ++metrics_->dup_msgs_absorbed;
      if (late->committed) {
        SendVote(msg.gtid, from, /*ready=*/true, Status::Ok(),
                 late->read_only, late->acting_for);
      } else {
        SendVote(msg.gtid, from, /*ready=*/false,
                 Status::Aborted("previously refused"), /*read_only=*/false,
                 late->acting_for);
      }
      return;
    }
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kCertRefuse;
      e.txn = msg.gtid;
      e.site = config_.site;
      e.sn = msg.sn;
      e.refuse = trace::RefuseKind::kUnknownTxn;
      e.ok = false;
      tracer_->Record(std::move(e));
    }
    SendVote(msg.gtid, from, /*ready=*/false,
             Status::NotFound("unknown transaction"));
    return;
  }
  if (txn->phase == Phase::kPrepared) {
    // Retransmitted PREPARE (the READY vote was lost): re-vote without
    // re-running certification — the prepare record is already forced and
    // the alive interval already registered.
    ++metrics_->dup_msgs_absorbed;
    SendVote(msg.gtid, from, /*ready=*/true, Status::Ok(),
             /*read_only=*/false, txn->acting_for);
    return;
  }
  txn->coordinator = from;
  txn->sn = msg.sn;
  // Past this point the subtransaction is voting: orphan abandonment is no
  // longer safe (after READY only the coordinator may decide).
  if (txn->orphan_timer != sim::kInvalidEvent) {
    loop_->Cancel(txn->orphan_timer);
    txn->orphan_timer = sim::kInvalidEvent;
  }
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kPrepareRecv;
    e.txn = msg.gtid;
    e.site = config_.site;
    e.peer = from;
    e.resubmission = txn->resubmission;
    e.sn = msg.sn;
    tracer_->Record(std::move(e));
  }

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
    if (other != nullptr && !other->resubmitting &&
        ltm_->IsActive(other->ltm_handle)) {
      table.ExtendEnd(entry_gtid, loop_->Now());
    }
  }

  // Prepare certification behind the certifier seam: the scheme's ordering
  // admission check (the SN extension) plus the basic alive-interval test,
  // with trace detail strings built only when tracing. Only an active
  // subtransaction gets here, so this is its one certification: a
  // resubmission restarts its alive interval without being re-certified.
  const AliveInterval candidate{txn->last_completion, loop_->Now()};
  cert::PrepareOutcome verdict = certifier_->CertifyPrepare(
      msg.sn, candidate, /*want_detail=*/tracer_ != nullptr);
  if (!verdict.admit) {
    if (verdict.refuse == trace::RefuseKind::kExtension) {
      ++metrics_->refuse_extension;
    } else {
      ++metrics_->refuse_interval;
    }
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kCertRefuse;
      e.txn = txn->gtid;
      e.site = config_.site;
      e.resubmission = txn->resubmission;
      e.sn = msg.sn;
      e.refuse = verdict.refuse;
      e.ok = false;
      e.detail = std::move(verdict.detail);
      e.related = std::move(verdict.related);
      tracer_->Record(std::move(e));
    }
    Refuse(*txn, verdict.reason);
    return;
  }

  if (!ltm_->IsActive(txn->ltm_handle)) {
    ++metrics_->refuse_dead;
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kCertRefuse;
      e.txn = txn->gtid;
      e.site = config_.site;
      e.resubmission = txn->resubmission;
      e.sn = msg.sn;
      e.refuse = trace::RefuseKind::kDead;
      e.ok = false;
      e.detail = "unilaterally aborted before prepare";
      tracer_->Record(std::move(e));
    }
    SendVote(txn->gtid, from, /*ready=*/false,
             Status::Aborted("unilaterally aborted before prepare"),
             /*read_only=*/false, txn->acting_for);
    Retire(*txn, /*committed=*/false);
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
    const ltm::LocalTxn* local = ltm_->Find(txn->ltm_handle);
    if (local != nullptr && local->write_set.empty()) {
      if (tracer_ != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kCertReady;
        e.txn = txn->gtid;
        e.site = config_.site;
        e.resubmission = txn->resubmission;
        e.sn = msg.sn;
        tracer_->Record(std::move(e));
      }
      ltm_->recorder()->RecordPrepare(SubTxnId{txn->gtid, txn->resubmission},
                                      config_.site);
      // The dead branch above returned, and the coordinator sends PREPARE
      // only after every DML answered: the handle is active with no command
      // in flight, so the commit cannot fail.
      [[maybe_unused]] const Status commit_status =
          ltm_->Commit(txn->ltm_handle);
      assert(commit_status.ok());
      ++metrics_->short_commits_readonly;
      if (tracer_ != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kShortCommit;
        e.txn = txn->gtid;
        e.site = config_.site;
        e.resubmission = txn->resubmission;
        e.detail = "readonly";
        tracer_->Record(std::move(e));
        trace::Event c;
        c.kind = trace::EventKind::kLocalCommit;
        c.txn = txn->gtid;
        c.site = config_.site;
        c.resubmission = txn->resubmission;
        c.sn = msg.sn;
        tracer_->Record(std::move(c));
      }
      // No forced prepare record: with no writes there is nothing to redo
      // and nothing in doubt — one less force-write is part of the win.
      log_.Append(
          LogRecord{.kind = LogRecordKind::kComplete, .gtid = txn->gtid});
      SendVote(txn->gtid, from, /*ready=*/true, Status::Ok(),
               /*read_only=*/true);
      Retire(*txn, /*committed=*/true, /*read_only=*/true);
      return;
    }
  }

  // Certification passed: force-write the prepare record, move to prepared.
  log_.ForceAppend(LogRecord{.kind = LogRecordKind::kPrepare,
                             .gtid = txn->gtid,
                             .sn = msg.sn});
  certifier_->OnPrepared(txn->gtid, candidate, msg.sn);
  txn->phase = Phase::kPrepared;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kCertReady;
    e.txn = txn->gtid;
    e.site = config_.site;
    e.resubmission = txn->resubmission;
    e.sn = msg.sn;
    tracer_->Record(std::move(e));
  }
  ltm_->recorder()->RecordPrepare(SubTxnId{txn->gtid, txn->resubmission},
                                  config_.site);
  if (config_.bind_bound_data) BindAccessedItems(*txn);
  SendVote(txn->gtid, txn->coordinator, /*ready=*/true, Status::Ok(),
           /*read_only=*/false, txn->acting_for);
  // Arm the decision wait: if no COMMIT/ROLLBACK arrives in time the agent
  // starts probing the coordinator — the 2PC blocking window made visible.
  if (config_.decision_inquiry_timeout > 0) {
    ArmInquiryTimer(*txn, config_.decision_inquiry_timeout);
  }
  if (!prepared_hooks_.empty()) {
    // Copy what the hooks need first: a hook may crash this site (fault
    // plans), wiping txns_ and invalidating `txn`.
    const TxnId gtid = txn->gtid;
    const LtmTxnHandle handle = txn->ltm_handle;
    for (size_t i = 0; i < prepared_hooks_.size(); ++i) {
      prepared_hooks_[i](gtid, handle);
    }
  }
}

// --- resubmission (Appendix A) ----------------------------------------------

void TwoPCAgent::StartResubmission(AgentTxn& txn) {
  assert(txn.phase == Phase::kPrepared);
  txn.resubmitting = true;
  ++txn.resubmit_attempts;
  ++metrics_->resubmissions;
  ++txn.resubmission;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kResubmitStart;
    e.txn = txn.gtid;
    e.site = config_.site;
    e.resubmission = txn.resubmission;
    e.value = txn.resubmit_attempts;
    tracer_->Record(std::move(e));
  }
  log_.Append(
      LogRecord{.kind = LogRecordKind::kResubmission, .gtid = txn.gtid});
  txn.resubmit_next_cmd = 0;
  txn.ltm_handle = ltm_->Begin(SubTxnId{txn.gtid, txn.resubmission});
  RunNextResubmitCommand(txn.gtid);
}

void TwoPCAgent::RunNextResubmitCommand(const TxnId& gtid) {
  AgentTxn* txn = FindTxn(gtid);
  if (txn == nullptr) return;  // rolled back mid-resubmission
  const std::vector<db::Command> commands = log_.CommandsOf(gtid);
  if (txn->resubmit_next_cmd >= commands.size()) {
    OnResubmissionComplete(*txn);
    return;
  }
  const db::Command cmd = commands[txn->resubmit_next_cmd];
  ltm_->Execute(
      txn->ltm_handle, cmd,
      [this, gtid](const Status& status, const db::CmdResult&) {
        AgentTxn* t = FindTxn(gtid);
        if (t == nullptr) return;
        if (status.ok()) {
          ++t->resubmit_next_cmd;
          RunNextResubmitCommand(gtid);
          return;
        }
        // This resubmission attempt died (lock timeout or another injected
        // failure). Back off and start a fresh attempt.
        ++metrics_->resubmission_failures;
        if (ltm_->IsActive(t->ltm_handle)) ltm_->Abort(t->ltm_handle);
        const TxnId id = gtid;
        t->resubmit_retry_timer = loop_->ScheduleAfter(
            kResubmitRetryInterval, [this, id]() {
              AgentTxn* t2 = FindTxn(id);
              if (t2 == nullptr) return;
              t2->resubmit_retry_timer = sim::kInvalidEvent;
              StartResubmission(*t2);
            });
      });
}

void TwoPCAgent::OnResubmissionComplete(AgentTxn& txn) {
  txn.resubmitting = false;
  txn.resubmit_attempts = 0;
  txn.last_completion = loop_->Now();
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kResubmitDone;
    e.txn = txn.gtid;
    e.site = config_.site;
    e.resubmission = txn.resubmission;
    tracer_->Record(std::move(e));
  }
  // "A new interval is always initiated after the resubmission of all the
  // commands is complete."
  certifier_->table().Restart(txn.gtid, loop_->Now());
  // The resubmitted decomposition may touch different rows: extend the
  // bound-data set.
  if (config_.bind_bound_data) BindAccessedItems(txn);
  if (txn.commit_pending) TryCommit(txn);
}

// --- commit certification (Appendix C) ---------------------------------------

void TwoPCAgent::OnDecision(SiteId from, const DecisionMsg& msg) {
  AgentTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) {
    if (const AgentOutcome::Late* late = FindRetired(msg.gtid)) {
      // A duplicate decision for a finished subtransaction: re-ack, as the
      // branches below do. A COMMIT for an aborted one is ignored.
      if (msg.commit && !late->committed) return;
      if (msg.commit == late->committed) ++metrics_->dup_msgs_absorbed;
      network_->Send(config_.site, from,
                     Message{AckMsg{msg.gtid, msg.commit, late->acting_for}});
      return;
    }
    // Rollback of a transaction this incarnation never held: ack.
    network_->Send(config_.site, from,
                   Message{AckMsg{msg.gtid, msg.commit}});
    return;
  }
  if (msg.commit) {
    if (txn->phase != Phase::kPrepared) return;
    if (txn->commit_pending) ++metrics_->dup_msgs_absorbed;
    txn->commit_pending = true;
    // The decision arrived: stop probing for it.
    if (txn->inquiry_timer != sim::kInvalidEvent) {
      loop_->Cancel(txn->inquiry_timer);
      txn->inquiry_timer = sim::kInvalidEvent;
    }
    if (msg.csn >= 0) {
      // Decision-time CSN: stamp the prepared entry so commit certification
      // can order this subtransaction against co-prepared peers. The stamp
      // can move the head of the commit order, which may be this
      // subtransaction itself.
      txn->csn = msg.csn;
      certifier_->OnCommitDecision(txn->gtid, msg.csn);
      CommitReadyHead();
      txn = FindTxn(msg.gtid);
      if (txn == nullptr) return;
    }
    TryCommit(*txn);
  } else {
    ProcessRollback(*txn);
  }
}

void TwoPCAgent::TryCommit(AgentTxn& txn) {
  if (txn.phase != Phase::kPrepared || !txn.commit_pending) return;
  if (txn.resubmitting) return;  // OnResubmissionComplete re-enters

  // Commit certification: the scheme's ordering rule — SN: all other
  // prepared subtransactions must have a bigger serial number; CSN: no
  // co-prepared peer may hold a smaller (or still-undecided) CSN.
  // Otherwise wait: CommitReadyHead commits this subtransaction once it
  // heads the commit order.
  std::vector<TxnId> waiting_on;
  if (!certifier_->CertifyCommit(txn.gtid,
                                 tracer_ != nullptr ? &waiting_on : nullptr)) {
    ++metrics_->commit_cert_retries;
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kCommitRetry;
      e.txn = txn.gtid;
      e.site = config_.site;
      e.resubmission = txn.resubmission;
      e.sn = txn.sn;
      e.related = std::move(waiting_on);
      tracer_->Record(std::move(e));
    }
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
  CompleteCommit(txn);
}

void TwoPCAgent::CompleteCommit(AgentTxn& txn) {
  txn.commit_pending = false;
  CancelTimers(txn);
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
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kLocalCommit;
    e.txn = txn.gtid;
    e.site = config_.site;
    e.resubmission = txn.resubmission;
    e.sn = txn.sn;
    if (txn.csn >= 0) e.value = txn.csn;
    tracer_->Record(std::move(e));
  }
  log_.Append(LogRecord{.kind = LogRecordKind::kComplete, .gtid = txn.gtid});
  network_->Send(config_.site, txn.coordinator,
                 Message{AckMsg{txn.gtid, /*commit=*/true, txn.acting_for}});
  Retire(txn, /*committed=*/true);
  CommitReadyHead();
}

void TwoPCAgent::CommitReadyHead() {
  // Called again from CompleteCommit inside the loop below: the running
  // loop re-reads the head, so the nested call has nothing to do.
  if (committing_head_) return;
  committing_head_ = true;
  for (;;) {
    const TxnId head = certifier_->CommitHead();
    AgentTxn* txn = FindTxn(head);
    if (txn == nullptr || !txn->commit_pending || txn->resubmitting) break;
    TryCommit(*txn);
    // Still held: the commit found the work unilaterally aborted and
    // resubmits it; OnResubmissionComplete retries.
    if (FindTxn(head) != nullptr) break;
  }
  committing_head_ = false;
}

void TwoPCAgent::ProcessRollback(AgentTxn& txn) {
  CancelTimers(txn);
  txn.resubmitting = false;
  txn.commit_pending = false;
  if (ltm_->IsActive(txn.ltm_handle)) ltm_->Abort(txn.ltm_handle);
  UnbindAll(txn);
  certifier_->OnRemoved(txn.gtid);
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kLocalAbort;
    e.txn = txn.gtid;
    e.site = config_.site;
    e.resubmission = txn.resubmission;
    e.ok = false;
    tracer_->Record(std::move(e));
  }
  log_.Append(LogRecord{.kind = LogRecordKind::kAbort, .gtid = txn.gtid});
  network_->Send(config_.site, txn.coordinator,
                 Message{AckMsg{txn.gtid, /*commit=*/false, txn.acting_for}});
  Retire(txn, /*committed=*/false);
  CommitReadyHead();
}

// --- short-commit 1PC (single-site fast path) --------------------------------

void TwoPCAgent::OnOnePhaseCommit(SiteId from, const OnePhaseCommitMsg& msg) {
  AgentTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) {
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
  // after a crash: it is active here, or retired above.
  assert(txn->phase == Phase::kActive);
  txn->coordinator = from;
  if (txn->orphan_timer != sim::kInvalidEvent) {
    loop_->Cancel(txn->orphan_timer);
    txn->orphan_timer = sim::kInvalidEvent;
  }
  if (!ltm_->IsActive(txn->ltm_handle)) {
    // Unilaterally aborted while still active: with no prepare record there
    // is nothing to resubmit for — the agent is the commit point here and
    // decides abort, like a refused vote plus an immediate rollback.
    UnbindAll(*txn);
    ltm_->recorder()->RecordGlobalAbort(txn->gtid, config_.site);
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kLocalAbort;
      e.txn = txn->gtid;
      e.site = config_.site;
      e.resubmission = txn->resubmission;
      e.ok = false;
      tracer_->Record(std::move(e));
    }
    log_.Append(LogRecord{.kind = LogRecordKind::kAbort, .gtid = txn->gtid});
    network_->Send(config_.site, from, Message{AckMsg{msg.gtid, false}});
    Retire(*txn, /*committed=*/false);
    return;
  }
  // Fuse prepare + commit: a momentary prepared state with the invalid
  // serial number, which sorts below every real SN — commit certification
  // passes immediately and the committed high-water mark stays untouched
  // (a single-site transaction constrains no global order).
  log_.ForceAppend(LogRecord{.kind = LogRecordKind::kPrepare,
                             .gtid = txn->gtid,
                             .sn = SerialNumber{}});
  certifier_->OnPrepared(txn->gtid,
                         AliveInterval{txn->last_completion, loop_->Now()},
                         SerialNumber{});
  txn->phase = Phase::kPrepared;
  txn->sn = SerialNumber{};
  ltm_->recorder()->RecordPrepare(SubTxnId{txn->gtid, txn->resubmission},
                                  config_.site);
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kShortCommit;
    e.txn = txn->gtid;
    e.site = config_.site;
    e.resubmission = txn->resubmission;
    e.detail = "1pc";
    tracer_->Record(std::move(e));
  }
  // The agent is the commit point: record the global decision *before* the
  // local commit, preserving the C_k-before-local-commit order invariant.
  ltm_->recorder()->RecordGlobalCommit(txn->gtid, config_.site);
  ++metrics_->short_commits_1pc;
  txn->commit_pending = true;
  // TryCommit reuses the full 2PC tail: force-kCommit, local commit, the
  // COMMIT-ACK, and resubmission if the LDBS kills the work mid-commit.
  TryCommit(*txn);
}

// --- DLU bound data ----------------------------------------------------------

void TwoPCAgent::BindAccessedItems(AgentTxn& txn) {
  const ltm::LocalTxn* local = ltm_->Find(txn.ltm_handle);
  if (local == nullptr) return;
  std::vector<ItemId> fresh;
  for (const std::set<ItemId>* set : {&local->read_set, &local->write_set}) {
    for (const ItemId& item : *set) {
      if (txn.bound_items.insert(item).second) fresh.push_back(item);
    }
  }
  ltm_->BindItems(fresh);
}

void TwoPCAgent::UnbindAll(AgentTxn& txn) {
  if (txn.bound_items.empty()) return;
  ltm_->UnbindItems(
      std::vector<ItemId>(txn.bound_items.begin(), txn.bound_items.end()));
  txn.bound_items.clear();
}

// --- site crash recovery -------------------------------------------------------

void TwoPCAgent::Crash() {
  for (auto& [gtid, txn] : txns_) CancelTimers(txn);
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
  for (const TxnId& gtid : lost) log_.Retire(gtid, AgentOutcome::Late{});
  // Rebuild every in-doubt subtransaction; a logged commit record carries
  // the decision (and its CSN, if one traveled).
  for (const TxnId& gtid : in_doubt) {
    Reenter(gtid, log_.HasCommit(gtid), log_.CommitCsnOf(gtid));
  }
}

void TwoPCAgent::Reenter(const TxnId& gtid, bool commit_pending,
                         int64_t csn) {
  const auto prepare = log_.PrepareRecordOf(gtid);
  assert(prepare.has_value());
  AgentTxn& txn = txns_[gtid];
  txn.gtid = gtid;
  txn.coordinator = log_.CoordinatorOf(gtid);
  txn.phase = Phase::kPrepared;
  txn.resubmission = log_.ResubmissionsOf(gtid);
  txn.sn = prepare->sn;
  txn.acting_for = prepare->peer;
  txn.last_completion = loop_->Now();
  certifier_->OnPrepared(gtid, AliveInterval{loop_->Now(), loop_->Now()},
                         txn.sn);
  txn.commit_pending = commit_pending;
  if (commit_pending) {
    // Re-stamp the prepared entry with the decision before resubmitting.
    txn.csn = csn;
    certifier_->OnCommitDecision(gtid, csn);
  }
  StartResubmission(txn);
  // Undecided, it cannot have retired: probe the coordinator.
  if (!commit_pending) SendInquiry(gtid);
}

void TwoPCAgent::Retire(AgentTxn& txn, bool committed, bool read_only) {
  log_.Retire(txn.gtid,
              AgentOutcome::Late{
                  .incarnation = incarnation_,
                  .committed = committed,
                  .read_only = read_only,
                  .acting_for = txn.acting_for,
                  .dml_done_index = txn.dml_done_index,
                  .dml_inflight_index = txn.dml_inflight_index,
                  .dml_last_code = txn.dml_last_status.code()});
  const TxnId gtid = txn.gtid;
  txns_.erase(gtid);
}

AgentOutcome::Late* TwoPCAgent::FindRetired(const TxnId& gtid) {
  AgentOutcome::Late* late = log_.LateOf(gtid);
  if (late == nullptr || late->incarnation != incarnation_) return nullptr;
  return late;
}

void TwoPCAgent::SendInquiry(const TxnId& gtid) {
  AgentTxn* txn = FindTxn(gtid);
  if (txn == nullptr || txn->phase != Phase::kPrepared ||
      txn->commit_pending) {
    return;
  }
  ++txn->inquiry_attempts;
  ++metrics_->inquiries_sent;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kInquirySend;
    e.txn = gtid;
    e.site = config_.site;
    e.peer = txn->coordinator;
    e.value = txn->inquiry_attempts;
    tracer_->Record(std::move(e));
  }
  network_->Send(config_.site, txn->coordinator, Message{InquiryMsg{gtid}});
  // Paxos Commit: enough unanswered inquiries and the agent presumes the
  // coordinator dead, escalating to the consensus module's resolution round
  // (leader election) instead of probing a corpse forever.
  if (escalate_hook_ && txn->inquiry_attempts >= kInquiryEscalateAfter) {
    escalate_hook_(gtid, txn->coordinator,
                   txn->inquiry_attempts - kInquiryEscalateAfter);
  }
  // Retry with capped exponential backoff until a decision arrives: the
  // coordinator stays silent while still collecting votes, the inquiry or
  // its reply may be lost, or the coordinator may itself be down — the
  // prepared agent must keep probing (the blocking window).
  ArmInquiryTimer(*txn, sim::CappedBackoff(config_.inquiry_retry_initial,
                                           config_.inquiry_retry_max,
                                           txn->inquiry_attempts - 1));
}

void TwoPCAgent::ArmInquiryTimer(AgentTxn& txn, sim::Duration delay) {
  if (txn.inquiry_timer != sim::kInvalidEvent) loop_->Cancel(txn.inquiry_timer);
  const TxnId gtid = txn.gtid;
  txn.inquiry_timer = loop_->ScheduleAfter(delay, [this, gtid]() {
    AgentTxn* t = FindTxn(gtid);
    if (t != nullptr) t->inquiry_timer = sim::kInvalidEvent;
    SendInquiry(gtid);
  });
}

// --- orphan detection --------------------------------------------------------

void TwoPCAgent::ArmOrphanTimer(AgentTxn& txn) {
  if (config_.orphan_abort_timeout <= 0) return;
  if (txn.orphan_timer != sim::kInvalidEvent) {
    loop_->Cancel(txn.orphan_timer);
    txn.orphan_timer = sim::kInvalidEvent;
  }
  if (txn.phase != Phase::kActive) return;
  const TxnId gtid = txn.gtid;
  txn.orphan_timer = loop_->ScheduleAfter(
      config_.orphan_abort_timeout, [this, gtid]() { OnOrphanTimeout(gtid); });
}

void TwoPCAgent::OnOrphanTimeout(const TxnId& gtid) {
  AgentTxn* txn = FindTxn(gtid);
  if (txn == nullptr) return;
  txn->orphan_timer = sim::kInvalidEvent;
  // Only an *active* subtransaction may be abandoned: before the READY vote
  // the LDBS can unilaterally abort at any time (execution autonomy).
  // A silent coordinator usually means it crashed before reaching PREPARE;
  // releasing the orphan's locks keeps the rest of the workload moving.
  if (txn->phase != Phase::kActive) return;
  if (ltm_->IsActive(txn->ltm_handle)) {
    ltm_->InjectUnilateralAbort(txn->ltm_handle);
  }
}

// --- bookkeeping -------------------------------------------------------------

void TwoPCAgent::CancelTimers(AgentTxn& txn) {
  for (sim::EventId* timer :
       {&txn.resubmit_retry_timer, &txn.inquiry_timer, &txn.orphan_timer}) {
    if (*timer != sim::kInvalidEvent) {
      loop_->Cancel(*timer);
      *timer = sim::kInvalidEvent;
    }
  }
}

void TwoPCAgent::OnUnilateralAbort(const SubTxnId& id,
                                   LtmTxnHandle handle) {
  AgentTxn* txn = FindTxn(id.txn);
  if (txn == nullptr) return;
  if (handle != txn->ltm_handle || id.resubmission != txn->resubmission) {
    return;  // stale notification about a superseded local subtransaction
  }
  // An active subtransaction's death surfaces at its next command, its
  // vote or its 1PC commit; a resubmission attempt's in its command
  // callback, which retries.
  if (txn->phase != Phase::kPrepared || txn->resubmitting) return;
  // Appendix A's alive check, run at the instant of the abort: the alive
  // interval ends here, and the commands are resubmitted from the Agent
  // log. With none to run, the resubmission may commit and retire at once.
  certifier_->table().ExtendEnd(id.txn, loop_->Now());
  StartResubmission(*txn);
}

// --- shard handoff -----------------------------------------------------------

bool TwoPCAgent::TxnTouchesShards(const TxnId& gtid, const shard::ShardMap& map,
                                  const std::vector<int>& shards) const {
  for (const db::Command& cmd : log_.CommandsOf(gtid)) {
    const std::optional<int64_t> key = db::CommandExactKey(cmd);
    if (!key.has_value() || ShardInSet(map.ShardOf(*key), shards)) return true;
  }
  return false;
}

bool TwoPCAgent::TxnInsideShards(const TxnId& gtid, const shard::ShardMap& map,
                                 const std::vector<int>& shards) const {
  for (const db::Command& cmd : log_.CommandsOf(gtid)) {
    const std::optional<int64_t> key = db::CommandExactKey(cmd);
    if (!key.has_value() || !ShardInSet(map.ShardOf(*key), shards)) {
      return false;
    }
  }
  return true;
}

bool TwoPCAgent::InFlightOnShards(const shard::ShardMap& map,
                                  const std::vector<int>& shards) const {
  for (const auto& [gtid, txn] : txns_) {
    if (TxnTouchesShards(gtid, map, shards)) return true;
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
    if (txn.phase != Phase::kPrepared) continue;
    if (TxnTouchesShards(gtid, map, shards) &&
        (!TxnInsideShards(gtid, map, shards) || dest.log_.Knows(gtid))) {
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
    if (TxnTouchesShards(gtid, map, shards)) targets.push_back(gtid);
  }
  std::sort(targets.begin(), targets.end());
  std::vector<MigratedTxn> out;
  for (const TxnId& gtid : targets) {
    AgentTxn& txn = *FindTxn(gtid);
    if (txn.phase == Phase::kActive) {
      // Force-abort: before the READY vote the LDBS may kill active work at
      // any time; the coordinator sees failing DML and rolls back globally.
      if (ltm_->IsActive(txn.ltm_handle)) {
        ltm_->InjectUnilateralAbort(txn.ltm_handle);
        ++metrics_->reconfig_forced_aborts;
      }
      continue;
    }
    assert(TxnInsideShards(gtid, map, shards));
    MigratedTxn m;
    m.gtid = gtid;
    m.coordinator = txn.coordinator;
    m.origin = config_.site;
    m.resubmission = txn.resubmission;
    m.sn = txn.sn;
    m.commit_pending = txn.commit_pending;
    m.csn = txn.csn;
    m.commands = log_.CommandsOf(gtid);
    CancelTimers(txn);
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
    // Retiring keeps the redirect: Handle() answers every later message
    // for the gtid with the adopting site.
    log_.Retire(gtid, AgentOutcome::Late{});
    out.push_back(std::move(m));
  }
  // A subtransaction staying here may have waited on extracted residue.
  CommitReadyHead();
  return out;
}

void TwoPCAgent::AdoptMigrated(const MigratedTxn& m) {
  assert(FindTxn(m.gtid) == nullptr);
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
  Reenter(m.gtid, m.commit_pending, m.csn);
}

}  // namespace hermes::core
