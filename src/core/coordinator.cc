#include "core/coordinator.h"

#include <cassert>
#include <utility>

#include "common/str.h"
#include "sim/backoff.h"

namespace hermes::core {

namespace {

using trace::EventKind;
using enum CoordState;
using enum CoordInput;

// The client heard the outcome: the decision is out, or was before a crash.
bool Reported(CoordState s) {
  return s == kCommitting || s == kAborting || s == kRedelivering;
}

}  // namespace

Coordinator::Coordinator(SiteId site, sim::EventLoop* loop,
                         net::Network* network, const sim::SiteClock* clock,
                         history::Recorder* recorder, Metrics* metrics,
                         trace::Tracer* tracer,
                         const CoordinatorRetryConfig& retry)
    : site_(site),
      loop_(loop),
      network_(network),
      recorder_(recorder),
      metrics_(metrics),
      tracer_(tracer),
      sn_generator_(site, clock),
      retry_(retry),
      own_protocol_(std::make_unique<consensus::TwoPCDecision>(&log_)),
      protocol_(own_protocol_.get()) {}

Coordinator::~Coordinator() {
  for (auto& [gtid, txn] : txns_) CancelRetryTimer(txn);
}

CoordState Coordinator::StateOf(const TxnId& gtid) const {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? kUnknown : it->second.state;
}

template <typename Fn>
void Coordinator::Apply([[maybe_unused]] TxnId gtid,
                        [[maybe_unused]] CoordState from,
                        [[maybe_unused]] CoordInput input, Fn&& transition) {
  assert(TransitionAllowed(kCoordTransitions, from, input));
  // Metrics are per site: the count moves only if this site crashed.
  [[maybe_unused]] const int64_t crashes = metrics_->coordinator_crashes;
  transition();
  assert(crashes != metrics_->coordinator_crashes ||
         TransitionAllowed(kCoordTransitions, from, input, StateOf(gtid)));
}

template <typename Fn>
void Coordinator::Apply(const TxnId& gtid, CoordInput input,
                        Fn&& transition) {
  auto it = txns_.find(gtid);
  CoordTxn* txn = it == txns_.end() ? nullptr : &it->second;
  const CoordState state = txn == nullptr ? kUnknown : txn->state;
  Apply(gtid, state, input, [&] { transition(txn, state); });
}

template <typename Fill>
void Coordinator::Trace(EventKind kind, const TxnId& gtid, SiteId peer,
                        Fill&& fill) {
  if (tracer_ == nullptr || !tracer_->Admit(gtid)) return;
  trace::Event e;
  e.kind = kind;
  e.txn = gtid;
  e.site = site_;
  e.peer = peer;
  fill(e);
  tracer_->Record(std::move(e));
}

TxnId Coordinator::Submit(GlobalTxnSpec spec, GlobalTxnCallback cb) {
  // Pick up the latest shard-map epoch at submission: the generator routed
  // the steps against the directory's current map, so the view is fresh by
  // construction (a race with a concurrent reconfiguration is handled by
  // the epoch-refusal path like any other staleness).
  if (directory_ != nullptr) epoch_view_ = directory_->epoch();
  const TxnId gtid =
      TxnId::MakeGlobal(site_, epoch_ * kEpochSeqStride + next_seq_++);
  Apply(gtid, kUnknown, kSubmit, [&] {
    CoordTxn& txn = txns_[gtid];
    txn.gtid = gtid;
    txn.spec = std::move(spec);
    txn.cb = std::move(cb);
    txn.start_time = loop_->Now();
    Trace(EventKind::kTxnBegin, gtid, kInvalidSite, [&](trace::Event& e) {
      e.value = static_cast<int64_t>(txn.spec.steps.size());
    });
    if (sn_at_submit_) txn.sn = sn_generator_.Next();
    // The first step, or the abort of a transaction without steps, runs in
    // a zero-delay event: the callback never runs inside Submit.
    loop_->ScheduleAfter(0, [this, gtid]() { OnStart(gtid); });
  });
  return gtid;
}

void Coordinator::OnStart(const TxnId& gtid) {
  Apply(gtid, kStart, [&](CoordTxn* txn, CoordState) {
    if (txn == nullptr) return;
    if (txn->spec.steps.empty()) {
      StartRollback(*txn,
                    Status::InvalidArgument("global transaction has no steps"));
      return;
    }
    ExecuteNextStep(*txn);
  });
}

void Coordinator::ExecuteNextStep(CoordTxn& txn) {
  if (txn.next_step == txn.spec.steps.size()) {
    txn.commit_start = loop_->Now();
    // Short-commit 1PC: a single-site transaction needs no vote round — its
    // lone participant is the commit point (committing it is
    // indistinguishable from committing a purely local transaction there).
    if (short_commit_ && txn.begun.size() == 1) {
      txn.state = kOnePhase;
      txn.acks_pending = txn.begun;
      SendOnePhaseCommit(txn, /*resend=*/false);
      return;
    }
    if (hooks_.before_prepare) {
      txn.state = kAdmitting;
      const TxnId gtid = txn.gtid;
      hooks_.before_prepare(
          gtid, std::vector<SiteId>(txn.begun.begin(), txn.begun.end()),
          [this, gtid]() { OnAdmitted(gtid); });
      return;
    }
    Prepare(txn);
    return;
  }
  if (hooks_.before_step) {
    const TxnId gtid = txn.gtid;
    hooks_.before_step(
        gtid, txn.spec.steps[txn.next_step],
        [this, gtid](const Status& s) { OnStepGranted(gtid, s); });
    return;
  }
  SendStep(txn, /*resend=*/false);
}

void Coordinator::OnStepGranted(const TxnId& gtid, const Status& status) {
  Apply(gtid, kStepGranted, [&](CoordTxn* txn, CoordState state) {
    if (state != kExecuting) return;
    if (!status.ok()) {
      ++metrics_->global_aborted_dml;
      StartRollback(*txn, status);
      return;
    }
    SendStep(*txn, /*resend=*/false);
  });
}

void Coordinator::SendStep(CoordTxn& txn, bool resend) {
  const GlobalTxnSpec::Step& step = txn.spec.steps[txn.next_step];
  if (resend) TraceRetransmit(txn, step.site, "dml");
  // A resend repeats BEGIN along with the command: either may have been
  // the loss, and the agent ignores a duplicate BEGIN.
  if (txn.begun.insert(step.site).second || resend) {
    network_->Send(site_, step.site,
                   Message{BeginMsg{txn.gtid, epoch_view_}});
  }
  if (!resend) {
    Trace(EventKind::kStepStart, txn.gtid, step.site, [&](trace::Event& e) {
      e.value = static_cast<int64_t>(txn.next_step);
    });
  }
  network_->Send(site_, step.site,
                 Message{DmlRequestMsg{txn.gtid,
                                       static_cast<int32_t>(txn.next_step),
                                       step.cmd, epoch_view_}});
  ArmRetryTimer(txn);
}

void Coordinator::OnDmlResponse(const DmlResponseMsg& msg) {
  Apply(msg.gtid, kDmlResponse, [&](CoordTxn* txn, CoordState state) {
    // Anything but the current step's response is late or a duplicate.
    if (state != kExecuting ||
        msg.cmd_index != static_cast<int32_t>(txn->next_step)) {
      return;
    }
    CancelRetryTimer(*txn);
    txn->retry_attempt = 0;
    const GlobalTxnSpec::Step& step = txn->spec.steps[txn->next_step];
    Trace(EventKind::kStepEnd, msg.gtid, step.site, [&](trace::Event& e) {
      e.value = msg.cmd_index;
      e.ok = msg.status.ok();
      if (!msg.status.ok()) e.detail = msg.status.ToString();
    });
    if (!msg.status.ok()) {
      ++metrics_->global_aborted_dml;
      StartRollback(*txn, msg.status);
      return;
    }
    if (step.min_affected.has_value() &&
        msg.result.affected < *step.min_affected) {
      ++metrics_->global_aborted_dml;
      StartRollback(*txn, Status::Rejected(StrCat(
                              "step ", txn->next_step, " affected ",
                              msg.result.affected, " rows, expected at least ",
                              *step.min_affected)));
      return;
    }
    txn->results.push_back(msg.result);
    ++txn->next_step;
    ExecuteNextStep(*txn);
  });
}

void Coordinator::OnAdmitted(const TxnId& gtid) {
  Apply(gtid, kAdmitted, [&](CoordTxn* txn, CoordState state) {
    if (state == kAdmitting) Prepare(*txn);
  });
}

void Coordinator::Prepare(CoordTxn& txn) {
  txn.state = kPreparing;
  // The application has submitted Commit: generate the serial number now
  // (all conflicts are determined by this point) and send it with PREPARE.
  // Under the sn_at_submit ablation the (earlier) submission-time number is
  // kept instead.
  if (!sn_at_submit_) txn.sn = sn_generator_.Next();
  txn.votes_pending = txn.begun;
  protocol_->BeginDecision(
      txn.gtid, std::vector<SiteId>(txn.begun.begin(), txn.begun.end()));
  SendPrepares(txn, /*resend=*/false);
}

void Coordinator::SendPrepares(CoordTxn& txn, bool resend) {
  for (SiteId s : txn.votes_pending) {
    if (resend) {
      TraceRetransmit(txn, s, "prepare");
    } else {
      Trace(EventKind::kPrepareSend, txn.gtid, s,
            [&](trace::Event& e) { e.sn = txn.sn; });
    }
    network_->Send(site_, Target(txn, s),
                   Message{PrepareMsg{txn.gtid, txn.sn, epoch_view_}});
  }
  ArmRetryTimer(txn);
}

void Coordinator::SendOnePhaseCommit(CoordTxn& txn, bool resend) {
  // No decision record: the agent force-writes the outcome into its own
  // log, and the ACK carries it back. The 1PC-COMMIT is retransmitted
  // unboundedly like a decision (the agent's handler is duplicate-safe).
  for (SiteId s : txn.acks_pending) {
    if (resend) {
      TraceRetransmit(txn, s, "1pc-commit");
    } else {
      Trace(EventKind::kShortCommit, txn.gtid, s,
            [](trace::Event& e) { e.detail = "1pc"; });
    }
    network_->Send(site_, Target(txn, s),
                   Message{OnePhaseCommitMsg{txn.gtid, epoch_view_}});
  }
  ArmRetryTimer(txn);
}

void Coordinator::OnVote(SiteId from, const VoteMsg& msg) {
  Apply(msg.gtid, kVote, [&](CoordTxn* txn, CoordState state) {
    if (state != kPreparing) return;
    // An adopting site answers for the original participant after a shard
    // handoff: clear the bookkeeping under that id.
    const SiteId voter =
        msg.on_behalf_of != kInvalidSite ? msg.on_behalf_of : from;
    txn->votes_pending.erase(voter);
    if (msg.ready && msg.read_only) txn->readonly_sites.insert(voter);
    Trace(EventKind::kVoteRecv, msg.gtid, voter, [&](trace::Event& e) {
      e.ok = msg.ready;
      if (!msg.ready) e.detail = msg.reason.ToString();
    });
    if (!msg.ready) {
      ++metrics_->global_aborted_cert;
      txn->certification_refused = true;
      StartRollback(*txn, msg.reason.ok()
                              ? Status::Rejected("participant refused")
                              : msg.reason);
      return;
    }
    if (!txn->votes_pending.empty()) return;
    // All READY: hand the commit intent to the decision protocol. 2PC
    // force-writes the decision record and answers synchronously *before*
    // the first COMMIT message leaves the site — without that a crash here
    // would lose the decision while participants may already be
    // committing, the classic lost-decision atomicity violation. Paxos
    // Commit instead waits for the acceptor round (fast path: one message
    // delay) and answers from OnDecided.
    txn->state = kDeciding;
    CancelRetryTimer(*txn);
    txn->retry_attempt = 0;
    if (txn->readonly_sites.size() == txn->begun.size()) {
      // Every participant was read-only and already committed locally with
      // its vote: there is no decision to take or deliver — the decision
      // round disappears entirely.
      recorder_->RecordGlobalCommit(txn->gtid, site_);
      Trace(EventKind::kShortCommit, txn->gtid, kInvalidSite,
            [](trace::Event& e) { e.detail = "readonly"; });
      FinishTxn(*txn, /*committed=*/true);
      return;
    }
    if (csn_source_ != nullptr) {
      // Decision-time CSN from the shared source, drawn *before* Decide so
      // the number is durable inside the decision record and survives a
      // coordinator crash together with the outcome.
      txn->csn = csn_source_->Next();
      ++metrics_->csn_assigned;
      Trace(EventKind::kCsnAssign, txn->gtid, kInvalidSite,
            [&](trace::Event& e) { e.value = txn->csn; });
    }
    // Read-only participants are already committed and owed nothing: only
    // the writers are recorded as owed a COMMIT (and re-driven after a
    // coordinator crash).
    std::vector<SiteId> writers;
    for (SiteId s : txn->begun) {
      if (txn->readonly_sites.count(s) == 0) writers.push_back(s);
    }
    protocol_->Decide(
        txn->gtid, consensus::DecideMode::kCommit, writers, txn->csn,
        [this](const TxnId& gtid, bool commit) { OnDecided(gtid, commit); });
  });
}

void Coordinator::OnDecided(const TxnId& gtid, bool commit) {
  Apply(gtid, kDecided, [&](CoordTxn* txn, CoordState state) {
    if (state != kDeciding) return;
    // The outcome is final here: 2PC has force-written its decision record,
    // Paxos Commit's acceptors have chosen it. The participants must follow
    // it (resubmitting after a unilateral abort if they have to), so the
    // client hears it now; the ACK wait that follows is cleanup.
    if (commit) {
      recorder_->RecordGlobalCommit(gtid, site_);
    } else {
      recorder_->RecordGlobalAbort(gtid, site_);
      if (txn->failure.ok()) {
        txn->failure = Status::Aborted("decision protocol aborted");
      }
      if (txn->begun.empty()) {
        FinishTxn(*txn, /*committed=*/false);
        return;
      }
    }
    txn->state = commit ? kCommitting : kAborting;
    SendDecisions(*txn, /*resend=*/false);
    Report(*txn, commit);
  });
}

void Coordinator::SendDecisions(CoordTxn& txn, bool resend) {
  if (!resend) {
    CancelRetryTimer(txn);
    txn.retry_attempt = 0;
    // Short-commit read-only participants already committed at their vote:
    // they are owed no decision and send no ack.
    txn.acks_pending.clear();
    for (SiteId s : txn.begun) {
      if (txn.readonly_sites.count(s) == 0) txn.acks_pending.insert(s);
    }
    // Someone is always owed the decision: OnVote finishes an all-read-only
    // transaction without deciding, so a commit has a writer; an abort
    // comes before every participant voted read-only READY, and each one
    // that did not is owed the rollback.
    assert(!txn.acks_pending.empty());
  }
  const bool commit = txn.state != kAborting;
  for (SiteId s : txn.acks_pending) {
    if (resend) {
      TraceRetransmit(txn, s, "decision");
    } else {
      Trace(EventKind::kDecisionSend, txn.gtid, s, [&](trace::Event& e) {
        e.ok = commit;
        if (!commit) e.detail = txn.failure.ToString();
      });
    }
    network_->Send(site_, Target(txn, s),
                   Message{DecisionMsg{txn.gtid, commit, txn.csn,
                                       epoch_view_}});
  }
  ArmRetryTimer(txn);
}

void Coordinator::Handle(SiteId from, const Message& msg) {
  if (const auto* m = std::get_if<DmlResponseMsg>(&msg)) {
    OnDmlResponse(*m);
  } else if (const auto* m = std::get_if<VoteMsg>(&msg)) {
    OnVote(from, *m);
  } else if (const auto* m = std::get_if<AckMsg>(&msg)) {
    OnAck(from, *m);
  } else if (const auto* m = std::get_if<InquiryMsg>(&msg)) {
    OnInquiry(from, *m);
  } else if (const auto* m = std::get_if<EpochRefusedMsg>(&msg)) {
    OnEpochRefused(from, *m);
  }
}

void Coordinator::OnEpochRefused(SiteId from, const EpochRefusedMsg& msg) {
  // Always refresh the cached view first — even for transactions this
  // coordinator no longer knows, so the next inquiry reply to the refusing
  // agent carries an epoch it accepts.
  if (directory_ != nullptr && epoch_view_ < directory_->epoch()) {
    epoch_view_ = directory_->Fetch().epoch;
    ++metrics_->epoch_map_refreshes;
  }
  Apply(msg.gtid, kEpochRefused, [&](CoordTxn* txn, CoordState) {
    if (txn == nullptr) return;
    if (msg.moved_to != kInvalidSite) txn->relocated[from] = msg.moved_to;
    RefreshRouting(*txn);
    // Re-drive the refused send immediately against the fresh map instead
    // of waiting out the retransmission timer.
    CancelRetryTimer(*txn);
    const TxnId gtid = msg.gtid;
    loop_->ScheduleAfter(0, [this, gtid]() { OnRetryTimeout(gtid); });
  });
}

SiteId Coordinator::Target(const CoordTxn& txn, SiteId s) const {
  const auto it = txn.relocated.find(s);
  if (it != txn.relocated.end()) return it->second;
  if (directory_ != nullptr) return directory_->Forward(s);
  return s;
}

void Coordinator::RefreshRouting(CoordTxn& txn) {
  if (directory_ == nullptr) return;
  if (epoch_view_ < directory_->epoch()) {
    epoch_view_ = directory_->Fetch().epoch;
    ++metrics_->epoch_map_refreshes;
  }
  if (txn.state != kExecuting) return;
  // Unexecuted steps follow their key's owner under the fresh map (a step
  // without an exact key keeps its planned site — the agent's own
  // moved-shard guard rejects it if the rows left).
  const shard::ShardMap& map = directory_->Current();
  for (size_t i = txn.next_step; i < txn.spec.steps.size(); ++i) {
    const std::optional<int64_t> key =
        db::CommandExactKey(txn.spec.steps[i].cmd);
    if (key.has_value()) txn.spec.steps[i].site = map.OwnerOfKey(*key);
  }
}

void Coordinator::OnInquiry(SiteId from, const InquiryMsg& msg) {
  // Recovery inquiry from a crashed participant or from a prepared agent
  // whose decision wait timed out (blocking-window probing). Handling is
  // idempotent: duplicate inquiries get the same reply again, lost replies
  // are covered by the agent's capped-backoff inquiry retry timer.
  Apply(msg.gtid, kInquiry, [&](CoordTxn* txn, CoordState state) {
    std::optional<bool> outcome;
    int64_t csn = -1;
    const char* detail = nullptr;
    switch (state) {
      case kUnknown:
        // Unknown here: ask the decision protocol. 2PC answers presumed
        // abort (a finished transaction was acked by every participant, so
        // an in-doubt inquirer can only concern an aborted one); Paxos
        // Commit answers from its decided cache or starts a resolution
        // round and stays silent — the requester gets its DecisionMsg when
        // the round completes.
        outcome = protocol_->AnswerInquiry(msg.gtid, from);
        if (outcome == false) {
          ++metrics_->inquiries_answered_presumed_abort;
          detail = "presumed-abort";
        }
        csn = outcome == true ? log_.DecisionCsnOf(msg.gtid) : -1;
        break;
      case kCommitting:
      case kRedelivering:
        outcome = true;
        csn = txn->csn;
        break;
      case kAborting:
        outcome = false;
        break;
      default:
        // Undecided: stay silent, the agent retries (while deciding, the
        // protocol is already resolving the outcome). Under short-commit
        // 1PC the outcome lives at the agent, not here; the unbounded
        // 1PC-COMMIT retransmission resolves it.
        break;
    }
    if (!outcome.has_value()) return;
    Trace(EventKind::kInquiryReply, msg.gtid, from, [&](trace::Event& e) {
      e.ok = *outcome;
      if (detail != nullptr) e.detail = detail;
    });
    network_->Send(site_, from,
                   Message{DecisionMsg{msg.gtid, *outcome, csn, epoch_view_}});
  });
}

void Coordinator::StartRollback(CoordTxn& txn, const Status& reason,
                                consensus::DecideMode mode) {
  txn.failure = reason;
  txn.state = kDeciding;
  CancelRetryTimer(txn);
  // kAbortFinal (a definite refusal or DML failure) resolves synchronously
  // under every protocol; kAbortTimeout (votes missing, outcome open) may
  // come back from Paxos Commit as a *commit* if the acceptors had already
  // sealed one — OnDecided honors the protocol's verdict either way.
  protocol_->Decide(
      txn.gtid, mode,
      std::vector<SiteId>(txn.begun.begin(), txn.begun.end()), /*csn=*/-1,
      [this](const TxnId& gtid, bool commit) { OnDecided(gtid, commit); });
}

void Coordinator::OnAck(SiteId from, const AckMsg& msg) {
  Apply(msg.gtid, kAck, [&](CoordTxn* txn, CoordState state) {
    if (state != kOnePhase && !Reported(state)) return;
    Trace(EventKind::kAckRecv, msg.gtid, from,
          [&](trace::Event& e) { e.ok = msg.commit; });
    // As with votes: an adopting site acks under the original participant
    // id.
    SiteId acker = msg.on_behalf_of != kInvalidSite ? msg.on_behalf_of : from;
    if (txn->acks_pending.count(acker) == 0) {
      // An adopter that already finished the transaction auto-acks a
      // retransmitted decision under its own id. Resolve which original
      // participant we currently route to this sender, else the ack never
      // matches and the decision retransmits forever.
      for (SiteId orig : txn->acks_pending) {
        if (Target(*txn, orig) == from) {
          acker = orig;
          break;
        }
      }
    }
    txn->acks_pending.erase(acker);
    if (state == kOnePhase && !msg.commit) {
      // The agent — the 1PC commit point — durably chose abort and already
      // recorded the global outcome; only the client report happens here.
      txn->failure = Status::Aborted("participant unilaterally aborted");
    }
    if (txn->acks_pending.empty()) {
      FinishTxn(*txn, state == kOnePhase ? msg.commit : state != kAborting);
    }
  });
}

// --- site crash recovery -----------------------------------------------------

void Coordinator::Crash() {
  ++metrics_->coordinator_crashes;
  for (auto it = txns_.begin(); it != txns_.end();) {
    const TxnId gtid = it->first;
    CoordTxn& txn = it->second;
    Apply(gtid, txn.state, kCrash, [&] {
      CancelRetryTimer(txn);
      // A reported transaction's client heard the outcome at its decision.
      // The protocol keeps the outcome (2PC's decision log, which Recover()
      // re-drives; Paxos Commit's acceptors, which the participants ask).
      // A short-commit 1PC's agent holds the durable outcome and needs no
      // re-drive, but the coordinator will never hear it, so it goes
      // uncounted.
      if (!Reported(txn.state) && txn.state != kOnePhase) {
        // Undecided towards this client (the pre-crash coordinator can no
        // longer report an outcome). Under 2PC the transaction is presumed
        // aborted and recorded as such; under Paxos Commit the outcome may
        // still be sealed COMMIT by the acceptors and delivered by a
        // resolver, so nothing is recorded here — the resolver records
        // whatever gets chosen.
        if (protocol_->PresumesAbortOnCrash()) {
          recorder_->RecordGlobalAbort(gtid, site_);
        }
        ++metrics_->global_aborted;
        ++metrics_->global_aborted_crash;
      }
      if (!Reported(txn.state) && txn.cb) {
        GlobalTxnResult result;
        result.gtid = gtid;
        result.status = Status::Unavailable("coordinator crashed");
        result.results = std::move(txn.results);
        result.latency = loop_->Now() - txn.start_time;
        // Asynchronously, matching the normal completion path (and because
        // Crash() may be invoked from inside a protocol handler).
        loop_->ScheduleAfter(
            0, [cb = std::move(txn.cb), result = std::move(result)]() {
              cb(result);
            });
      }
      it = txns_.erase(it);
    });
  }
}

void Coordinator::Recover() {
  // A reconfiguration may have happened while this site was down.
  if (directory_ != nullptr) epoch_view_ = directory_->epoch();
  // Force-write a fresh submission epoch before anything else: next_seq_
  // is volatile, so without the epoch bump post-recovery transaction ids
  // could collide with pre-crash ones still held by participants.
  epoch_ = log_.LastEpoch() + 1;
  log_.ForceAppend(
      CoordLogRecord{.kind = CoordRecordKind::kEpoch, .epoch = epoch_});
  next_seq_ = 0;
  // Re-drive COMMIT delivery for every decided-but-not-forgotten
  // transaction the protocol can enumerate (2PC: decisions in the log;
  // Paxos Commit: none — prepared participants pull the outcome from the
  // acceptor quorum via inquiry escalation instead). Participants that
  // already processed the decision absorb the duplicate and re-ack; the
  // rest are unblocked. Its client heard the commit before the crash.
  for (const consensus::DecisionProtocol::InFlight& rec :
       protocol_->RecoverInFlight()) {
    Apply(rec.gtid, StateOf(rec.gtid), kRecover, [&] {
      CoordTxn& txn = txns_[rec.gtid];
      txn.gtid = rec.gtid;
      txn.state = kRedelivering;
      txn.csn = rec.csn;
      txn.begun.insert(rec.participants.begin(), rec.participants.end());
      txn.start_time = loop_->Now();
      ++metrics_->coordinator_redelivered_decisions;
      SendDecisions(txn, /*resend=*/false);
    });
  }
}

// --- timeouts and retransmission ---------------------------------------------

void Coordinator::ArmRetryTimer(CoordTxn& txn) {
  CancelRetryTimer(txn);
  const sim::Duration timeout = sim::CappedBackoff(
      retry_.timeout, retry_.max_timeout, txn.retry_attempt);
  const TxnId gtid = txn.gtid;
  txn.retry_timer = loop_->ScheduleAfter(
      timeout, [this, gtid]() { OnRetryTimeout(gtid); });
}

void Coordinator::CancelRetryTimer(CoordTxn& txn) {
  if (txn.retry_timer != sim::kInvalidEvent) {
    loop_->Cancel(txn.retry_timer);
    txn.retry_timer = sim::kInvalidEvent;
  }
}

void Coordinator::TraceRetransmit(const CoordTxn& txn, SiteId peer,
                                  const char* what) {
  ++metrics_->retransmits;
  Trace(EventKind::kRetransmit, txn.gtid, peer, [&](trace::Event& e) {
    e.value = txn.retry_attempt;
    e.detail = what;
  });
}

void Coordinator::OnRetryTimeout(const TxnId& gtid) {
  Apply(gtid, kRetryTimer, [&](CoordTxn* txn, CoordState state) {
    if (txn == nullptr) return;
    txn->retry_timer = sim::kInvalidEvent;
    // The admission hook and the decision protocol own these waits; no
    // message of this coordinator is outstanding.
    if (state == kAdmitting || state == kDeciding) {
      return;
    }
    ++txn->retry_attempt;
    // Steps and PREPAREs give up into an abort (no decision was taken yet:
    // presumed abort of the unresponsive participants is always safe). A
    // decision, once taken, must reach every participant: it retransmits
    // without an attempt bound, the backoff capped at max_timeout.
    if (txn->retry_attempt > retry_.max_attempts &&
        (state == kExecuting || state == kPreparing)) {
      ++metrics_->global_aborted_timeout;
      if (state == kExecuting) {
        StartRollback(*txn, Status::Unavailable(StrCat(
                                "step ", txn->next_step, " unacknowledged "
                                "after ", retry_.max_attempts, " attempts")));
        return;
      }
      ++metrics_->global_aborted_cert;
      StartRollback(*txn,
                    Status::Unavailable(StrCat(
                        txn->votes_pending.size(), " vote(s) missing after ",
                        retry_.max_attempts, " attempts")),
                    consensus::DecideMode::kAbortTimeout);
      return;
    }
    // The silence may mean a participant's site was removed mid-run
    // (messages to retired sites are dropped): re-target against the fresh
    // map before retransmitting.
    RefreshRouting(*txn);
    switch (state) {
      case kExecuting:
        return SendStep(*txn, /*resend=*/true);
      case kPreparing:
        return SendPrepares(*txn, /*resend=*/true);
      case kOnePhase:
        return SendOnePhaseCommit(*txn, /*resend=*/true);
      default:
        return SendDecisions(*txn, /*resend=*/true);
    }
  });
}

void Coordinator::Report(CoordTxn& txn, bool committed) {
  const sim::Duration latency = loop_->Now() - txn.start_time;
  if (committed) {
    ++metrics_->global_committed;
    metrics_->AddLatency(latency);
  } else {
    ++metrics_->global_aborted;
  }
  Trace(EventKind::kTxnEnd, txn.gtid, kInvalidSite, [&](trace::Event& e) {
    e.value = latency;
    e.ok = committed;
    if (!committed) e.detail = txn.failure.ToString();
  });
  // Every abort path records why.
  assert(committed || !txn.failure.ok());
  GlobalTxnResult result;
  result.gtid = txn.gtid;
  result.status = committed ? Status::Ok() : txn.failure;
  result.results = std::move(txn.results);
  result.latency = latency;
  result.certification_refused = txn.certification_refused;
  GlobalTxnCallback cb = std::move(txn.cb);
  if (cb) cb(result);
}

void Coordinator::FinishTxn(CoordTxn& txn, bool committed) {
  CancelRetryTimer(txn);
  if (committed) {
    // Single-site commits get their own latency tally: the short-commit
    // ablation (E18) compares exactly this population across 1PC vs 2PC.
    // Measured from StartCommit to the last ACK, not from txn begin to the
    // client report — the execution phase is identical in both arms, and
    // its lock waits would drown the commit-path difference the ablation
    // is after. Redelivered transactions span a crash: their timestamps
    // were rebuilt at recovery and would poison the tally.
    if (txn.state != kRedelivering && txn.begun.size() == 1) {
      ++metrics_->single_site_committed;
      metrics_->single_site_latency_total += loop_->Now() - txn.commit_start;
    }
    // Every participant acked the COMMIT: no inquiry can arrive that needs
    // the decision, so the protocol may garbage-collect it (2PC retires the
    // decision record; no forget record is written, since recovery would
    // not read one).
    protocol_->Forget(txn.gtid);
  }
  if (hooks_.on_finished) hooks_.on_finished(txn.gtid, committed);
  // Out of the table before the client callback runs, which may submit.
  auto node = txns_.extract(txn.gtid);
  if (!Reported(node.mapped().state)) Report(node.mapped(), committed);
}

}  // namespace hermes::core
