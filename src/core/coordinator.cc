#include "core/coordinator.h"

#include <cassert>
#include <utility>

#include "common/str.h"
#include "sim/backoff.h"

namespace hermes::core {

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

Coordinator::CoordTxn* Coordinator::FindTxn(const TxnId& gtid) {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? nullptr : &it->second;
}

TxnId Coordinator::Submit(GlobalTxnSpec spec, GlobalTxnCallback cb) {
  // Pick up the latest shard-map epoch at submission: the generator routed
  // the steps against the directory's current map, so the view is fresh by
  // construction (a race with a concurrent reconfiguration is handled by
  // the epoch-refusal path like any other staleness).
  if (directory_ != nullptr) epoch_view_ = directory_->epoch();
  const TxnId gtid =
      TxnId::MakeGlobal(site_, epoch_ * kEpochSeqStride + next_seq_++);
  CoordTxn& txn = txns_[gtid];
  txn.gtid = gtid;
  txn.spec = std::move(spec);
  txn.cb = std::move(cb);
  txn.start_time = loop_->Now();
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kTxnBegin;
    e.txn = gtid;
    e.site = site_;
    e.value = static_cast<int64_t>(txn.spec.steps.size());
    tracer_->Record(std::move(e));
  }
  if (sn_at_submit_) txn.sn = sn_generator_.Next();
  if (txn.spec.steps.empty()) {
    txn.failure = Status::InvalidArgument("global transaction has no steps");
    // Resolve asynchronously for uniform callback behavior.
    loop_->ScheduleAfter(0, [this, gtid]() {
      CoordTxn* t = FindTxn(gtid);
      if (t != nullptr) StartRollback(*t, t->failure);
    });
    return gtid;
  }
  loop_->ScheduleAfter(0, [this, gtid]() { ExecuteNextStep(gtid); });
  return gtid;
}

void Coordinator::ExecuteNextStep(const TxnId& gtid) {
  CoordTxn* txn = FindTxn(gtid);
  if (txn == nullptr || txn->phase != Phase::kExecuting) return;
  if (txn->next_step >= txn->spec.steps.size()) {
    StartCommit(gtid);
    return;
  }
  const GlobalTxnSpec::Step& step = txn->spec.steps[txn->next_step];
  if (hooks_.before_step) {
    hooks_.before_step(gtid, step, [this, gtid](const Status& s) {
      CoordTxn* t = FindTxn(gtid);
      if (t == nullptr || t->phase != Phase::kExecuting) return;
      if (!s.ok()) {
        ++metrics_->global_aborted_dml;
        StartRollback(*t, s);
        return;
      }
      SendStep(*t);
    });
    return;
  }
  SendStep(*txn);
}

void Coordinator::SendStep(CoordTxn& txn) {
  const GlobalTxnSpec::Step& step = txn.spec.steps[txn.next_step];
  if (txn.begun.insert(step.site).second) {
    network_->Send(site_, step.site,
                   Message{BeginMsg{txn.gtid, epoch_view_}});
  }
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kStepStart;
    e.txn = txn.gtid;
    e.site = site_;
    e.peer = step.site;
    e.value = static_cast<int64_t>(txn.next_step);
    tracer_->Record(std::move(e));
  }
  network_->Send(site_, step.site,
                 Message{DmlRequestMsg{txn.gtid,
                                       static_cast<int32_t>(txn.next_step),
                                       step.cmd, epoch_view_}});
  ArmRetryTimer(txn);
}

void Coordinator::OnDmlResponse(const DmlResponseMsg& msg) {
  CoordTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr || txn->phase != Phase::kExecuting) return;
  if (msg.cmd_index != static_cast<int32_t>(txn->next_step)) return;
  CancelRetryTimer(*txn);
  txn->retry_attempt = 0;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kStepEnd;
    e.txn = msg.gtid;
    e.site = site_;
    e.peer = txn->spec.steps[txn->next_step].site;
    e.value = msg.cmd_index;
    e.ok = msg.status.ok();
    if (!msg.status.ok()) e.detail = msg.status.ToString();
    tracer_->Record(std::move(e));
  }
  if (!msg.status.ok()) {
    ++metrics_->global_aborted_dml;
    StartRollback(*txn, msg.status);
    return;
  }
  const auto& min_affected = txn->spec.steps[txn->next_step].min_affected;
  if (min_affected.has_value() && msg.result.affected < *min_affected) {
    ++metrics_->global_aborted_dml;
    StartRollback(*txn,
                  Status::Rejected(StrCat("step ", txn->next_step,
                                          " affected ", msg.result.affected,
                                          " rows, expected at least ",
                                          *min_affected)));
    return;
  }
  txn->results.push_back(msg.result);
  ++txn->next_step;
  ExecuteNextStep(txn->gtid);
}

void Coordinator::StartCommit(const TxnId& gtid) {
  CoordTxn* txn = FindTxn(gtid);
  if (txn == nullptr) return;
  txn->commit_start = loop_->Now();
  // Short-commit 1PC: a single-site transaction needs no vote round — its
  // lone participant is the commit point (committing it is indistinguishable
  // from committing a purely local transaction there).
  if (short_commit_ && txn->begun.size() == 1) {
    StartOnePhaseCommit(*txn);
    return;
  }
  txn->phase = Phase::kPreparing;
  if (hooks_.before_prepare) {
    std::vector<SiteId> sites(txn->begun.begin(), txn->begun.end());
    hooks_.before_prepare(gtid, sites, [this, gtid]() {
      CoordTxn* t = FindTxn(gtid);
      if (t == nullptr || t->phase != Phase::kPreparing) return;
      SendPrepares(*t);
    });
    return;
  }
  SendPrepares(*txn);
}

void Coordinator::StartOnePhaseCommit(CoordTxn& txn) {
  const SiteId participant = *txn.begun.begin();
  txn.one_phase = true;
  txn.phase = Phase::kCommitting;
  txn.acks_pending = txn.begun;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kShortCommit;
    e.txn = txn.gtid;
    e.site = site_;
    e.peer = participant;
    e.detail = "1pc";
    tracer_->Record(std::move(e));
  }
  // No decision record: the agent force-writes the outcome into its own
  // log, and the ACK carries it back. The 1PC-COMMIT is retransmitted
  // unboundedly like a decision (the agent's handler is duplicate-safe).
  network_->Send(site_, Target(txn, participant),
                 Message{OnePhaseCommitMsg{txn.gtid, epoch_view_}});
  ArmRetryTimer(txn);
}

void Coordinator::SendPrepares(CoordTxn& txn) {
  // The application has submitted Commit: generate the serial number now
  // (all conflicts are determined by this point) and send it with PREPARE.
  // Under the sn_at_submit ablation the (earlier) submission-time number is
  // kept instead.
  if (!sn_at_submit_) txn.sn = sn_generator_.Next();
  txn.votes_pending = txn.begun;
  protocol_->BeginDecision(
      txn.gtid, std::vector<SiteId>(txn.begun.begin(), txn.begun.end()));
  for (SiteId s : txn.begun) {
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kPrepareSend;
      e.txn = txn.gtid;
      e.site = site_;
      e.peer = s;
      e.sn = txn.sn;
      tracer_->Record(std::move(e));
    }
    network_->Send(site_, Target(txn, s),
                   Message{PrepareMsg{txn.gtid, txn.sn, epoch_view_}});
  }
  ArmRetryTimer(txn);
}

void Coordinator::OnVote(SiteId from, const VoteMsg& msg) {
  CoordTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr || txn->phase != Phase::kPreparing) return;
  // An adopting site answers for the original participant after a shard
  // handoff: clear the bookkeeping under that id.
  const SiteId voter =
      msg.on_behalf_of != kInvalidSite ? msg.on_behalf_of : from;
  txn->votes_pending.erase(voter);
  if (msg.ready && msg.read_only) txn->readonly_sites.insert(voter);
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kVoteRecv;
    e.txn = msg.gtid;
    e.site = site_;
    e.peer = voter;
    e.ok = msg.ready;
    if (!msg.ready) e.detail = msg.reason.ToString();
    tracer_->Record(std::move(e));
  }
  if (!msg.ready) {
    ++metrics_->global_aborted_cert;
    txn->certification_refused = true;
    StartRollback(*txn, msg.reason.ok()
                            ? Status::Rejected("participant refused")
                            : msg.reason);
    return;
  }
  if (txn->votes_pending.empty()) {
    // All READY: hand the commit intent to the decision protocol. 2PC
    // force-writes the decision record and answers synchronously *before*
    // the first COMMIT message leaves the site — without that a crash here
    // would lose the decision while participants may already be
    // committing, the classic lost-decision atomicity violation. Paxos
    // Commit instead waits for the acceptor round (fast path: one message
    // delay) and answers from OnDecided.
    txn->phase = Phase::kDeciding;
    CancelRetryTimer(*txn);
    txn->retry_attempt = 0;
    if (txn->readonly_sites.size() == txn->begun.size()) {
      // Every participant was read-only and already committed locally with
      // its vote: there is no decision to take or deliver — the decision
      // round disappears entirely.
      recorder_->RecordGlobalCommit(txn->gtid, site_);
      if (tracer_ != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kShortCommit;
        e.txn = txn->gtid;
        e.site = site_;
        e.detail = "readonly";
        tracer_->Record(std::move(e));
      }
      FinishTxn(*txn, /*committed=*/true);
      return;
    }
    if (csn_source_ != nullptr) {
      // Decision-time CSN from the shared source, drawn *before* Decide so
      // the number is durable inside the decision record and survives a
      // coordinator crash together with the outcome.
      txn->csn = csn_source_->Next();
      ++metrics_->csn_assigned;
      if (tracer_ != nullptr) {
        trace::Event e;
        e.kind = trace::EventKind::kCsnAssign;
        e.txn = txn->gtid;
        e.site = site_;
        e.value = txn->csn;
        tracer_->Record(std::move(e));
      }
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
  }
}

void Coordinator::OnDecided(const TxnId& gtid, bool commit) {
  CoordTxn* txn = FindTxn(gtid);
  if (txn == nullptr || txn->phase != Phase::kDeciding) return;
  // The outcome is final here: 2PC has force-written its decision record,
  // Paxos Commit's acceptors have chosen it. The participants must follow
  // it (resubmitting after a unilateral abort if they have to), so the
  // client hears it now; the ACK wait that follows is cleanup.
  if (commit) {
    recorder_->RecordGlobalCommit(gtid, site_);
    txn->phase = Phase::kCommitting;
    SendDecisions(*txn, /*commit=*/true);
    Report(*txn, /*committed=*/true);
    return;
  }
  recorder_->RecordGlobalAbort(gtid, site_);
  txn->phase = Phase::kRollingBack;
  if (txn->failure.ok()) {
    txn->failure = Status::Aborted("decision protocol aborted");
  }
  if (txn->begun.empty()) {
    FinishTxn(*txn, /*committed=*/false);
    return;
  }
  SendDecisions(*txn, /*commit=*/false);
  Report(*txn, /*committed=*/false);
}

void Coordinator::SendDecisions(CoordTxn& txn, bool commit) {
  CancelRetryTimer(txn);
  txn.retry_attempt = 0;
  txn.acks_pending.clear();
  for (SiteId s : txn.begun) {
    // Short-commit read-only participants already committed at their vote:
    // they are owed no decision and send no ack.
    if (txn.readonly_sites.count(s) != 0) continue;
    txn.acks_pending.insert(s);
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kDecisionSend;
      e.txn = txn.gtid;
      e.site = site_;
      e.peer = s;
      e.ok = commit;
      if (!commit) e.detail = txn.failure.ToString();
      tracer_->Record(std::move(e));
    }
    network_->Send(site_, Target(txn, s),
                   Message{DecisionMsg{txn.gtid, commit, txn.csn,
                                       epoch_view_}});
  }
  // Someone is always owed the decision: OnVote finishes an all-read-only
  // transaction without deciding, so a commit has a writer; an abort comes
  // before every participant voted read-only READY, and each one that did
  // not is owed the rollback.
  assert(!txn.acks_pending.empty());
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
  CoordTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) return;
  if (msg.moved_to != kInvalidSite) txn->relocated[from] = msg.moved_to;
  RefreshRouting(*txn);
  // Re-drive the refused phase immediately against the fresh map instead of
  // waiting out the retransmission timer.
  CancelRetryTimer(*txn);
  const TxnId gtid = msg.gtid;
  loop_->ScheduleAfter(0, [this, gtid]() { OnRetryTimeout(gtid); });
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
  if (txn.phase != Phase::kExecuting) return;
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
  CoordTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) {
    // Unknown here: ask the decision protocol. 2PC answers presumed abort
    // (a finished transaction was acked by every participant, so an
    // in-doubt inquirer can only concern an aborted one); Paxos Commit
    // answers from its decided cache or starts a resolution round and
    // stays silent — the requester gets its DecisionMsg when the round
    // completes.
    const std::optional<bool> outcome =
        protocol_->AnswerInquiry(msg.gtid, from);
    if (!outcome.has_value()) return;
    if (!*outcome) ++metrics_->inquiries_answered_presumed_abort;
    TraceInquiryReply(msg.gtid, from, /*commit=*/*outcome,
                      *outcome ? nullptr : "presumed-abort");
    network_->Send(site_, from,
                   Message{DecisionMsg{msg.gtid, *outcome,
                                       *outcome ? log_.DecisionCsnOf(msg.gtid)
                                                : -1,
                                       epoch_view_}});
    return;
  }
  if (txn->phase == Phase::kCommitting) {
    // Short-commit 1PC: the outcome lives at the agent, not here — stay
    // silent; the unbounded 1PC-COMMIT retransmission resolves the agent.
    if (txn->one_phase) return;
    TraceInquiryReply(msg.gtid, from, /*commit=*/true, nullptr);
    network_->Send(site_, from,
                   Message{DecisionMsg{msg.gtid, true, txn->csn,
                                       epoch_view_}});
  } else if (txn->phase == Phase::kRollingBack) {
    TraceInquiryReply(msg.gtid, from, /*commit=*/false, nullptr);
    network_->Send(site_, from,
                   Message{DecisionMsg{msg.gtid, false, /*csn=*/-1,
                                       epoch_view_}});
  }
  // Still executing/preparing/deciding: stay silent, the agent retries
  // (while deciding, the protocol is already resolving the outcome).
}

void Coordinator::TraceInquiryReply(const TxnId& gtid, SiteId peer,
                                    bool commit, const char* detail) {
  if (tracer_ == nullptr) return;
  trace::Event e;
  e.kind = trace::EventKind::kInquiryReply;
  e.txn = gtid;
  e.site = site_;
  e.peer = peer;
  e.ok = commit;
  if (detail != nullptr) e.detail = detail;
  tracer_->Record(std::move(e));
}

void Coordinator::StartRollback(CoordTxn& txn, const Status& reason,
                                consensus::DecideMode mode) {
  txn.failure = reason;
  txn.phase = Phase::kDeciding;
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
  CoordTxn* txn = FindTxn(msg.gtid);
  if (txn == nullptr) return;
  if (txn->phase != Phase::kCommitting && txn->phase != Phase::kRollingBack) {
    return;
  }
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kAckRecv;
    e.txn = msg.gtid;
    e.site = site_;
    e.peer = from;
    e.ok = msg.commit;
    tracer_->Record(std::move(e));
  }
  // As with votes: an adopting site acks under the original participant id.
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
  if (txn->one_phase && !msg.commit) {
    // The agent — the 1PC commit point — durably chose abort and already
    // recorded the global outcome; only the client report happens here.
    txn->phase = Phase::kRollingBack;
    txn->failure = Status::Aborted("participant unilaterally aborted");
  }
  if (txn->acks_pending.empty()) {
    FinishTxn(*txn, /*committed=*/txn->phase == Phase::kCommitting);
  }
}

// --- site crash recovery -----------------------------------------------------

void Coordinator::Crash() {
  ++metrics_->coordinator_crashes;
  for (auto& [gtid, txn] : txns_) {
    CancelRetryTimer(txn);
    // A decided transaction was reported at its decision: counted, and its
    // client told. The protocol keeps the outcome (2PC's decision log,
    // which Recover() re-drives; Paxos Commit's acceptors, which the
    // participants ask).
    if (txn.reported) continue;
    // Unreported and committing is a short-commit 1PC awaiting its ACK:
    // the agent holds the durable outcome and needs no re-drive, but the
    // coordinator will never hear it, so the transaction goes uncounted.
    if (txn.phase != Phase::kCommitting) {
      // Undecided towards this client either way (the pre-crash
      // coordinator can no longer report an outcome). Under 2PC the
      // transaction is presumed aborted and recorded as such; under Paxos
      // Commit the outcome may still be sealed COMMIT by the acceptors and
      // delivered by a resolver, so nothing is recorded here — the
      // resolver records whatever gets chosen.
      if (protocol_->PresumesAbortOnCrash()) {
        recorder_->RecordGlobalAbort(txn.gtid, site_);
      }
      ++metrics_->global_aborted;
      ++metrics_->global_aborted_crash;
    }
    if (txn.cb) {
      GlobalTxnResult result;
      result.gtid = txn.gtid;
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
  }
  txns_.clear();
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
  // rest are unblocked.
  for (const consensus::DecisionProtocol::InFlight& rec :
       protocol_->RecoverInFlight()) {
    CoordTxn& txn = txns_[rec.gtid];
    txn.gtid = rec.gtid;
    txn.phase = Phase::kCommitting;
    // Its client heard the commit before the crash.
    txn.reported = true;
    txn.recovered = true;
    txn.csn = rec.csn;
    txn.begun.insert(rec.participants.begin(), rec.participants.end());
    txn.start_time = loop_->Now();
    ++metrics_->coordinator_redelivered_decisions;
    SendDecisions(txn, /*commit=*/true);
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
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kRetransmit;
    e.txn = txn.gtid;
    e.site = site_;
    e.peer = peer;
    e.value = txn.retry_attempt;
    e.detail = what;
    tracer_->Record(std::move(e));
  }
}

void Coordinator::OnRetryTimeout(const TxnId& gtid) {
  CoordTxn* txn = FindTxn(gtid);
  if (txn == nullptr) return;
  txn->retry_timer = sim::kInvalidEvent;
  switch (txn->phase) {
    case Phase::kDeciding:
      // The decision protocol owns this wait (Paxos Commit arms its own
      // fast-path timeout and resolution retries); nothing to retransmit.
      return;
    case Phase::kExecuting: {
      if (txn->next_step >= txn->spec.steps.size()) return;
      ++txn->retry_attempt;
      if (txn->retry_attempt > retry_.max_attempts) {
        ++metrics_->global_aborted_timeout;
        StartRollback(*txn, Status::Unavailable(StrCat(
                                "step ", txn->next_step, " unacknowledged "
                                "after ", retry_.max_attempts, " attempts")));
        return;
      }
      // The silence may mean the step's site was removed mid-run (messages
      // to retired sites are dropped): re-target against the fresh map
      // before retransmitting.
      RefreshRouting(*txn);
      // Re-send BEGIN along with the command: either may have been the
      // loss, and the agent ignores a duplicate BEGIN.
      const GlobalTxnSpec::Step& step = txn->spec.steps[txn->next_step];
      TraceRetransmit(*txn, step.site, "dml");
      txn->begun.insert(step.site);
      network_->Send(site_, step.site,
                     Message{BeginMsg{txn->gtid, epoch_view_}});
      network_->Send(
          site_, step.site,
          Message{DmlRequestMsg{txn->gtid,
                                static_cast<int32_t>(txn->next_step),
                                step.cmd, epoch_view_}});
      ArmRetryTimer(*txn);
      break;
    }
    case Phase::kPreparing: {
      if (txn->votes_pending.empty()) return;
      ++txn->retry_attempt;
      if (txn->retry_attempt > retry_.max_attempts) {
        // No decision was taken yet: presumed abort of the unresponsive
        // participants is always safe.
        ++metrics_->global_aborted_timeout;
        ++metrics_->global_aborted_cert;
        StartRollback(*txn,
                      Status::Unavailable(StrCat(
                          txn->votes_pending.size(), " vote(s) missing "
                          "after ", retry_.max_attempts, " attempts")),
                      consensus::DecideMode::kAbortTimeout);
        return;
      }
      RefreshRouting(*txn);
      for (SiteId s : txn->votes_pending) {
        TraceRetransmit(*txn, s, "prepare");
        network_->Send(site_, Target(*txn, s),
                       Message{PrepareMsg{txn->gtid, txn->sn, epoch_view_}});
      }
      ArmRetryTimer(*txn);
      break;
    }
    case Phase::kCommitting:
    case Phase::kRollingBack: {
      if (txn->acks_pending.empty()) return;
      // A decision must reach every participant: retransmit without an
      // attempt bound, with the backoff capped at max_timeout. The agent
      // re-acks decisions for transactions in any state.
      ++txn->retry_attempt;
      RefreshRouting(*txn);
      if (txn->one_phase) {
        for (SiteId s : txn->acks_pending) {
          TraceRetransmit(*txn, s, "1pc-commit");
          network_->Send(site_, Target(*txn, s),
                         Message{OnePhaseCommitMsg{txn->gtid, epoch_view_}});
        }
        ArmRetryTimer(*txn);
        break;
      }
      const bool commit = txn->phase == Phase::kCommitting;
      for (SiteId s : txn->acks_pending) {
        TraceRetransmit(*txn, s, "decision");
        network_->Send(site_, Target(*txn, s),
                       Message{DecisionMsg{txn->gtid, commit, txn->csn,
                                           epoch_view_}});
      }
      ArmRetryTimer(*txn);
      break;
    }
  }
}

void Coordinator::Report(CoordTxn& txn, bool committed) {
  assert(!txn.reported);
  txn.reported = true;
  const sim::Duration latency = loop_->Now() - txn.start_time;
  if (committed) {
    ++metrics_->global_committed;
    metrics_->AddLatency(latency);
  } else {
    ++metrics_->global_aborted;
  }
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kTxnEnd;
    e.txn = txn.gtid;
    e.site = site_;
    e.value = latency;
    e.ok = committed;
    if (!committed) e.detail = txn.failure.ToString();
    tracer_->Record(std::move(e));
  }
  GlobalTxnResult result;
  result.gtid = txn.gtid;
  result.status = committed ? Status::Ok() : txn.failure;
  if (!committed && result.status.ok()) {
    result.status = Status::Aborted("global transaction aborted");
  }
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
    // is after. Recovered transactions span a crash: their timestamps were
    // rebuilt at recovery and would poison the tally.
    if (!txn.recovered && txn.begun.size() == 1) {
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
  if (!node.mapped().reported) Report(node.mapped(), committed);
}

}  // namespace hermes::core
