// The Coordinator of the Distributed Transaction Manager.
//
// One Coordinator instance runs at each coordinating site and manages all
// global transactions submitted there: it decomposes a global transaction
// into global subtransactions (at most one per participating site), submits
// the DML commands one by one, and — upon the application's Commit — runs
// the standard 2PC protocol against the 2PC Agents. The serial number SN(k)
// is generated from the coordinating site's clock when the Commit is
// submitted and travels with the PREPARE messages (section 5.2).
//
// Optional hooks let the CGM baseline interpose a centralized scheduler
// (global locks before each step, commit-graph admission before PREPARE)
// without changing this class.
//
// The coordinator is one state machine per global transaction: CoordState
// says where a transaction is, CoordInput names what can happen to it, and
// kCoordTransitions lists every transition the coordinator may make.
// DESIGN.md, "Coordinator state machine", maps each to section 5.2 and to
// 2PC presumed abort.

#ifndef HERMES_CORE_COORDINATOR_H_
#define HERMES_CORE_COORDINATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "cert/certifier.h"
#include "common/ids.h"
#include "common/status.h"
#include "consensus/two_pc.h"
#include "core/coordinator_log.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/transitions.h"
#include "history/recorder.h"
#include "net/network.h"
#include "shard/shard_map.h"
#include "sim/event_loop.h"
#include "sim/site_clock.h"
#include "trace/trace.h"

namespace hermes::core {

// A global transaction: an ordered list of (site, command) steps. Commands
// run strictly in order (the application computes between steps; results
// are returned per step).
struct GlobalTxnSpec {
  struct Step {
    SiteId site = kInvalidSite;
    db::Command cmd;
    // Application-level validation: if set and the command affects fewer
    // rows, the coordinator aborts the global transaction (e.g. a booking
    // update whose availability predicate matched nothing).
    std::optional<int64_t> min_affected;
  };
  std::vector<Step> steps;
};

struct GlobalTxnResult {
  TxnId gtid;
  Status status;
  // One entry per completed step.
  std::vector<db::CmdResult> results;
  sim::Duration latency = 0;
  bool certification_refused = false;
};

using GlobalTxnCallback = std::function<void(const GlobalTxnResult&)>;

// Timeout/retransmission tuning for unreliable networks. With a reliable
// network the timers are armed and cancelled but never fire; under message
// loss they drive bounded-backoff retransmission of BEGIN+DML and PREPARE
// (giving up into a presumed abort after max_attempts) and unbounded
// retransmission of COMMIT/ROLLBACK decisions (a decision, once taken,
// must reach every participant — the agents' handlers are duplicate-safe).
struct CoordinatorRetryConfig {
  // First retransmission timeout; doubled per attempt up to max_timeout.
  sim::Duration timeout = 25 * sim::kMillisecond;
  sim::Duration max_timeout = 400 * sim::kMillisecond;
  // Attempts for DML steps and PREPARE before aborting the transaction.
  int max_attempts = 10;
};

// CGM (and other DTM variants) interpose here.
struct CoordinatorHooks {
  // Invoked before executing each step; call done(OK) to proceed,
  // done(error) to abort the global transaction.
  std::function<void(const TxnId&, const GlobalTxnSpec::Step&,
                     std::function<void(const Status&)>)>
      before_step;
  // Invoked when the application submits Commit, before PREPARE fan-out;
  // call done() to send the PREPAREs. It cannot refuse: a hook that must
  // hold the commit back (CGM's commit graph) calls done() later.
  std::function<void(const TxnId&, const std::vector<SiteId>&,
                     std::function<void()>)>
      before_prepare;
  // Invoked when the transaction finishes (acks collected), which may be
  // after its client heard the outcome.
  std::function<void(const TxnId&, bool committed)> on_finished;
};

// Where a global transaction is at its coordinator:
//  * kExecuting: its steps run one by one (a step's hook may hold it);
//  * kAdmitting: the application committed, and the before_prepare hook
//    (CGM's commit-graph admission) holds the PREPAREs back;
//  * kPreparing: the PREPAREs are out, with SN(k), and votes are pending;
//  * kDeciding: the decision protocol owns the outcome (2PC decides in the
//    instant it is asked; Paxos Commit waits for the acceptor round);
//  * kOnePhase: the short-commit 1PC-COMMIT is out, and the ACK carries
//    the agent's outcome;
//  * kCommitting, kAborting: the decision is out, the client was told, and
//    ACKs are pending;
//  * kRedelivering: a commit decision rebuilt from the log by Recover().
// kUnknown: the coordinator holds nothing for it (never submitted here,
// finished, or lost in a crash).
enum class CoordState : uint8_t {
  kUnknown, kExecuting, kAdmitting, kPreparing, kDeciding, kOnePhase,
  kCommitting, kAborting, kRedelivering,
};

// What can happen to a global transaction: the application submits it
// (kSubmit) and its first step starts in a zero-delay event (kStart); a
// before_step hook grants or refuses a step (kStepGranted) and the
// before_prepare hook admits the commit (kAdmitted); a participant's
// message arrives (kDmlResponse, kVote, kAck, kInquiry, kEpochRefused);
// the decision protocol answers (kDecided); the retry timer fires, or an
// epoch refusal re-drives at once (kRetryTimer); the site crashes
// (kCrash) and recovers (kRecover).
enum class CoordInput : uint8_t {
  kSubmit, kStart, kStepGranted, kDmlResponse, kAdmitted, kVote, kDecided,
  kAck, kInquiry, kEpochRefused, kRetryTimer, kCrash, kRecover,
};

using CoordTransition = Transition<CoordState, CoordInput>;

// Every transition the coordinator makes; DESIGN.md, "Coordinator state
// machine", lists them by input. Debug builds assert on an input whose
// (state, input) pair is on no edge, and on a next state no edge allows.
inline constexpr auto kCoordTransitions = [] {
  using enum CoordState;
  using enum CoordInput;
  const auto in = [](auto... inputs) { return Inputs(inputs...); };
  const uint32_t late =
      in(kDmlResponse, kVote, kAck, kInquiry, kEpochRefused, kRetryTimer);
  return std::to_array<CoordTransition>({
      // Inputs a state absorbs or answers in place: late and duplicate
      // messages (under Paxos Commit, ACKs of a decision a resolver at this
      // site delivered before the coordinator asked); inquiries, answered
      // from the outcome or left to the agent's retry; an epoch refusal,
      // whose send is re-driven at once; a retransmission; a step granted
      // or refused by its hook and sent.
      {kUnknown, late | in(kStart), kUnknown},
      {kExecuting,
       in(kStart, kStepGranted, kDmlResponse, kEpochRefused, kRetryTimer),
       kExecuting},
      {kAdmitting, in(kDmlResponse), kAdmitting},
      {kPreparing, late, kPreparing},
      {kDeciding, late, kDeciding},
      {kOnePhase, in(kDmlResponse, kEpochRefused, kRetryTimer), kOnePhase},
      {kCommitting, late, kCommitting},
      {kAborting, late, kAborting},
      {kRedelivering, in(kAck, kInquiry, kEpochRefused, kRetryTimer),
       kRedelivering},
      // The last step's response: the application commits (section 5.2),
      // and SN(k) goes out with the PREPAREs, after admission, or a
      // single-site transaction takes the short-commit 1PC.
      {kUnknown, in(kSubmit), kExecuting},
      {kExecuting, in(kDmlResponse), kAdmitting},
      {kExecuting, in(kDmlResponse), kPreparing},
      {kExecuting, in(kDmlResponse), kOnePhase},
      {kAdmitting, in(kAdmitted), kPreparing},
      // Aborts before the votes: a failed or refused step, step retries
      // exhausted, or no steps at all; with no participant begun there is
      // no decision to deliver. Both built-in protocols seal such an abort
      // at once, but the DecisionProtocol interface lets one answer later.
      {kExecuting, in(kStepGranted, kDmlResponse, kRetryTimer), kAborting},
      {kExecuting, in(kStart, kStepGranted), kUnknown},
      {kExecuting, in(kStart, kStepGranted, kDmlResponse, kRetryTimer),
       kDeciding},
      // The votes: a REFUSE or missing votes abort; all READY commit (2PC
      // forces the decision at once, Paxos Commit waits for the acceptors,
      // which also seal a timeout abort); all read-only READY finish.
      {kPreparing, in(kVote, kRetryTimer), kAborting},
      {kPreparing, in(kVote), kCommitting},
      {kPreparing, in(kVote, kRetryTimer), kDeciding},
      {kPreparing, in(kVote), kUnknown},
      {kDeciding, in(kDecided), kCommitting},
      {kDeciding, in(kDecided), kAborting},
      {kDeciding, in(kDecided), kUnknown},
      // The last ACK ends the transaction (presumed abort: an aborted one
      // is forgotten, and so is a commit every participant acked).
      {kOnePhase, in(kAck), kUnknown},
      {kCommitting, in(kAck), kUnknown},
      {kAborting, in(kAck), kUnknown},
      {kRedelivering, in(kAck), kUnknown},
      // A crash loses every transaction; recovery re-drives the logged
      // commit decisions.
      {kExecuting, in(kCrash), kUnknown},
      {kAdmitting, in(kCrash), kUnknown},
      {kPreparing, in(kCrash), kUnknown},
      {kDeciding, in(kCrash), kUnknown},
      {kOnePhase, in(kCrash), kUnknown},
      {kCommitting, in(kCrash), kUnknown},
      {kAborting, in(kCrash), kUnknown},
      {kRedelivering, in(kCrash), kUnknown},
      {kUnknown, in(kRecover), kRedelivering},
  });
}();

class Coordinator {
 public:
  // `tracer` may be null (tracing disabled).
  Coordinator(SiteId site, sim::EventLoop* loop, net::Network* network,
              const sim::SiteClock* clock, history::Recorder* recorder,
              Metrics* metrics, trace::Tracer* tracer = nullptr,
              const CoordinatorRetryConfig& retry = {});
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // Starts a global transaction; the callback fires once, when its outcome
  // is final: at the commit or abort decision (2PC's forced decision
  // record, Paxos Commit's chosen outcome), at the votes when every
  // participant was read-only, and at the ACK under short-commit 1PC,
  // whose agent is the commit point. The ACK wait after a decision is
  // cleanup the client does not wait for.
  TxnId Submit(GlobalTxnSpec spec, GlobalTxnCallback cb);

  // Coordinator-bound protocol messages (DML-RESP, READY/REFUSE, ACK).
  void Handle(SiteId from, const Message& msg);

  void set_hooks(CoordinatorHooks hooks) { hooks_ = std::move(hooks); }

  // Ablation (E10, `bench_suite --only=ablation_order`): generate the
  // serial number when the transaction is *submitted* instead of when the
  // application commits — the "predefined total order" alternative the
  // paper rejects in section 5.2 as overly restrictive.
  void set_sn_at_submit(bool v) { sn_at_submit_ = v; }

  // Ablation for the lost-decision test: skip the decision force-write so a
  // crash between the commit decision and its delivery forgets the decision
  // (and the recovered coordinator wrongly presumes abort).
  void set_skip_decision_log_for_test(bool v) {
    own_protocol_->set_skip_decision_log(v);
  }

  // Installs an alternative commit-decision protocol (e.g. Paxos Commit).
  // Unowned; must outlive this coordinator. By default the built-in 2PC
  // presumed-abort protocol (decide-and-log against `log_`) is used.
  void set_decision_protocol(consensus::DecisionProtocol* protocol) {
    protocol_ = protocol;
  }

  // Short-commit fast paths: 1PC for single-site transactions (the lone
  // participant becomes the commit point) and no decision round for
  // read-only participants. 2PC-only and without hooks: MdbsConfig and
  // cgm::CgmConfig Validate refuse it under Paxos Commit and CGM.
  void set_short_commit(bool v) { short_commit_ = v; }

  // CSN certification: the shared decision-time sequence source (owned by
  // Mdbs). When set, every commit decision draws a CSN before Decide() so
  // the number is durable inside the decision record and travels with the
  // COMMIT messages. Null under the SN scheme.
  void set_csn_source(cert::CsnSource* source) { csn_source_ = source; }

  // Shard directory (owned by Mdbs; null = sharding disabled). When set,
  // every agent-bound message is stamped with this coordinator's epoch
  // view; an EpochRefusedMsg makes it re-fetch the map, re-target pending
  // steps by key ownership, and re-drive the refused phase.
  void set_directory(const shard::Directory* directory) {
    directory_ = directory;
    if (directory != nullptr) epoch_view_ = directory->epoch();
  }

  // --- site crash recovery ------------------------------------------------
  // Crash() discards all volatile state: every undecided transaction is
  // failed towards its client (presumed abort — participants learn the
  // outcome through inquiries); decided ones were already reported and
  // fall silent until recovery.
  // Only the coordinator log survives. Recover() force-writes a new
  // submission epoch (so fresh transaction ids cannot collide with
  // pre-crash ones) and re-drives COMMIT delivery for every decision still
  // in the log. Called by Mdbs::CrashSite / RecoverSite.
  void Crash();
  void Recover();

  const CoordinatorLog& log() const { return log_; }
  SiteId site() const { return site_; }
  int64_t active_transactions() const {
    return static_cast<int64_t>(txns_.size());
  }
  // Where a global transaction is at this coordinator (tests).
  CoordState StateOf(const TxnId& gtid) const;

 private:
  struct CoordTxn {
    TxnId gtid;
    CoordState state = CoordState::kExecuting;
    GlobalTxnSpec spec;
    GlobalTxnCallback cb;
    size_t next_step = 0;
    std::set<SiteId> begun;
    std::vector<db::CmdResult> results;
    SerialNumber sn;
    // Decision-time commit sequence number (CSN certifier); -1 under SN.
    int64_t csn = -1;
    // Participants whose READY vote carried read_only: already committed
    // locally, excluded from the decision fan-out and the ack wait.
    std::set<SiteId> readonly_sites;
    std::set<SiteId> votes_pending;
    std::set<SiteId> acks_pending;
    Status failure;
    bool certification_refused = false;
    sim::Time start_time = 0;
    // When Commit was submitted — the start of the commit protocol path
    // (prepare/vote/decision rounds, or the 1PC round). The single-site
    // latency metric is measured from here.
    sim::Time commit_start = 0;
    // One retransmission timer per transaction, re-armed by each state's
    // send: it covers the in-flight DML step while executing, outstanding
    // votes while preparing and outstanding acks once the decision or the
    // 1PC-COMMIT is out.
    sim::EventId retry_timer = sim::kInvalidEvent;
    int retry_attempt = 0;
    // Participants whose prepared residue migrated in a shard handoff:
    // decisions/prepares for `key` are delivered to `value`, which answers
    // under the original id via on_behalf_of. Learned from EpochRefusedMsg.
    std::map<SiteId, SiteId> relocated;
  };

  // Applies one input to `gtid`, found in state `from`: asserts that the
  // table allows the pair, runs `transition`, and asserts that the state
  // it led to is allowed too (debug builds). A crash inside the client
  // callback wipes the state instead, which is no transition. `gtid` is a
  // copy: the transition may erase the transaction that holds it.
  template <typename Fn>
  void Apply(TxnId gtid, CoordState from, CoordInput input, Fn&& transition);
  // Looks `gtid` up once and applies `input` to it: `transition(txn,
  // state)`, with `txn` null in kUnknown.
  template <typename Fn>
  void Apply(const TxnId& gtid, CoordInput input, Fn&& transition);
  // Records one trace event of `gtid` at this site; `fill` sets the fields
  // past kind, transaction, site and `peer`.
  template <typename Fill>
  void Trace(trace::EventKind kind, const TxnId& gtid, SiteId peer,
             Fill&& fill);

  void OnStart(const TxnId& gtid);
  void OnStepGranted(const TxnId& gtid, const Status& status);
  void OnDmlResponse(const DmlResponseMsg& msg);
  void OnAdmitted(const TxnId& gtid);
  void OnVote(SiteId from, const VoteMsg& msg);
  // The decision protocol's verdict arrived (synchronously for 2PC, after
  // the acceptor round for Paxos Commit): record the outcome and fan it
  // out. `commit` may override the requested intent.
  void OnDecided(const TxnId& gtid, bool commit);
  void OnAck(SiteId from, const AckMsg& msg);
  void OnInquiry(SiteId from, const InquiryMsg& msg);
  void OnEpochRefused(SiteId from, const EpochRefusedMsg& msg);
  void OnRetryTimeout(const TxnId& gtid);

  // Runs the next step, or commits after the last one.
  void ExecuteNextStep(CoordTxn& txn);
  // Enters kPreparing: draws SN(k) and sends the PREPAREs.
  void Prepare(CoordTxn& txn);
  // Enters kDeciding with an abort intent for `reason`.
  void StartRollback(CoordTxn& txn, const Status& reason,
                     consensus::DecideMode mode =
                         consensus::DecideMode::kAbortFinal);
  // Each state's send, which serves its first send and every
  // retransmission: the current step (a resend repeats BEGIN), the
  // PREPAREs to the pending voters, the 1PC-COMMIT, and the decision to the
  // participants it is owed. A first send records its own trace kind; a
  // resend records kRetransmit and counts it. Each arms the retry timer.
  void SendStep(CoordTxn& txn, bool resend);
  void SendPrepares(CoordTxn& txn, bool resend);
  void SendOnePhaseCommit(CoordTxn& txn, bool resend);
  void SendDecisions(CoordTxn& txn, bool resend);
  void TraceRetransmit(const CoordTxn& txn, SiteId peer, const char* what);
  // Where messages for participant `s` of `txn` go: its relocation if the
  // residue migrated, else the directory's retired-site forward, else `s`.
  SiteId Target(const CoordTxn& txn, SiteId s) const;
  // Re-fetches the shard map when the cached view is stale and re-targets
  // the transaction's unexecuted steps by key ownership.
  void RefreshRouting(CoordTxn& txn);
  // Tells the client the final outcome, exactly once per transaction:
  // counts it, samples its latency, records kTxnEnd and runs the callback.
  // The callback may re-enter the coordinator (submit, even crash the
  // site), so callers touch `txn` no more after it.
  void Report(CoordTxn& txn, bool committed);
  // Every ACK is in (or no participant is owed one): forgets the decision,
  // runs the on_finished hook, erases the transaction and reports it if
  // its state has not.
  void FinishTxn(CoordTxn& txn, bool committed);

  void ArmRetryTimer(CoordTxn& txn);
  void CancelRetryTimer(CoordTxn& txn);

  SiteId site_;
  sim::EventLoop* loop_;
  net::Network* network_;
  history::Recorder* recorder_;
  Metrics* metrics_;
  trace::Tracer* tracer_;
  SerialNumberGenerator sn_generator_;
  CoordinatorHooks hooks_;
  CoordinatorRetryConfig retry_;

  bool sn_at_submit_ = false;
  bool short_commit_ = false;
  cert::CsnSource* csn_source_ = nullptr;
  const shard::Directory* directory_ = nullptr;
  // Cached shard-map epoch, stamped on every agent-bound message; 0 when
  // sharding is disabled (agents never refuse epoch 0).
  int64_t epoch_view_ = 0;
  // Transaction ids are (epoch * stride + seq): next_seq_ is volatile and
  // resets on crash, but the epoch — recovered from the force-written epoch
  // records in the log — guarantees post-recovery ids never collide with
  // pre-crash ones.
  static constexpr int64_t kEpochSeqStride = 1'000'000'000;
  int64_t epoch_ = 0;
  int64_t next_seq_ = 0;
  CoordinatorLog log_;
  // The built-in 2PC decide-and-log protocol (always constructed: it owns
  // the skip_decision_log test ablation) and the active protocol, which an
  // Mdbs running Paxos Commit overrides via set_decision_protocol.
  std::unique_ptr<consensus::TwoPCDecision> own_protocol_;
  consensus::DecisionProtocol* protocol_;
  // Hashed: looked up once per input. Crash() schedules the client
  // callbacks in its iteration order, so the hash is part of behaviour.
  std::unordered_map<TxnId, CoordTxn> txns_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_COORDINATOR_H_
