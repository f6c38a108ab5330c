// Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"):
// a non-blocking replacement for the 2PC decision step.
//
// One instance of this class runs at every site and plays three roles:
//
//  - *Leader* (DecisionProtocol for the co-located Coordinator): announces
//    the participant set to the 2F+1 acceptors at ballot 0 and watches for
//    the fast path — membership chosen plus an F+1 quorum of ballot-0
//    READY accepts for every participant instance.
//  - *Acceptor* (sites 0..2F): one durable state machine per transaction
//    holding the promised ballot, the accepted membership value and the
//    accepted value of each participant's vote instance. Every accept is
//    force-written to the AcceptorLog before the 2b reply leaves the site,
//    so any F acceptor crashes are survivable.
//  - *Resolver* (leader election): any site can finish the protocol by
//    running classic Paxos phases 1-2 over all of the transaction's
//    instances at a site-unique ballot. Prepared agents escalate here when
//    their INQUIRY backoff exhausts (the coordinator is presumed dead).
//
// The participant set is itself consensus state (a per-transaction
// "membership synod"): the leader proposes the real set at ballot 0, and a
// resolver that finds no accepted membership in its promise quorum proposes
// the empty set — an abort marker. The transaction commits iff the chosen
// membership M is non-empty and every instance in M chose READY; this makes
// "which votes must be READY" itself crash-consistent, so two independent
// resolvers can never split the outcome.
//
// The leader and resolver roles are one state machine per transaction:
// PaxosState says where a transaction is at this site, PaxosInput names
// what can happen to it, and kPaxosTransitions lists every transition.
// DESIGN.md, "Paxos Commit state machine", walks through them.

#ifndef HERMES_CONSENSUS_PAXOS_H_
#define HERMES_CONSENSUS_PAXOS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consensus/acceptor_log.h"
#include "consensus/decision.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/transitions.h"
#include "history/recorder.h"
#include "net/network.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::consensus {

// Where a transaction is at its leader or resolver site:
//  * kLeading: BeginDecision sent the participant set to the acceptors at
//    ballot 0, and the coordinator has not asked for the outcome;
//  * kAwaitingFastPath: the coordinator asked to commit; the ballot-0
//    quorum may close, or the decide timer starts a resolver round;
//  * kPromising: a resolver round sent its prepare (phase 1a) and counts
//    promises;
//  * kProposing: the promise quorum is in, the proposal (phase 2a) is out,
//    and the round counts accepts;
//  * kCommitted, kAborted: this site learned the outcome;
//  * kAbortedPromising, kAbortedProposing: a definite abort was sealed
//    while this site's round was promising or proposing; the round runs on
//    to its retry timer, which leaves kAborted.
// kUnknown: this site holds nothing for it (never led or resolved here,
// or lost in a crash). The leader's participants, the coordinator's
// callback and the ballot-0 tallies stay in the record across the resolver
// states: the fast path may still close while a round runs.
enum class PaxosState : uint8_t {
  kUnknown, kLeading, kAwaitingFastPath, kPromising, kProposing, kCommitted,
  kAborted, kAbortedPromising, kAbortedProposing,
};

// What can happen to a transaction: the local coordinator asks for the
// outcome (one input per DecideMode) or begins it (kBegin); a
// participant's inquiry reaches the coordinator that forgot it
// (kInquiry), or the local agent gives up on its coordinator
// (kEscalate); an acceptor replies (kBeginAck, kVoted, kPromise,
// kAccepted); the decide timer or the resolver's retry timer fires; the
// coordinator forgets it (kForget). Only the local calls, kDecideCommit
// to kEscalate, may start a record.
enum class PaxosInput : uint8_t {
  kDecideCommit, kDecideAbortFinal, kDecideAbortTimeout, kBegin, kInquiry,
  kEscalate, kBeginAck, kVoted, kPromise, kAccepted, kDecideTimer,
  kRetryTimer, kForget,
};

using PaxosTransition = core::Transition<PaxosState, PaxosInput>;

// Every transition of the leader and resolver roles; DESIGN.md, "Paxos
// Commit state machine", lists them by input. Debug builds assert on an
// input whose (state, input) pair is on no edge, and on a next state no
// edge allows.
inline constexpr auto kPaxosTransitions = [] {
  using enum PaxosState;
  using enum PaxosInput;
  const auto in = [](auto... inputs) { return core::Inputs(inputs...); };
  const uint32_t replies = in(kBeginAck, kVoted, kPromise, kAccepted);
  const uint32_t decide =
      in(kDecideCommit, kDecideAbortFinal, kDecideAbortTimeout);
  const uint32_t round = replies | in(kDecideCommit, kDecideAbortTimeout,
                                      kInquiry, kEscalate, kDecideTimer);
  return std::to_array<PaxosTransition>({
      // Inputs a state absorbs or answers in place: replies to a ballot
      // that is over, or below a quorum; ballot-0 tallies; a Decide or an
      // inquiry answered from the learned outcome, an escalation that only
      // counts an election there; the coordinator's intent and its waiting
      // requesters, taken by a running round; a decide timer that fires
      // while a round runs; a stalled round's retry at a higher ballot.
      {kUnknown, replies, kUnknown},
      {kLeading, in(kBeginAck, kVoted), kLeading},
      {kAwaitingFastPath, in(kBeginAck, kVoted), kAwaitingFastPath},
      {kPromising, round | in(kRetryTimer), kPromising},
      {kProposing, round, kProposing},
      {kCommitted, replies | decide | in(kInquiry, kEscalate, kForget),
       kCommitted},
      {kAborted, replies | decide | in(kInquiry, kEscalate), kAborted},
      {kAbortedPromising, replies | in(kInquiry, kEscalate),
       kAbortedPromising},
      {kAbortedProposing, replies | in(kInquiry, kEscalate),
       kAbortedProposing},
      // The leader announces the participants; the coordinator asks to
      // commit. The fast path closes when the membership and every
      // participant's READY are accepted by a ballot-0 quorum, also while
      // a resolver round runs.
      {kUnknown, in(kBegin), kLeading},
      {kLeading, in(kDecideCommit), kAwaitingFastPath},
      {kLeading, in(kDecideCommit), kCommitted},
      {kAwaitingFastPath, in(kBeginAck, kVoted), kCommitted},
      {kPromising, in(kBeginAck, kVoted, kDecideCommit), kCommitted},
      {kProposing, in(kBeginAck, kVoted, kDecideCommit), kCommitted},
      // A resolver round: an inquiry or an escalation with no outcome
      // here, missing votes, or the fast path timing out start it; its
      // promise quorum proposes, a stalled round retries, and its accept
      // quorum decides.
      {kUnknown, in(kInquiry, kEscalate), kPromising},
      {kLeading, in(kDecideAbortTimeout, kEscalate), kPromising},
      {kAwaitingFastPath, in(kEscalate, kDecideTimer), kPromising},
      {kPromising, in(kPromise), kProposing},
      {kProposing, in(kRetryTimer), kPromising},
      {kProposing, in(kAccepted), kCommitted},
      {kProposing, in(kAccepted), kAborted},
      // A definite refusal seals the abort at once; a round already out
      // runs on (it may still propose, and count its accept quorum) until
      // its retry timer ends it.
      {kUnknown, in(kDecideAbortFinal), kAborted},
      {kLeading, in(kDecideAbortFinal), kAborted},
      {kPromising, in(kDecideAbortFinal), kAbortedPromising},
      {kProposing, in(kDecideAbortFinal), kAbortedProposing},
      {kAbortedPromising, in(kPromise), kAbortedProposing},
      {kAbortedPromising, in(kRetryTimer), kAborted},
      {kAbortedProposing, in(kRetryTimer), kAborted},
  });
}();

struct PaxosConfig {
  SiteId site = kInvalidSite;
  int num_sites = 0;
  // Fault tolerance: 2f+1 acceptors (sites 0..2f) survive any f crashes.
  // Requires 0 <= f and 2f+1 <= num_sites (core::MdbsConfig::Validate).
  int f = 1;
};

class PaxosCommit : public DecisionProtocol {
 public:
  // `tracer` may be null. All pointers are unowned and must outlive this.
  PaxosCommit(const PaxosConfig& config, sim::EventLoop* loop,
              net::Network* network, history::Recorder* recorder,
              core::Metrics* metrics, trace::Tracer* tracer = nullptr);
  ~PaxosCommit() override;

  PaxosCommit(const PaxosCommit&) = delete;
  PaxosCommit& operator=(const PaxosCommit&) = delete;

  // --- DecisionProtocol (leader role, driven by the local Coordinator) ---
  void BeginDecision(const TxnId& gtid,
                     const std::vector<SiteId>& participants) override;
  void Decide(const TxnId& gtid, DecideMode mode,
              const std::vector<SiteId>& participants, int64_t csn,
              DecidedFn done) override;
  std::optional<bool> AnswerInquiry(const TxnId& gtid,
                                    SiteId requester) override;
  void Forget(const TxnId& gtid) override;
  void Crash() override;
  std::vector<InFlight> RecoverInFlight() override;
  bool PresumesAbortOnCrash() const override { return false; }

  // Rebuilds the acceptor state machines from the durable log after a site
  // crash (volatile leader/resolver state is not rebuilt: prepared agents
  // re-escalate). Called by Mdbs::RecoverSite.
  void Recover();

  // Paxos protocol messages routed here by Mdbs.
  void Handle(SiteId from, const core::Message& msg);

  // Participant (RM) side: broadcasts this site's READY/REFUSE vote to the
  // acceptors at ballot 0. Invoked from the agent's vote hook, alongside
  // the classic VoteMsg to the coordinator.
  void BroadcastVote(const TxnId& gtid, bool ready, SiteId leader);

  // A prepared agent's inquiry backoff ran out: assume the coordinator is
  // dead and run a resolution round (leader election).
  void Escalate(const TxnId& gtid, SiteId coordinator, int attempt);

  const AcceptorLog& log() const { return log_; }
  // Where a transaction is at this site's leader or resolver (tests).
  PaxosState StateOf(const TxnId& gtid) const;
  int num_acceptors() const { return 2 * config_.f + 1; }
  int quorum() const { return config_.f + 1; }

 private:
  // One participant-vote instance as an acceptor sees it.
  struct Slot {
    int64_t ballot = -1;  // -1 = nothing accepted
    bool ready = false;
  };
  struct AcceptorTxn {
    int64_t promised = 0;  // highest promised ballot (0 = fast path open)
    int64_t membership_ballot = -1;
    std::vector<SiteId> membership;
    std::map<SiteId, Slot> votes;  // by participant
  };
  // The leader's and resolver's data of a transaction whose outcome this
  // site has not learned, or whose round runs on past a sealed abort.
  struct Open {
    // The leader's part: the participant set, the coordinator's callback
    // once it asked for the outcome, and the ballot-0 tallies.
    std::vector<SiteId> participants;
    DecidedFn done;
    std::set<SiteId> begin_acks;                  // membership 2b quorum
    std::map<SiteId, std::set<SiteId>> ready_2b;  // participant -> acceptors
    sim::EventId decide_timer = sim::kInvalidEvent;
    // Sites owed a DecisionMsg once a round decides (inquirers and the
    // escalating site itself).
    std::set<SiteId> requesters;
    // The resolver round.
    int attempt = 0;
    int64_t ballot = 0;
    std::map<SiteId, core::PaxosPromiseMsg> promises;
    std::vector<SiteId> prop_membership;
    std::vector<SiteId> prop_ready;
    std::set<SiteId> accepts;
    sim::EventId retry_timer = sim::kInvalidEvent;
  };
  // One transaction this site leads, resolves, or has learned the outcome
  // of. `open` is set in every state but kCommitted and kAborted: a
  // learned outcome keeps only its state. It outlives Forget, so late
  // inquiries still get a definite answer, and a crash wipes it (the
  // acceptor quorum is the durable truth).
  struct ProposerTxn {
    PaxosState state = PaxosState::kUnknown;
    std::unique_ptr<Open> open;
  };

  // Looks `gtid` up once and applies `input` to it: asserts that the table
  // allows the pair, runs `transition(txn, state)` (`txn` null in
  // kUnknown, a fresh record with its `open` data when a local call starts
  // one), and asserts that the state it led to is allowed too (debug
  // builds).
  template <typename Fn>
  void Apply(const TxnId& gtid, PaxosInput input, Fn&& transition);

  // Acceptor handlers.
  void OnBegin(SiteId from, const core::PaxosBeginMsg& msg);
  void OnVote(SiteId from, const core::PaxosVoteMsg& msg);
  void OnPrepare(SiteId from, const core::PaxosPrepareMsg& msg);
  void OnPropose(SiteId from, const core::PaxosProposeMsg& msg);
  // Leader / resolver handlers.
  void OnBeginAck(SiteId from, const core::PaxosBeginAckMsg& msg);
  void OnVoted(SiteId from, const core::PaxosVotedMsg& msg);
  void OnPromise(SiteId from, const core::PaxosPromiseMsg& msg);
  void OnAccepted(SiteId from, const core::PaxosAcceptedMsg& msg);

  void OnDecideTimer(const TxnId& gtid);
  void OnRetryTimer(const TxnId& gtid);

  void CheckFastPath(const TxnId& gtid, ProposerTxn& t);
  // Sends the round's prepare (phase 1a) at the ballot of its attempt;
  // the first attempt starts a resolution.
  void Resolve(const TxnId& gtid, ProposerTxn& t);
  void Finish(const TxnId& gtid, ProposerTxn& t, bool commit, int64_t ballot);
  void SendToAcceptors(const core::Message& msg);
  int64_t NextBallot(int attempt) const {
    return static_cast<int64_t>(attempt) * config_.num_sites + config_.site +
           1;
  }
  void TraceEvent(trace::EventKind kind, const TxnId& gtid, SiteId peer,
                  int64_t value, bool ok);
  void CancelTimer(sim::EventId& id);
  // Force-writes an acceptor record (before the reply leaves) and counts it.
  void ForceLog(AcceptorLogRecord record);

  PaxosConfig config_;
  sim::EventLoop* loop_;
  net::Network* network_;
  history::Recorder* recorder_;
  core::Metrics* metrics_;
  trace::Tracer* tracer_;

  // std::map keyed by TxnId: iterated on Crash(), so ordering must be
  // deterministic.
  std::map<TxnId, AcceptorTxn> acceptor_;
  std::map<TxnId, ProposerTxn> txns_;
  AcceptorLog log_;
};

}  // namespace hermes::consensus

#endif  // HERMES_CONSENSUS_PAXOS_H_
