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

#ifndef HERMES_CONSENSUS_PAXOS_H_
#define HERMES_CONSENSUS_PAXOS_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "consensus/acceptor_log.h"
#include "consensus/decision.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "history/recorder.h"
#include "net/network.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::consensus {

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
  struct LeaderTxn {
    std::vector<SiteId> participants;
    bool decide_requested = false;
    DecidedFn done;
    std::set<SiteId> begin_acks;                  // membership 2b quorum
    std::map<SiteId, std::set<SiteId>> ready_2b;  // participant -> acceptors
    sim::EventId decide_timer = sim::kInvalidEvent;
  };
  struct ResolverTxn {
    int attempt = 0;
    int64_t ballot = 0;
    std::map<SiteId, core::PaxosPromiseMsg> promises;
    bool proposed = false;
    std::vector<SiteId> prop_membership;
    std::vector<SiteId> prop_ready;
    std::set<SiteId> accepts;
    sim::EventId retry_timer = sim::kInvalidEvent;
  };

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

  void CheckFastPath(const TxnId& gtid);
  void StartResolve(const TxnId& gtid);
  void SendResolvePrepare(const TxnId& gtid, ResolverTxn& r);
  void OnResolveRetry(const TxnId& gtid);
  void Finish(const TxnId& gtid, bool commit, int64_t ballot);
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
  std::map<TxnId, LeaderTxn> leaders_;
  std::map<TxnId, ResolverTxn> resolvers_;
  // Chosen outcomes this site has learned. Survives Forget so late
  // inquiries still get a definite answer; wiped by Crash (the acceptor
  // quorum is the durable truth).
  std::map<TxnId, bool> decided_;
  // Sites owed a DecisionMsg once the outcome is known (inquirers and the
  // escalating site itself).
  std::map<TxnId, std::set<SiteId>> requesters_;
  AcceptorLog log_;
};

}  // namespace hermes::consensus

#endif  // HERMES_CONSENSUS_PAXOS_H_
