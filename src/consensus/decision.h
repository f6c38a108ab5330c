// Protocol-neutral commit-decision interface.
//
// The paper's decentralized 2PC bakes the decide-and-log step into the
// coordinator: all READY votes collected -> force-write a decision record ->
// fan out COMMIT. Gray & Lamport's Paxos Commit replaces that single
// force-write with a replicated consensus round, and Chockler & Gotsman's
// ACP formulation shows the two are instances of one atomic-commitment
// decision service. DecisionProtocol is that service boundary: the
// coordinator keeps vote collection, retransmission and decision fan-out,
// and delegates only "turn my intent into a durable, recoverable outcome"
// to the installed protocol.
//
// Contract:
//  - BeginDecision() is called when PREPARE fans out, announcing the
//    participant set (Paxos Commit replicates it; 2PC ignores it).
//  - Decide() is called exactly once per transaction with the coordinator's
//    intent. `done` fires exactly once with the *decided* outcome — possibly
//    synchronously (2PC always), possibly later (Paxos acceptor round), and
//    possibly overriding the intent (a timeout-abort that the acceptors had
//    already sealed as commit).
//  - AnswerInquiry() resolves a participant INQUIRY: a value when the
//    outcome is known or presumable, nullopt while resolution is in flight
//    (the protocol then owes the requester a DecisionMsg once decided).
//  - Crash()/RecoverInFlight() model the coordinator site failing: only
//    what the protocol force-wrote (2PC decision log, Paxos acceptor logs
//    on *other* sites) survives; RecoverInFlight returns the decided
//    transactions whose COMMIT delivery must be re-driven.

#ifndef HERMES_CONSENSUS_DECISION_H_
#define HERMES_CONSENSUS_DECISION_H_

#include <functional>
#include <optional>
#include <vector>

#include "common/ids.h"

namespace hermes::consensus {

enum class ProtocolKind : uint8_t { k2PC = 0, kPaxosCommit = 1 };

const char* ProtocolKindName(ProtocolKind kind);

// The coordinator's intent when it asks for an outcome.
enum class DecideMode : uint8_t {
  kCommit,        // every participant voted READY
  kAbortFinal,    // a definite refusal/failure: no READY quorum can exist
  kAbortTimeout,  // votes missing after retries; outcome genuinely open
};

class DecisionProtocol {
 public:
  // Invoked exactly once per Decide() with the decided outcome.
  using DecidedFn = std::function<void(const TxnId& gtid, bool commit)>;

  // A decided-commit transaction whose COMMIT delivery survived a crash
  // and must be re-driven during recovery.
  struct InFlight {
    TxnId gtid;
    std::vector<SiteId> participants;
    int64_t csn = -1;  // decision-time CSN, when one was recorded
  };

  virtual ~DecisionProtocol() = default;

  virtual void BeginDecision(const TxnId& gtid,
                             const std::vector<SiteId>& participants) = 0;
  // `csn` is the decision-time commit sequence number to make durable with
  // the outcome (-1 under the SN scheme, where none exists). Protocols that
  // do not persist per-decision metadata may ignore it.
  virtual void Decide(const TxnId& gtid, DecideMode mode,
                      const std::vector<SiteId>& participants, int64_t csn,
                      DecidedFn done) = 0;
  virtual std::optional<bool> AnswerInquiry(const TxnId& gtid,
                                            SiteId requester) = 0;
  // All participants acknowledged the decision; state may be garbage
  // collected (2PC retires the decision record here).
  virtual void Forget(const TxnId& gtid) = 0;
  virtual void Crash() = 0;
  virtual std::vector<InFlight> RecoverInFlight() = 0;
  // True if an undecided transaction is lost (presumed abort) when the
  // coordinator crashes. Paxos Commit returns false: the outcome lives in
  // the acceptor quorum, not in the coordinator's volatile state.
  virtual bool PresumesAbortOnCrash() const = 0;
};

}  // namespace hermes::consensus

#endif  // HERMES_CONSENSUS_DECISION_H_
