// The 2PC Agent (2PCA) with the prepare/commit Certifier — the paper's
// core contribution.
//
// One agent is associated with each LTM. It plays the Participant role of
// the 2PC protocol on behalf of an LDBS that has no prepared state of its
// own: the prepared state is maintained *inside the agent*. If the LDBS
// unilaterally aborts a prepared subtransaction, the agent resubmits the
// subtransaction's DML commands from its Agent log, creating a new local
// subtransaction that globally still belongs to the same transaction.
//
// The Certifier guards the serializability errors this can introduce:
//  * basic prepare certification (section 4.2): a subtransaction moves to
//    the prepared state only if its alive interval intersects the alive
//    interval of every subtransaction already prepared at this site —
//    under rigorous LTMs, simultaneous aliveness proves conflict-freeness;
//  * extended prepare certification (section 5.3): REFUSE any PREPARE whose
//    serial number is smaller than the largest serial number already
//    committed at this agent (a COMMIT overtook a PREPARE);
//  * commit certification (section 5.2, Appendix C): perform local commits
//    in serial-number order, keeping the commit order graph acyclic. A
//    COMMIT that arrives while a prepared subtransaction at this site has a
//    smaller SN waits; the paper's "retry later" happens when that blocker
//    leaves the prepared set (or, under CSN, when a decision stamps it).
//
// The certification policy is configurable so the benchmarks can ablate
// each mechanism and demonstrate the distortions it prevents.
//
// The agent is one state machine per subtransaction: AgentState says where
// a subtransaction is, AgentInput names what can happen to it, and
// kAgentTransitions lists every transition the agent may make. DESIGN.md,
// "Agent state machine", maps each to Appendix A, B or C.

#ifndef HERMES_CORE_AGENT_H_
#define HERMES_CORE_AGENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cert/certifier.h"
#include "common/ids.h"
#include "core/agent_log.h"
#include "core/alive_intervals.h"
#include "core/cert_policy.h"
#include "core/messages.h"
#include "core/metrics.h"
#include "core/transitions.h"
#include "ltm/ltm.h"
#include "net/network.h"
#include "shard/shard_map.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::core {

struct AgentConfig {
  SiteId site = 0;
  CertPolicy policy = CertPolicy::kFull;
  // Ordering scheme behind the cert::Certifier seam: the paper's
  // submit-time serial numbers or decision-time commit sequence numbers.
  cert::CertifierKind certifier = cert::CertifierKind::kSn;
  // Short-commit fast paths: accept OnePhaseCommitMsg (single-site 1PC)
  // and commit write-free subtransactions at prepare time (read-only
  // optimization). Mirrors the coordinator's short_commit knob.
  bool short_commit = false;
  // DLU: bind accessed items while prepared. Disable only for negative
  // experiments.
  bool bind_bound_data = true;
  // Decision-wait inquiry: a prepared subtransaction that has not heard a
  // decision within this timeout starts probing its coordinator with
  // InquiryMsg — the measurable 2PC blocking window (0 disables).
  sim::Duration decision_inquiry_timeout = 500 * sim::kMillisecond;
  // Inquiry retransmission backoff: first retry delay, doubled per attempt
  // up to the cap. Duplicate inquiries and lost replies are tolerated — the
  // coordinator's answer is idempotent.
  sim::Duration inquiry_retry_initial = 20 * sim::kMillisecond;
  sim::Duration inquiry_retry_max = 320 * sim::kMillisecond;
  // Orphan detection: an *active* (not yet prepared) subtransaction that
  // hears nothing from its coordinator for this long is unilaterally
  // aborted, releasing its locks (0 disables). Always safe before the READY
  // vote; the chaos sweeps enable it so a crashed coordinator does not
  // leave orphaned lock holders behind for the rest of the run.
  sim::Duration orphan_abort_timeout = 0;
};

// Where a subtransaction is at its agent. The live states hold volatile
// state in the agent:
//  * kActive: executing DML, not yet voted;
//  * kPrepared: voted READY, waiting for the decision;
//  * kResubmitting: prepared, re-executing its commands (Appendix A);
//  * kCommitPending: COMMIT received, waiting to head the commit order;
//  * kCommitResubmitting: COMMIT received, re-executing its commands.
// The retired ones are what the log's outcome entry says of a finished
// subtransaction: kCommitted, kRolledBack (refused, rolled back or lost in
// a crash) and kMigrated (its residue left in a shard handoff). kUnknown:
// the agent holds nothing and the log no outcome.
enum class AgentState : uint8_t {
  kUnknown, kActive, kPrepared, kResubmitting, kCommitPending,
  kCommitResubmitting, kCommitted, kRolledBack, kMigrated,
};

// What can happen to a subtransaction: a message from its coordinator
// (kBegin ... kOnePhaseCommit); the LTM finishing a DML command
// (kDmlDone), reporting its unilateral abort (kUan), or finishing or
// failing a resubmitted command (kResubmitDone, kResubmitFailed); the
// backoff after a failed resubmission attempt (kRetryTimer); a silent
// coordinator, probed while prepared (kInquiryTimer) and abandoned while
// active (kOrphanTimer); reaching the head of the commit order while
// commit-pending (kHead); crash recovery rebuilding it from the log
// (kReenter); a forced shard handoff taking it (kExtract) and another site
// adopting its residue (kAdopt).
enum class AgentInput : uint8_t {
  kBegin, kDml, kDmlDone, kPrepare, kCommit, kRollback, kOnePhaseCommit,
  kUan, kResubmitDone, kResubmitFailed, kRetryTimer, kInquiryTimer,
  kOrphanTimer, kHead, kReenter, kExtract, kAdopt,
};

using AgentTransition = Transition<AgentState, AgentInput>;

// Every transition the agent makes; DESIGN.md, "Agent state machine",
// lists them by input. An input whose (state, input) pair is on no edge is
// a protocol violation: debug builds assert on it, and on a next state no
// edge allows.
inline constexpr auto kAgentTransitions = [] {
  using enum AgentState;
  using enum AgentInput;
  const auto in = [](auto... inputs) { return Inputs(inputs...); };
  return std::to_array<AgentTransition>({
      // Inputs a state absorbs, answers (from the cached response or the
      // retired outcome) or leaves to a later step: duplicates and late
      // messages; an active subtransaction's UAN, which surfaces at its
      // next command or vote; a resubmission's own progress. With no
      // command to run, a resubmission completes in the instant it starts
      // (kUan in kPrepared and kCommitPending).
      {kUnknown,
       in(kDml, kDmlDone, kPrepare, kCommit, kRollback, kOnePhaseCommit),
       kUnknown},
      {kActive,
       in(kBegin, kDml, kDmlDone, kCommit, kUan, kOrphanTimer, kExtract),
       kActive},
      {kPrepared, in(kBegin, kDml, kPrepare, kUan, kInquiryTimer), kPrepared},
      {kResubmitting,
       in(kBegin, kDml, kPrepare, kUan, kResubmitDone, kResubmitFailed,
          kRetryTimer, kInquiryTimer),
       kResubmitting},
      {kCommitPending, in(kBegin, kDml, kPrepare, kCommit, kUan),
       kCommitPending},
      {kCommitResubmitting,
       in(kBegin, kDml, kPrepare, kCommit, kUan, kResubmitDone,
          kResubmitFailed, kRetryTimer),
       kCommitResubmitting},
      {kCommitted,
       in(kBegin, kDml, kPrepare, kCommit, kRollback, kOnePhaseCommit),
       kCommitted},
      {kRolledBack,
       in(kBegin, kDml, kDmlDone, kPrepare, kCommit, kRollback,
          kOnePhaseCommit),
       kRolledBack},
      // BEGIN opens the subtransaction. Prepare certification (Appendix
      // B): READY, REFUSE, or a read-only short commit; a short-commit
      // 1PC-COMMIT commits, or aborts work found dead.
      {kUnknown, in(kBegin), kActive},
      {kActive, in(kPrepare), kPrepared},
      {kActive, in(kPrepare, kOnePhaseCommit), kCommitted},
      {kActive, in(kPrepare, kRollback, kOnePhaseCommit), kRolledBack},
      // The alive check on the UAN and resubmission (Appendix A); a
      // commit finds its work dead in the abort's instant.
      {kPrepared, in(kUan), kResubmitting},
      {kResubmitting, in(kResubmitDone), kPrepared},
      {kCommitPending, in(kUan, kHead), kCommitResubmitting},
      {kCommitResubmitting, in(kResubmitDone), kCommitPending},
      // Commit certification in SN order (Appendix C): commit at once,
      // wait to head the commit order, or resubmit first.
      {kPrepared, in(kCommit), kCommitPending},
      {kPrepared, in(kCommit), kCommitResubmitting},
      {kResubmitting, in(kCommit), kCommitResubmitting},
      {kPrepared, in(kCommit), kCommitted},
      {kCommitPending, in(kHead), kCommitted},
      {kCommitResubmitting, in(kResubmitDone), kCommitted},
      {kPrepared, in(kRollback), kRolledBack},
      {kResubmitting, in(kRollback), kRolledBack},
      {kCommitPending, in(kRollback), kRolledBack},
      {kCommitResubmitting, in(kRollback), kRolledBack},
      // Crash recovery re-enters an in-doubt subtransaction as prepared
      // and resubmits it, and retires the rest, whose work the crash
      // rolled back; a crash never falls between a commit record and its
      // completion record. A forced shard handoff extracts prepared
      // residue, which the adopting site re-enters with its decision.
      {kUnknown, in(kReenter, kAdopt), kResubmitting},
      {kUnknown, in(kAdopt), kCommitResubmitting},
      {kUnknown, in(kReenter), kRolledBack},
      {kPrepared, in(kExtract), kMigrated},
      {kResubmitting, in(kExtract), kMigrated},
      {kCommitPending, in(kExtract), kMigrated},
      {kCommitResubmitting, in(kExtract), kMigrated},
  });
}();

// Prepared-transaction residue of a shard handoff: everything the adopting
// agent needs to re-enter the subtransaction as prepared and resubmit its
// commands at the destination (mirroring same-site crash recovery).
struct MigratedTxn {
  TxnId gtid;
  SiteId coordinator = kInvalidSite;
  // The site the residue left; votes/acks from the adopter carry it as
  // `on_behalf_of` so the coordinator's per-participant bookkeeping clears.
  SiteId origin = kInvalidSite;
  int resubmission = 0;
  SerialNumber sn;
  bool commit_pending = false;
  int64_t csn = -1;
  std::vector<db::Command> commands;  // the resubmission source
};

class TwoPCAgent {
 public:
  // Test/experiment hook invoked when a subtransaction enters the prepared
  // state: (gtid, current LTM handle). Failure injectors use it to abort
  // prepared subtransactions.
  using PreparedHook = std::function<void(const TxnId&, LtmTxnHandle)>;
  // Paxos Commit hooks, installed by Mdbs: every READY/REFUSE vote the
  // agent sends to its coordinator is also handed here (for the ballot-0
  // broadcast to the acceptors), and an exhausted inquiry backoff escalates
  // to leader election.
  using VoteHook = std::function<void(const TxnId&, bool ready,
                                      SiteId coordinator)>;
  using EscalateHook = std::function<void(const TxnId&, SiteId coordinator,
                                          int attempt)>;

  // `tracer` may be null (tracing disabled).
  TwoPCAgent(const AgentConfig& config, sim::EventLoop* loop,
             net::Network* network, ltm::Ltm* ltm, Metrics* metrics,
             trace::Tracer* tracer = nullptr);
  ~TwoPCAgent();

  TwoPCAgent(const TwoPCAgent&) = delete;
  TwoPCAgent& operator=(const TwoPCAgent&) = delete;

  // Agent-bound protocol messages (BEGIN, DML, PREPARE, COMMIT/ROLLBACK).
  void Handle(SiteId from, const Message& msg);

  // Epoch fencing: with a directory installed, every coordinator-bound
  // message whose epoch is below the directory's current epoch is refused
  // with EpochRefusedMsg instead of being processed (null = fencing off).
  void set_directory(const shard::Directory* directory) {
    directory_ = directory;
  }

  // --- shard handoff ------------------------------------------------------
  // True when any in-flight (active or prepared) subtransaction has a
  // logged command touching one of `shards` under `map`.
  bool InFlightOnShards(const shard::ShardMap& map,
                        const std::vector<int>& shards) const;
  // True when a forced handoff of `shards` to `dest` is safe: every
  // in-flight prepared subtransaction touching them has *all* its logged
  // commands inside the moving set and is unknown to `dest` (actives are
  // always force-abortable).
  bool CanMigrateResidue(const shard::ShardMap& map,
                         const std::vector<int>& shards,
                         const TwoPCAgent& dest) const;
  // Forced handoff: unilaterally aborts in-flight *active* subtransactions
  // touching `shards` and extracts every *prepared* one as residue —
  // undoing its local work (LDBS autonomy), recording kMigrateOut, and
  // redirecting all later messages for it to `dest`.
  std::vector<MigratedTxn> ExtractResidueForShards(
      const shard::ShardMap& map, const std::vector<int>& shards, SiteId dest);
  // Destination half: re-enters the residue as a prepared subtransaction
  // of this agent (log replayed, certifier re-admitted, commands
  // resubmitted; finished via the carried decision or an inquiry).
  void AdoptMigrated(const MigratedTxn& migrated);

  // Replaces every installed hook (tests owning the only hook); the add_
  // form appends, letting failure injectors and fault-plan triggers
  // compose on the same agent.
  void set_prepared_hook(PreparedHook hook) {
    prepared_hooks_.clear();
    if (hook) prepared_hooks_.push_back(std::move(hook));
  }
  void add_prepared_hook(PreparedHook hook) {
    if (hook) prepared_hooks_.push_back(std::move(hook));
  }
  void set_vote_hook(VoteHook hook) { vote_hook_ = std::move(hook); }
  void set_escalate_hook(EscalateHook hook) {
    escalate_hook_ = std::move(hook);
  }

  const AgentLog& log() const { return log_; }
  const AliveIntervalTable& alive_table() const { return certifier_->table(); }
  SerialNumber max_committed_sn() const {
    return certifier_->committed_high_water();
  }
  const cert::Certifier& certifier() const { return *certifier_; }
  SiteId site() const { return config_.site; }

  // Current LTM handle of a global transaction's subtransaction (tests).
  LtmTxnHandle HandleOf(const TxnId& gtid) const;
  // Where a global transaction's subtransaction is at this agent (tests).
  AgentState StateOf(const TxnId& gtid) const;
  // Subtransactions the agent holds volatile state for: the in-flight
  // ones. A finished subtransaction retires into the log's outcome table.
  size_t held_txns() const { return txns_.size(); }

  // --- site crash recovery ------------------------------------------------
  // Crash() discards all volatile state (transactions, alive intervals,
  // certification high-water mark, the late-message answers of retired
  // subtransactions); only the Agent log — stable storage — survives.
  // Recover() rebuilds from the log: the SN high-water mark from its
  // checkpoint, and in-doubt subtransactions are re-entered into the
  // prepared state, resubmitted, and completed via the logged commit record
  // or a coordinator inquiry (presumed abort when the coordinator no longer
  // knows the transaction). Every other live subtransaction's work was
  // rolled back by the crash: it retires. Called by Mdbs::CrashSite(),
  // which also collectively aborts everything inside the LTM first.
  void Crash();
  void Recover();

 private:
  struct AgentTxn {
    TxnId gtid;
    AgentState state = AgentState::kActive;
    SiteId coordinator = kInvalidSite;
    // Adopted residue of a shard handoff: the original participant site,
    // carried as on_behalf_of on votes/acks (kInvalidSite = native).
    SiteId acting_for = kInvalidSite;
    LtmTxnHandle ltm_handle = kInvalidLtmTxn;
    int resubmission = 0;  // index of the current local subtransaction
    int resubmit_attempts = 0;
    size_t resubmit_next_cmd = 0;
    // Completion time of the last DML command of the current local
    // subtransaction: the start of its certification alive interval.
    sim::Time last_completion = 0;
    // Duplicate-safe DML handling: highest command index already executed,
    // the index currently executing (-1 = none), and the cached response of
    // the last completed command for re-acking retransmitted requests.
    int32_t dml_done_index = -1;
    int32_t dml_inflight_index = -1;
    Status dml_last_status;
    db::CmdResult dml_last_result;
    SerialNumber sn;
    // Decision-time commit sequence number (CSN certifier; -1 under SN).
    int64_t csn = -1;
    int inquiry_attempts = 0;  // drives the capped inquiry backoff
    // Each timer belongs to the states that arm it, and Enter cancels it
    // when the subtransaction leaves them. The coordinator timer fires on
    // a silent coordinator: the orphan timer while active, the inquiry
    // timer while prepared and undecided. The retry timer restarts a
    // failed resubmission. An id whose event already ran is harmless:
    // EventLoop::Cancel ignores it.
    sim::EventId coordinator_timer = sim::kInvalidEvent;
    sim::EventId retry_timer = sim::kInvalidEvent;
    std::vector<ItemId> bound_items;  // sorted
  };

  // One lookup of a gtid: its state, the volatile state of a live one, and
  // the late-message answers of one this incarnation retired (a crash
  // invalidates them).
  struct Lookup {
    AgentState state = AgentState::kUnknown;
    AgentTxn* txn = nullptr;
    AgentOutcome::Late* late = nullptr;
  };
  Lookup Find(const TxnId& gtid);
  AgentTxn* FindTxn(const TxnId& gtid);

  // Applies one input to `gtid`, found in state `from`: asserts that the
  // table allows the pair, runs `transition`, and asserts that the state
  // it led to is allowed too (debug builds). A crash inside a hook (fault
  // plans) wipes the state instead, which is no transition.
  template <typename Fn>
  void Apply(const TxnId& gtid, AgentState from, AgentInput input,
             Fn&& transition);
  // Moves `txn` to `to`, cancelling the timers of the states it leaves.
  void Enter(AgentTxn& txn, AgentState to);
  // Records one trace event of `gtid`'s local subtransaction number
  // `resubmission` (-1: none); `fill` sets the fields past kind,
  // transaction, site and resubmission.
  template <typename Fill>
  void Trace(trace::EventKind kind, const TxnId& gtid, int resubmission,
             Fill&& fill);
  // Whether `gtid`'s events reach the trace: only then are the detail
  // strings and transaction lists of its certification events worth
  // building.
  bool Traced(const TxnId& gtid) const {
    return tracer_ != nullptr && tracer_->KeepsTxn(gtid);
  }

  void OnBegin(SiteId from, const BeginMsg& msg, const Lookup& l);
  void OnDmlRequest(SiteId from, const DmlRequestMsg& msg, const Lookup& l);
  void OnPrepare(SiteId from, const PrepareMsg& msg, const Lookup& l);
  void OnDecision(SiteId from, const DecisionMsg& msg, const Lookup& l);
  void OnOnePhaseCommit(SiteId from, const OnePhaseCommitMsg& msg,
                        const Lookup& l);

  // Duplicate-safe DML: true when `msg` names the command executing now or
  // one already executed, whose response (`status`, `result`) it re-sends.
  bool AbsorbDuplicateDml(SiteId from, const DmlRequestMsg& msg,
                          int32_t inflight, int32_t done,
                          const Status& status, const db::CmdResult& result);
  void RefuseDml(SiteId from, const DmlRequestMsg& msg, const char* reason);
  void SendVote(const TxnId& gtid, SiteId coordinator, bool ready,
                Status status, bool read_only = false,
                SiteId on_behalf_of = kInvalidSite);
  void RefuseEpoch(SiteId from, const TxnId& gtid, const char* what,
                   SiteId moved_to);
  // Commit certification of a commit-pending subtransaction: commits it,
  // resubmits work found dead, or leaves it waiting to head the order.
  void TryCommit(AgentTxn& txn);
  // Commits the head of the certifier's commit order while it is
  // commit-pending, repeatedly: run once after each top-level transition.
  void DrainCommitHead();
  void Rollback(AgentTxn& txn);
  void StartResubmission(AgentTxn& txn);
  void RunNextResubmitCommand(AgentTxn& txn);
  void OnResubmissionComplete(AgentTxn& txn);
  void BindAccessedItems(AgentTxn& txn);
  void UnbindAll(AgentTxn& txn);
  void SendInquiry(AgentTxn& txn);
  // (Re)arms the coordinator timer: orphan detection while active, the
  // decision inquiry while prepared.
  void ArmCoordinatorTimer(AgentTxn& txn, sim::Duration delay);
  void OnUnilateralAbort(const SubTxnId& id, LtmTxnHandle handle);
  // The one re-entry path of crash recovery and shard adoption: rebuilds
  // `gtid` as prepared, with no live local subtransaction, from its log
  // records (coordinator, serial number, origin, resubmission count),
  // resubmits its commands, then finishes via the known decision
  // (`commit_pending`, with `csn`) or a coordinator inquiry.
  void Reenter(const TxnId& gtid, bool commit_pending, int64_t csn);
  // A finished subtransaction (kCommitted or kRolledBack `to`, its final
  // ACK sent) leaves txns_; the log keeps its outcome and late-message
  // answers. `read_only` marks a short-commit reader committed at prepare
  // time.
  void Retire(AgentTxn& txn, AgentState to, bool read_only = false);

  AgentConfig config_;
  sim::EventLoop* loop_;
  net::Network* network_;
  ltm::Ltm* ltm_;
  Metrics* metrics_;
  trace::Tracer* tracer_;
  const shard::Directory* directory_ = nullptr;

  AgentLog log_;
  // The certification seam: prepared-set membership, prepare/commit
  // certification and the scheme's ordering state (SN high-water mark or
  // the decided CSNs) all live behind this interface.
  std::unique_ptr<cert::Certifier> certifier_;

  // Hashed: FindTxn is on the hot path of every protocol message. Iteration
  // only happens in Crash/Recover paths where order is immaterial. Holds
  // in-flight subtransactions only (see Retire).
  std::unordered_map<TxnId, AgentTxn> txns_;
  // Counts crashes, from 1; stamps the late-message answers of retired
  // subtransactions so a crash invalidates them in O(1).
  uint32_t incarnation_ = 1;
  std::vector<PreparedHook> prepared_hooks_;
  VoteHook vote_hook_;
  EscalateHook escalate_hook_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_AGENT_H_
