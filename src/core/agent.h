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

#ifndef HERMES_CORE_AGENT_H_
#define HERMES_CORE_AGENT_H_

#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "cert/certifier.h"
#include "common/ids.h"
#include "core/agent_log.h"
#include "core/alive_intervals.h"
#include "core/cert_policy.h"
#include "core/messages.h"
#include "core/metrics.h"
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
  // A finished subtransaction retires at once (see Retire), so a live
  // one is only ever active or prepared.
  enum class Phase : uint8_t {
    kActive,
    kPrepared,
  };

  struct AgentTxn {
    TxnId gtid;
    SiteId coordinator = kInvalidSite;
    Phase phase = Phase::kActive;
    LtmTxnHandle ltm_handle = kInvalidLtmTxn;
    int resubmission = 0;
    bool resubmitting = false;
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
    // Adopted residue of a shard handoff: the original participant site,
    // carried as on_behalf_of on votes/acks (kInvalidSite = native).
    SiteId acting_for = kInvalidSite;
    bool commit_pending = false;  // COMMIT received but not yet performed
    int inquiry_attempts = 0;     // drives the capped inquiry backoff
    sim::EventId resubmit_retry_timer = sim::kInvalidEvent;
    sim::EventId inquiry_timer = sim::kInvalidEvent;
    sim::EventId orphan_timer = sim::kInvalidEvent;
    std::set<ItemId> bound_items;
  };

  void OnBegin(SiteId from, const BeginMsg& msg);
  void OnDmlRequest(SiteId from, const DmlRequestMsg& msg);
  void OnPrepare(SiteId from, const PrepareMsg& msg);
  void OnDecision(SiteId from, const DecisionMsg& msg);
  void OnOnePhaseCommit(SiteId from, const OnePhaseCommitMsg& msg);

  void SendVote(const TxnId& gtid, SiteId coordinator, bool ready,
                Status status, bool read_only = false,
                SiteId on_behalf_of = kInvalidSite);
  void RefuseEpoch(SiteId from, const TxnId& gtid, const char* what,
                   SiteId moved_to);
  bool TxnTouchesShards(const TxnId& gtid, const shard::ShardMap& map,
                        const std::vector<int>& shards) const;
  bool TxnInsideShards(const TxnId& gtid, const shard::ShardMap& map,
                       const std::vector<int>& shards) const;
  void Refuse(AgentTxn& txn, const Status& reason);
  void TryCommit(AgentTxn& txn);
  void CompleteCommit(AgentTxn& txn);
  // Commits the head of the certifier's commit order while it is
  // commit-pending, repeatedly: called after each change that can move
  // the head (a local commit, a rollback, extracted residue, a CSN stamp).
  void CommitReadyHead();
  void ProcessRollback(AgentTxn& txn);
  void StartResubmission(AgentTxn& txn);
  void RunNextResubmitCommand(const TxnId& gtid);
  void OnResubmissionComplete(AgentTxn& txn);
  void BindAccessedItems(AgentTxn& txn);
  void UnbindAll(AgentTxn& txn);
  void SendInquiry(const TxnId& gtid);
  void ArmInquiryTimer(AgentTxn& txn, sim::Duration delay);
  void ArmOrphanTimer(AgentTxn& txn);
  void OnOrphanTimeout(const TxnId& gtid);
  void CancelTimers(AgentTxn& txn);
  void OnUnilateralAbort(const SubTxnId& id, LtmTxnHandle handle);
  // The one re-entry path of crash recovery and shard adoption: rebuilds
  // `gtid` as prepared, with no live local subtransaction, from its log
  // records (coordinator, serial number, origin, resubmission count),
  // resubmits its commands, then finishes via the known decision
  // (`commit_pending`, with `csn`) or a coordinator inquiry.
  void Reenter(const TxnId& gtid, bool commit_pending, int64_t csn);
  // A finished subtransaction (committed or aborted, its final ACK sent)
  // leaves txns_; the log keeps its outcome and late-message answers.
  // `read_only` marks a short-commit reader committed at prepare time.
  void Retire(AgentTxn& txn, bool committed, bool read_only = false);
  // Late-message answers of a subtransaction this incarnation retired,
  // nullptr if there are none (never seen, live, or retired before a
  // crash).
  AgentOutcome::Late* FindRetired(const TxnId& gtid);
  void AnswerLateDml(SiteId from, const DmlRequestMsg& msg,
                     const AgentOutcome::Late& late);

  AgentTxn* FindTxn(const TxnId& gtid);

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
  // Set while CommitReadyHead runs its loop.
  bool committing_head_ = false;

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
