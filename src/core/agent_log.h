// The Agent log (stable storage of one 2PC Agent).
//
// The 2PCA logs every DML command of each global subtransaction so it can
// *resubmit* them after a unilateral abort, and force-writes prepare/commit
// records as the 2PC protocol requires (common/durable_log.h). The log
// supports replay-based agent recovery after a site crash.
//
// A subtransaction's records are needed only until it finishes: the agent
// retires it once its final ACK is sent or its residue migrates. Retire()
// replaces the records with one fixed-size AgentOutcome, which answers
// every later query about the gtid (Knows, HasCommit, HasAbort,
// HasComplete, MigratedToOf), and folds a completed subtransaction's
// prepare records into the SN checkpoint (CommittedHighWater). So the
// records are O(in-flight); only the outcome table grows with the run.

#ifndef HERMES_CORE_AGENT_LOG_H_
#define HERMES_CORE_AGENT_LOG_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/durable_log.h"
#include "common/ids.h"
#include "common/status.h"
#include "db/command.h"
#include "core/serial_number.h"

namespace hermes::core {

enum class LogRecordKind : uint8_t {
  kBegin,
  kCommand,
  kPrepare,       // force-written before READY is sent
  kResubmission,  // a resubmission attempt started
  kCommit,        // force-written before the local commit is performed
  kAbort,         // global rollback processed
  kComplete,      // local commit done, COMMIT-ACK sent
  kMigrated,      // force-written when the prepared residue left in a shard
                  // handoff; `peer` names the adopting site
};

struct LogRecord {
  LogRecordKind kind = LogRecordKind::kBegin;
  TxnId gtid;
  int64_t lsn = 0;
  bool forced = false;
  // kBegin: the coordinating site (needed to direct recovery inquiries
  // after a crash). kMigrated: the site that adopted the residue.
  // kPrepare of an adopted residue: the site it left, which the adopter's
  // votes and acks name as `on_behalf_of`.
  SiteId peer = kInvalidSite;
  // kCommand only.
  std::optional<db::Command> command;
  // kPrepare only.
  SerialNumber sn;
  // kCommit only: the decision-time commit sequence number under the CSN
  // certifier (-1 when none travels — the SN scheme and 1PC commits).
  int64_t csn = -1;
};

// What a retired subtransaction leaves behind. Fixed size: no payload.
struct AgentOutcome {
  // The agent's answers to late messages (a duplicate BEGIN, DML, PREPARE,
  // DECISION or 1PC-COMMIT): its volatile state when it retired the
  // subtransaction. TwoPCAgent owns them; the log only stores them next to
  // the durable facts so that one entry per gtid serves both, and never
  // reads them. They hold only within the agent incarnation that retired
  // the subtransaction — a crash wipes volatile state, and after one the
  // agent answers from the durable facts below, as for a gtid it does not
  // hold. The incarnation stamp invalidates them all at once.
  struct Late {
    uint32_t incarnation = 0;  // 0: none (migrated, or retired by recovery)
    bool committed = false;    // final phase: committed, else aborted
    bool read_only = false;    // short-commit read-only participant
    SiteId acting_for = kInvalidSite;
    // Duplicate-safe DML: the last command executed and the one still
    // executing (-1 = none), and the status of the last one. A re-sent
    // response carries that status code and an empty result: the
    // coordinator drops DML responses once it has left its executing
    // phase, as it has when a subtransaction with an executed command
    // retires (it voted, or was rolled back).
    int32_t dml_done_index = -1;
    int32_t dml_inflight_index = -1;
    StatusCode dml_last_code = StatusCode::kOk;
  };

  // Durable facts, read from the retired records.
  bool has_commit = false;
  bool has_abort = false;
  bool has_complete = false;
  SiteId migrated_to = kInvalidSite;
  Late late;
};

class AgentLog : public DurableLog<LogRecord> {
 public:
  // Largest serial number among the prepare records of completed
  // subtransactions, and the gtid holding it: the SN certifier's committed
  // high-water mark to restore after a crash. Among equal serial numbers
  // the earliest record wins; invalid serial numbers (1PC) never count.
  struct HighWater {
    SerialNumber sn;
    TxnId gtid;
    int64_t lsn = -1;
  };

  // Retires `gtid`: drops its records, keeping their facts in its outcome
  // entry with `late` as the late-message answers. Retiring an already
  // retired gtid only replaces `late`. An in-doubt subtransaction cannot
  // retire.
  void Retire(const TxnId& gtid, const AgentOutcome::Late& late);
  // Outcome entry of a retired gtid, nullptr while it is live or unknown.
  const AgentOutcome* OutcomeOf(const TxnId& gtid) const {
    auto it = outcomes_.find(gtid);
    return it == outcomes_.end() ? nullptr : &it->second;
  }
  // The late-message answers of a retired gtid, for TwoPCAgent to read
  // and update; nullptr while it is live or unknown. The durable facts
  // stay read-only.
  AgentOutcome::Late* LateOf(const TxnId& gtid) {
    auto it = outcomes_.find(gtid);
    return it == outcomes_.end() ? nullptr : &it->second.late;
  }
  size_t retired() const { return outcomes_.size(); }

  HighWater CommittedHighWater() const;

  // True if the agent has seen the transaction (live or retired), even if
  // a crash lost all volatile state about it.
  bool Knows(const TxnId& gtid) const {
    return DurableLog::Knows(gtid) || outcomes_.count(gtid) != 0;
  }

  // All commands logged for a live `gtid`, in submission order — the
  // resubmission source.
  std::vector<db::Command> CommandsOf(const TxnId& gtid) const;
  // The `index`th of them, read in place (nullptr past the last). Valid
  // until the next append or retirement.
  const db::Command* CommandAt(const TxnId& gtid, size_t index) const;

  // Latest prepare record of a live `gtid`, if any.
  std::optional<LogRecord> PrepareRecordOf(const TxnId& gtid) const {
    const LogRecord* r = Last(gtid, LogRecordKind::kPrepare);
    return r == nullptr ? std::nullopt : std::optional<LogRecord>(*r);
  }

  // True if a commit (abort, complete) record exists or existed for
  // `gtid`.
  bool HasCommit(const TxnId& gtid) const {
    const AgentOutcome* o = OutcomeOf(gtid);
    return o != nullptr ? o->has_commit : Has(gtid, LogRecordKind::kCommit);
  }
  bool HasAbort(const TxnId& gtid) const {
    const AgentOutcome* o = OutcomeOf(gtid);
    return o != nullptr ? o->has_abort : Has(gtid, LogRecordKind::kAbort);
  }
  bool HasComplete(const TxnId& gtid) const {
    const AgentOutcome* o = OutcomeOf(gtid);
    return o != nullptr ? o->has_complete
                        : Has(gtid, LogRecordKind::kComplete);
  }
  // CSN carried by the commit record of a live `gtid`, -1 if absent —
  // feeds the certifier's OnCommitDecision during in-doubt recovery.
  int64_t CommitCsnOf(const TxnId& gtid) const {
    const LogRecord* r = First(gtid, LogRecordKind::kCommit);
    return r == nullptr ? -1 : r->csn;
  }

  // Transactions that were prepared but have no complete/abort/migrated
  // record — the in-doubt set an agent must recover after a crash (migrated
  // residue is the adopting site's problem). Sorted by TxnId so the
  // recovery order is deterministic. Always live: they cannot retire.
  std::vector<TxnId> InDoubt() const;

  // Adopting site recorded with the migration record of `gtid`, or
  // kInvalidSite if the residue never left this agent. Redirects late
  // messages, also after a crash.
  SiteId MigratedToOf(const TxnId& gtid) const {
    const AgentOutcome* o = OutcomeOf(gtid);
    return o != nullptr ? o->migrated_to
                        : PeerOf(gtid, LogRecordKind::kMigrated);
  }

  // Coordinating site recorded with the begin record of a live `gtid`
  // (kInvalidSite if none).
  SiteId CoordinatorOf(const TxnId& gtid) const {
    return PeerOf(gtid, LogRecordKind::kBegin);
  }
  // Number of resubmission records logged for a live `gtid`.
  int ResubmissionsOf(const TxnId& gtid) const {
    return Count(gtid, LogRecordKind::kResubmission);
  }

 private:
  SiteId PeerOf(const TxnId& gtid, LogRecordKind kind) const {
    const LogRecord* r = First(gtid, kind);
    return r == nullptr ? kInvalidSite : r->peer;
  }
  bool InDoubtLive(const TxnId& gtid) const;

  std::unordered_map<TxnId, AgentOutcome> outcomes_;
  // CommittedHighWater() over the retired subtransactions.
  HighWater checkpoint_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_AGENT_LOG_H_
