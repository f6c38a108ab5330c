// The Agent log (stable storage of one 2PC Agent).
//
// The 2PCA logs every DML command of each global subtransaction so it can
// *resubmit* them after a unilateral abort, and force-writes prepare/commit
// records as the 2PC protocol requires (common/durable_log.h). The log
// supports replay-based agent recovery after a site crash.

#ifndef HERMES_CORE_AGENT_LOG_H_
#define HERMES_CORE_AGENT_LOG_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/durable_log.h"
#include "common/ids.h"
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

class AgentLog : public DurableLog<LogRecord> {
 public:
  // All commands logged for `gtid`, in submission order — the resubmission
  // source.
  std::vector<db::Command> CommandsOf(const TxnId& gtid) const;

  // Latest prepare record of `gtid`, if any.
  std::optional<LogRecord> PrepareRecordOf(const TxnId& gtid) const {
    const LogRecord* r = Last(gtid, LogRecordKind::kPrepare);
    return r == nullptr ? std::nullopt : std::optional<LogRecord>(*r);
  }

  // True if a commit (abort) record exists for `gtid`.
  bool HasCommit(const TxnId& gtid) const {
    return Has(gtid, LogRecordKind::kCommit);
  }
  // CSN carried by the commit record of `gtid`, -1 if absent — feeds the
  // certifier's OnCommitDecision during in-doubt recovery.
  int64_t CommitCsnOf(const TxnId& gtid) const {
    const LogRecord* r = First(gtid, LogRecordKind::kCommit);
    return r == nullptr ? -1 : r->csn;
  }
  bool HasAbort(const TxnId& gtid) const {
    return Has(gtid, LogRecordKind::kAbort);
  }
  bool HasComplete(const TxnId& gtid) const {
    return Has(gtid, LogRecordKind::kComplete);
  }

  // Transactions that were prepared but have no complete/abort/migrated
  // record — the in-doubt set an agent must recover after a crash (migrated
  // residue is the adopting site's problem). Sorted by TxnId so the
  // recovery order is deterministic.
  std::vector<TxnId> InDoubt() const;

  // Adopting site recorded with the migration record of `gtid`, or
  // kInvalidSite if the residue never left this agent. Rebuilds the
  // redirect table after a crash.
  SiteId MigratedToOf(const TxnId& gtid) const {
    return PeerOf(gtid, LogRecordKind::kMigrated);
  }

  // Coordinating site recorded with the begin record (kInvalidSite if the
  // transaction is unknown).
  SiteId CoordinatorOf(const TxnId& gtid) const {
    return PeerOf(gtid, LogRecordKind::kBegin);
  }
  // Number of resubmission records logged for `gtid`.
  int ResubmissionsOf(const TxnId& gtid) const {
    return Count(gtid, LogRecordKind::kResubmission);
  }

 private:
  SiteId PeerOf(const TxnId& gtid, LogRecordKind kind) const {
    const LogRecord* r = First(gtid, kind);
    return r == nullptr ? kInvalidSite : r->peer;
  }
};

}  // namespace hermes::core

#endif  // HERMES_CORE_AGENT_LOG_H_
