// The Coordinator log (stable storage of one Coordinator).
//
// 2PC with presumed abort: the coordinator force-writes a COMMIT decision
// record *before* the first COMMIT message leaves the site. Once every
// participant has acknowledged, Retire() drops the transaction: its records
// leave the log, and an inquiry about it, like one about an aborted
// transaction (abort decisions are never logged), is answered "presumed
// abort". The log therefore holds only
// the decisions still in flight, plus the epoch records. After a crash the
// log is the only coordinator state that survives: Recover() re-drives
// decision delivery for every decision still in the log, and bumps the
// submission epoch so post-recovery transaction ids can never collide with
// pre-crash ones.
//
// The log discipline itself is common/durable_log.h, shared with the
// AgentLog.

#ifndef HERMES_CORE_COORDINATOR_LOG_H_
#define HERMES_CORE_COORDINATOR_LOG_H_

#include <cstdint>
#include <vector>

#include "common/durable_log.h"
#include "common/ids.h"

namespace hermes::core {

enum class CoordRecordKind : uint8_t {
  kDecision,  // force-written before any COMMIT is sent
  kEpoch,     // force-written during recovery: new submission epoch
};

struct CoordLogRecord {
  CoordRecordKind kind = CoordRecordKind::kDecision;
  TxnId gtid;                        // kDecision
  std::vector<SiteId> participants;  // kDecision: sites owed a COMMIT
  int64_t csn = -1;                  // kDecision: decision-time CSN, if any
  int64_t epoch = 0;                 // kEpoch
  int64_t lsn = 0;
  bool forced = false;
};

class CoordinatorLog : public DurableLog<CoordLogRecord> {
 public:
  // True if a COMMIT decision record exists for `gtid`: decided and not
  // yet retired.
  bool HasDecision(const TxnId& gtid) const {
    return Has(gtid, CoordRecordKind::kDecision);
  }

  // CSN carried by the decision record of `gtid`, -1 if absent — lets
  // inquiry replies for logged decisions travel with their CSN.
  int64_t DecisionCsnOf(const TxnId& gtid) const {
    const CoordLogRecord* r = Last(gtid, CoordRecordKind::kDecision);
    return r == nullptr ? -1 : r->csn;
  }

  // Decisions still in the log, in log order — the transactions a
  // recovering coordinator must re-drive to COMMIT.
  std::vector<CoordLogRecord> InFlightDecisions() const;

  // Largest epoch ever force-written (0 if none). Epoch records carry no
  // gtid, so they are filed under TxnId{} and never retired.
  int64_t LastEpoch() const;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_COORDINATOR_LOG_H_
