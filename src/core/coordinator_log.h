// The Coordinator log (stable storage of one Coordinator).
//
// 2PC with presumed abort: the coordinator force-writes a COMMIT decision
// record *before* the first COMMIT message leaves the site, and appends a
// (buffered) forget record once every participant has acknowledged. Abort
// decisions are never logged — an inquiry about a transaction the log does
// not know is answered "presumed abort". After a crash the log is the only
// coordinator state that survives: Recover() re-drives decision delivery
// for every decision without a forget record, and bumps the submission
// epoch so post-recovery transaction ids can never collide with pre-crash
// ones.
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
  kForget,    // appended after all commit ACKs arrived
  kEpoch,     // force-written during recovery: new submission epoch
};

struct CoordLogRecord {
  CoordRecordKind kind = CoordRecordKind::kDecision;
  TxnId gtid;                        // kDecision / kForget
  std::vector<SiteId> participants;  // kDecision: sites owed a COMMIT
  int64_t csn = -1;                  // kDecision: decision-time CSN, if any
  int64_t epoch = 0;                 // kEpoch
  int64_t lsn = 0;
  bool forced = false;
};

class CoordinatorLog : public DurableLog<CoordLogRecord> {
 public:
  // True if a COMMIT decision record exists for `gtid`.
  bool HasDecision(const TxnId& gtid) const {
    return Has(gtid, CoordRecordKind::kDecision);
  }
  // True if the transaction was fully acknowledged and forgotten.
  bool Forgotten(const TxnId& gtid) const {
    return Has(gtid, CoordRecordKind::kForget);
  }

  // CSN carried by the decision record of `gtid`, -1 if absent — lets
  // inquiry replies for logged decisions travel with their CSN.
  int64_t DecisionCsnOf(const TxnId& gtid) const {
    const CoordLogRecord* r = Last(gtid, CoordRecordKind::kDecision);
    return r == nullptr ? -1 : r->csn;
  }

  // Decisions without a forget record, in log order — the transactions a
  // recovering coordinator must re-drive to COMMIT.
  std::vector<CoordLogRecord> InFlightDecisions() const;

  // Largest epoch ever force-written (0 if none). Epoch records carry no
  // gtid, so they are filed under TxnId{}.
  int64_t LastEpoch() const;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_COORDINATOR_LOG_H_
