#include "core/coordinator_log.h"

#include <algorithm>

namespace hermes::core {

std::vector<CoordLogRecord> CoordinatorLog::InFlightDecisions() const {
  std::vector<CoordLogRecord> out;
  ForEachRecord([&](const CoordLogRecord& record) {
    if (record.kind == CoordRecordKind::kDecision) {
      out.push_back(record);
    }
  });
  return out;
}

int64_t CoordinatorLog::LastEpoch() const {
  int64_t last = 0;
  ForEachOf(TxnId{}, [&](const CoordLogRecord& r) {
    if (r.kind == CoordRecordKind::kEpoch) last = std::max(last, r.epoch);
  });
  return last;
}

}  // namespace hermes::core
