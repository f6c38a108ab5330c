#include "core/agent_log.h"

#include <algorithm>

namespace hermes::core {

std::vector<db::Command> AgentLog::CommandsOf(const TxnId& gtid) const {
  std::vector<db::Command> out;
  ForEachOf(gtid, [&](const LogRecord& r) {
    if (r.kind == LogRecordKind::kCommand && r.command.has_value()) {
      out.push_back(*r.command);
    }
  });
  return out;
}

std::vector<TxnId> AgentLog::InDoubt() const {
  std::vector<TxnId> out;
  ForEachTxn([&](const TxnId& gtid) {
    if (Has(gtid, LogRecordKind::kPrepare) &&
        !Has(gtid, LogRecordKind::kComplete) &&
        !Has(gtid, LogRecordKind::kAbort) &&
        !Has(gtid, LogRecordKind::kMigrated)) {
      out.push_back(gtid);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hermes::core
