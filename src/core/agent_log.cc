#include "core/agent_log.h"

#include <algorithm>
#include <cassert>

namespace hermes::core {

namespace {

// Folds one prepare record into a high-water mark the way the SN certifier
// folds commits: from SerialNumber{}, a larger serial number wins and of
// equal ones the earlier record, so a record at or below SerialNumber{}
// (a 1PC prepare) never wins.
void Fold(AgentLog::HighWater& hw, const LogRecord& prepare) {
  if (hw.sn < prepare.sn || (hw.sn == prepare.sn && prepare.lsn < hw.lsn)) {
    hw = AgentLog::HighWater{prepare.sn, prepare.gtid, prepare.lsn};
  }
}

}  // namespace

std::vector<db::Command> AgentLog::CommandsOf(const TxnId& gtid) const {
  std::vector<db::Command> out;
  ForEachOf(gtid, [&](const LogRecord& r) {
    if (r.kind == LogRecordKind::kCommand && r.command.has_value()) {
      out.push_back(*r.command);
    }
  });
  return out;
}

const db::Command* AgentLog::CommandAt(const TxnId& gtid,
                                      size_t index) const {
  const db::Command* out = nullptr;
  size_t seen = 0;
  ForEachOf(gtid, [&](const LogRecord& r) {
    if (r.kind == LogRecordKind::kCommand && r.command.has_value() &&
        seen++ == index) {
      out = &*r.command;
    }
  });
  return out;
}

bool AgentLog::InDoubtLive(const TxnId& gtid) const {
  return Has(gtid, LogRecordKind::kPrepare) &&
         !Has(gtid, LogRecordKind::kComplete) &&
         !Has(gtid, LogRecordKind::kAbort) &&
         !Has(gtid, LogRecordKind::kMigrated);
}

std::vector<TxnId> AgentLog::InDoubt() const {
  std::vector<TxnId> out;
  ForEachTxn([&](const TxnId& gtid) {
    if (InDoubtLive(gtid)) out.push_back(gtid);
  });
  std::sort(out.begin(), out.end());
  return out;
}

void AgentLog::Retire(const TxnId& gtid, const AgentOutcome::Late& late) {
  auto [it, inserted] = outcomes_.try_emplace(gtid);
  AgentOutcome& outcome = it->second;
  outcome.late = late;
  if (!inserted) return;
  assert(!InDoubtLive(gtid));
  outcome.has_commit = Has(gtid, LogRecordKind::kCommit);
  outcome.has_abort = Has(gtid, LogRecordKind::kAbort);
  outcome.has_complete = Has(gtid, LogRecordKind::kComplete);
  outcome.migrated_to = PeerOf(gtid, LogRecordKind::kMigrated);
  if (outcome.has_complete) {
    ForEachOf(gtid, [&](const LogRecord& r) {
      if (r.kind == LogRecordKind::kPrepare) Fold(checkpoint_, r);
    });
  }
  DurableLog::Retire(gtid);
}

AgentLog::HighWater AgentLog::CommittedHighWater() const {
  HighWater hw = checkpoint_;
  ForEachTxn([&](const TxnId& gtid) {
    if (!Has(gtid, LogRecordKind::kComplete)) return;
    ForEachOf(gtid, [&](const LogRecord& r) {
      if (r.kind == LogRecordKind::kPrepare) Fold(hw, r);
    });
  });
  return hw;
}

}  // namespace hermes::core
