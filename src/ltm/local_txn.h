// Internal per-transaction state of the LTM.

#ifndef HERMES_LTM_LOCAL_TXN_H_
#define HERMES_LTM_LOCAL_TXN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.h"
#include "db/table.h"

namespace hermes::ltm {

class CommandExecutor;

// One undo-log entry: the complete before-state of a row slot. Rolling back
// in reverse order restores exact before-images (the RR assumption).
struct UndoRecord {
  db::TableId table = -1;
  int64_t key = -1;
  // nullopt = the slot did not exist before (undo of a first-time insert).
  std::optional<db::RowEntry> before;
};

enum class TxnState : uint8_t { kActive, kCommitted, kAborted };

// An active transaction; the LTM erases it when it commits or aborts.
struct LocalTxn {
  LtmTxnHandle handle = kInvalidLtmTxn;
  // Identity in the global history model: a local transaction L_o or the
  // j-th local subtransaction T^s_kj of a global transaction.
  SubTxnId id;

  std::vector<UndoRecord> undo;
  // Items read/written (for the agent's bound-data set and diagnostics).
  std::set<ItemId> read_set;
  std::set<ItemId> write_set;
  // Next write sequence number for version provenance.
  uint64_t next_write_seq = 1;

  // Command currently executing, if any (at most one at a time).
  std::shared_ptr<CommandExecutor> executor;

  bool global() const { return id.txn.global(); }
};

}  // namespace hermes::ltm

#endif  // HERMES_LTM_LOCAL_TXN_H_
