// The Local Transaction Manager — the transactional engine of one
// autonomous LDBS.
//
// The LTM satisfies the paper's assumptions about participating database
// systems:
//   DDF — commands decompose deterministically into elementary R/W ops on
//         concrete rows (see CommandExecutor);
//   RR  — aborts restore exact before-images from the undo log;
//   RTT — re-executing the same commands over the same values yields the
//         same results (the engine is purely state-deterministic);
//   SRS — with `rigorous=true` (default) the S2PL scheduler holds all locks
//         to transaction end, producing rigorous histories; the
//         non-rigorous ablation releases read locks early;
//   TW  — resubmitted subtransactions eventually succeed (lock waits time
//         out and are retried by the agent);
//   UAN — every abort the LDBS performs on its own (injected failure, lock
//         timeout, deadlock victim) is reported to the registered listener.
//
// The LTM offers only a single-phase commit interface — no prepared state —
// which is precisely why the 2PC Agent method exists.

#ifndef HERMES_LTM_LTM_H_
#define HERMES_LTM_LTM_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "db/command.h"
#include "db/storage.h"
#include "history/recorder.h"
#include "ltm/local_txn.h"
#include "ltm/lock_manager.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::ltm {

struct LtmConfig {
  SiteId site = 0;
  // SRS: hold all locks to transaction end. Disable only for the
  // "non-rigorous LDBS" negative experiments.
  bool rigorous = true;
  sim::Duration lock_wait_timeout = 500 * sim::kMillisecond;
  // Optional wait-for-graph deadlock detection: while some lock request
  // waits, the graph is searched every 10 ms and the youngest transaction
  // on a cycle is aborted unilaterally. Off by default, so a bare LTM
  // resolves every deadlock by timeout; workload::WorkloadConfig turns it
  // on (E11, `bench_suite --only=deadlock`, compares both).
  bool deadlock_detection = false;
};

struct LtmStats {
  int64_t begun = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t unilateral_aborts = 0;  // subset of aborted initiated by the LDBS
  int64_t injected_aborts = 0;
  int64_t lock_timeout_aborts = 0;
  int64_t deadlock_victim_aborts = 0;
  int64_t commands_executed = 0;
  // Always 0: a local update of bound data is refused, never delayed. Kept
  // because perfbench sums it.
  int64_t dlu_waits = 0;
  int64_t dlu_rejections = 0;
};

class Ltm {
 public:
  using CommandCallback =
      std::function<void(const Status&, const db::CmdResult&)>;
  // (identity of the aborted subtransaction, its LTM handle)
  using UanListener = std::function<void(const SubTxnId&, LtmTxnHandle)>;

  // `tracer` may be null (tracing disabled).
  Ltm(const LtmConfig& config, sim::EventLoop* loop, db::Storage* storage,
      history::Recorder* recorder, trace::Tracer* tracer = nullptr);
  ~Ltm();

  Ltm(const Ltm&) = delete;
  Ltm& operator=(const Ltm&) = delete;

  SiteId site() const { return config_.site; }

  // --- Local interface (LI) ---------------------------------------------

  // Starts a transaction. `id` is the history-model identity (local
  // transaction or j-th local subtransaction of a global one).
  LtmTxnHandle Begin(const SubTxnId& id);

  // Executes one DML command; the callback fires asynchronously when the
  // command completes or the transaction dies. At most one command may be
  // in flight per transaction.
  void Execute(LtmTxnHandle txn, db::Command cmd, CommandCallback cb);

  // Single-phase commit. Fails with kAborted/kNotFound if the transaction
  // was already (unilaterally) aborted — the situation the agent handles by
  // resubmission.
  //
  // Commit and every abort erase the transaction's LocalTxn; only its final
  // state stays, one byte per handle, so Commit/Abort/IsActive answer a
  // finished handle as before and Find returns nullptr for it.
  Status Commit(LtmTxnHandle txn);

  // Rollback requested by the client/agent (not a unilateral abort).
  Status Abort(LtmTxnHandle txn);

  // Failure injection: the LDBS unilaterally aborts the transaction, as
  // permitted by execution autonomy. Triggers the UAN listener.
  Status InjectUnilateralAbort(LtmTxnHandle txn);

  bool IsActive(LtmTxnHandle txn) const;
  // The active transaction `txn`, nullptr if it is finished or unknown.
  const LocalTxn* Find(LtmTxnHandle txn) const;
  // Handles of all currently active transactions, ascending (site-crash
  // support).
  std::vector<LtmTxnHandle> ActiveHandles() const;
  size_t active_count() const { return txns_.size(); }

  void SetUanListener(UanListener listener) {
    uan_listener_ = std::move(listener);
  }

  // --- DLU bound-data registry -------------------------------------------
  // Maintained by the co-located 2PC agent: while a global subtransaction is
  // prepared, the data it accessed are "bound"; local transactions may read
  // but not update them (paper's DLU assumption): a local update of a bound
  // item aborts the local transaction (counted in dlu_rejections). Bindings
  // are counted: an item stays bound until every prepared subtransaction
  // that bound it has unbound it.

  void BindItems(const std::vector<ItemId>& items);
  void UnbindItems(const std::vector<ItemId>& items);
  // Drops all bindings (volatile state lost in a site crash; the
  // recovering agent re-binds after resubmission).
  void ClearBindings() { bound_.clear(); }
  bool IsBound(const ItemId& item) const { return bound_.count(item) != 0; }

  // --- accessors for the executor and tests -------------------------------

  const LtmConfig& config() const { return config_; }
  sim::EventLoop* loop() { return loop_; }
  db::Storage* storage() { return storage_; }
  history::Recorder* recorder() { return recorder_; }
  LockManager& lock_manager() { return locks_; }
  const LtmStats& stats() const { return stats_; }

  // Internal: abort driven by the engine itself (lock timeout, deadlock
  // victim, injected failure). Reported as unilateral via UAN when the
  // transaction belongs to a global transaction.
  void UnilateralAbortInternal(LtmTxnHandle txn, const Status& reason);

  // Internal: executor lifecycle hooks.
  void OnExecutorDone(LtmTxnHandle txn);

 private:
  friend class CommandExecutor;

  LocalTxn* FindMutable(LtmTxnHandle txn);
  // Final state of an issued handle (kActive while it runs); nullopt for a
  // handle never issued.
  std::optional<TxnState> StateOf(LtmTxnHandle txn) const;
  // Removes an active transaction and records its final state; the caller
  // finishes it through the returned LocalTxn.
  std::unique_ptr<LocalTxn> Finish(LtmTxnHandle txn, TxnState state);
  // Shared abort path; unilateral selects UAN notification.
  Status AbortInternal(LtmTxnHandle txn, bool unilateral,
                       const Status& reason);
  void RollbackUndo(LocalTxn& txn);
  // Schedules a wait-for-graph search kDeadlockCheckInterval from now,
  // unless detection is off or one is already pending (executor hook: a
  // lock request just started to wait).
  void ArmDeadlockCheck();
  void RunDeadlockDetection();

  LtmConfig config_;
  sim::EventLoop* loop_;
  db::Storage* storage_;
  history::Recorder* recorder_;
  trace::Tracer* tracer_;
  LockManager locks_;

  LtmTxnHandle next_handle_ = 1;
  // Active transactions only.
  std::map<LtmTxnHandle, std::unique_ptr<LocalTxn>> txns_;
  // states_[h - 1]: state of handle h (handles are dense from 1).
  std::vector<TxnState> states_;
  UanListener uan_listener_;

  // Bound items and the number of prepared subtransactions binding each.
  std::map<ItemId, int> bound_;

  sim::EventId deadlock_timer_ = sim::kInvalidEvent;
  LtmStats stats_;
};

}  // namespace hermes::ltm

#endif  // HERMES_LTM_LTM_H_
