// Asynchronous item-level lock manager implementing strict two-phase
// locking. With all locks (shared and exclusive) held until transaction end
// the produced local histories are *rigorous* (SRS assumption of the paper):
// serializable, strict, and no item is overwritten while an uncommitted
// transaction has read it.
//
// Grant callbacks always fire asynchronously via the event loop, keeping
// execution order deterministic and re-entrancy-free.

#ifndef HERMES_LTM_LOCK_MANAGER_H_
#define HERMES_LTM_LOCK_MANAGER_H_

#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "sim/callback.h"
#include "sim/event_loop.h"

namespace hermes::ltm {

enum class LockMode : uint8_t { kShared, kExclusive };

struct LockManagerConfig {
  // A waiter that is not granted within this duration times out; the caller
  // is expected to abort the transaction (the paper's 2CM assumes
  // timeout-based deadlock resolution).
  sim::Duration wait_timeout = 500 * sim::kMillisecond;
};

class LockManager {
 public:
  // Invoked with OK when granted, kTimeout when the wait timed out. Small
  // enough that the zero-delay event delivering a grant keeps it inline
  // (sim::Callback), and roomy enough for the executor's `[weak_ptr, key]`.
  using GrantCallback = sim::InlineFunction<void(Status), 32>;

  LockManager(const LockManagerConfig& config, sim::EventLoop* loop);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Requests `mode` on `item` for `txn`. Re-acquisition of an already-held
  // (or stronger) lock succeeds immediately; S->X upgrades are supported and
  // are granted before ordinary waiters. Returns true when the request was
  // queued behind a conflicting holder or waiter.
  bool Acquire(LtmTxnHandle txn, const ItemId& item, LockMode mode,
               GrantCallback cb);

  // Releases everything `txn` holds and cancels its pending waits (without
  // invoking their callbacks). Waiters unblocked by the release are granted.
  void ReleaseAll(LtmTxnHandle txn);

  // Cancels `txn`'s pending waits only (callbacks are dropped, not called).
  void CancelWaits(LtmTxnHandle txn);

  // Releases one specific lock (used by the non-rigorous ablation scheduler
  // that gives up read locks early).
  void Release(LtmTxnHandle txn, const ItemId& item);

  bool Holds(LtmTxnHandle txn, const ItemId& item, LockMode mode) const;

  // Wait-for edges (waiter -> blocking holder) for deadlock detection.
  std::vector<std::pair<LtmTxnHandle, LtmTxnHandle>> WaitForEdges() const;

  int64_t grants() const { return grants_; }
  int64_t waits() const { return waits_; }
  int64_t timeouts() const { return timeouts_; }

 private:
  struct Waiter {
    LtmTxnHandle txn;
    LockMode mode;
    GrantCallback cb;
    sim::EventId timeout_event;
    bool upgrade;  // txn already holds kShared
  };
  // Sorted by handle.
  using Holders = std::vector<std::pair<LtmTxnHandle, LockMode>>;
  struct LockState {
    Holders holders;
    // FIFO, upgrades first.
    std::vector<Waiter> queue;
  };
  // A transaction's items in a reverse index: no duplicates, in no order.
  using Items = std::vector<ItemId>;
  using ItemIndex = std::unordered_map<LtmTxnHandle, Items>;

  // True if `txn` could hold `mode` given current holders (ignoring queue).
  static bool Compatible(const LockState& ls, LtmTxnHandle txn,
                         LockMode mode);
  // Drops `item` from `txn`'s entry in `index`, and the entry once empty.
  static void Unindex(ItemIndex& index, LtmTxnHandle txn, const ItemId& item);
  // Removes `txn`'s entry from `index`; returns its items in ItemId order.
  static Items TakeSorted(ItemIndex& index, LtmTxnHandle txn);

  void GrantNow(LockState& ls, LtmTxnHandle txn, const ItemId& item,
                LockMode mode, GrantCallback cb);
  // Grants as many queued waiters as possible after a release.
  void ProcessQueue(const ItemId& item);
  void OnWaitTimeout(const ItemId& item, LtmTxnHandle txn);

  LockManagerConfig config_;
  sim::EventLoop* loop_;
  // Determinism: nothing observable depends on the hash order of these
  // tables. ReleaseAll and CancelWaits process a transaction's items in
  // ItemId order, and WaitForEdges walks items in ItemId order, so grants
  // and edges come out exactly as from an ordered map.
  std::unordered_map<ItemId, LockState, ItemIdHash> locks_;
  // Reverse indexes.
  ItemIndex held_;
  ItemIndex waiting_;
  int64_t grants_ = 0;
  int64_t waits_ = 0;
  int64_t timeouts_ = 0;
};

}  // namespace hermes::ltm

#endif  // HERMES_LTM_LOCK_MANAGER_H_
