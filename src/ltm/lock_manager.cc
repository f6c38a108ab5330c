#include "ltm/lock_manager.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hermes::ltm {

namespace {

// The first holder whose handle is not below `txn`.
template <typename Holders>
auto HolderLowerBound(Holders& holders, LtmTxnHandle txn) {
  return std::lower_bound(
      holders.begin(), holders.end(), txn,
      [](const auto& holder, LtmTxnHandle t) { return holder.first < t; });
}

// `txn`'s entry in `holders`, or holders.end().
template <typename Holders>
auto FindHolder(Holders& holders, LtmTxnHandle txn) {
  auto it = HolderLowerBound(holders, txn);
  return it != holders.end() && it->first == txn ? it : holders.end();
}

}  // namespace

LockManager::LockManager(const LockManagerConfig& config,
                         sim::EventLoop* loop)
    : config_(config), loop_(loop) {}

bool LockManager::Compatible(const LockState& ls, LtmTxnHandle txn,
                             LockMode mode) {
  for (const auto& [holder, held_mode] : ls.holders) {
    if (holder == txn) continue;
    if (mode == LockMode::kExclusive || held_mode == LockMode::kExclusive) {
      return false;
    }
  }
  return true;
}

void LockManager::Unindex(ItemIndex& index, LtmTxnHandle txn,
                          const ItemId& item) {
  auto it = index.find(txn);
  if (it == index.end()) return;
  Items& items = it->second;
  auto pos = std::find(items.begin(), items.end(), item);
  if (pos == items.end()) return;
  *pos = items.back();
  items.pop_back();
  if (items.empty()) index.erase(it);
}

LockManager::Items LockManager::TakeSorted(ItemIndex& index,
                                           LtmTxnHandle txn) {
  auto it = index.find(txn);
  if (it == index.end()) return {};
  Items items = std::move(it->second);
  index.erase(it);
  std::sort(items.begin(), items.end());
  return items;
}

void LockManager::GrantNow(LockState& ls, LtmTxnHandle txn,
                           const ItemId& item, LockMode mode,
                           GrantCallback cb) {
  auto it = HolderLowerBound(ls.holders, txn);
  if (it == ls.holders.end() || it->first != txn) {
    ls.holders.emplace(it, txn, mode);
    held_[txn].push_back(item);
  } else if (mode == LockMode::kExclusive) {
    it->second = LockMode::kExclusive;  // upgrade
  }
  ++grants_;
  loop_->ScheduleAfter(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
}

bool LockManager::Acquire(LtmTxnHandle txn, const ItemId& item, LockMode mode,
                          GrantCallback cb) {
  LockState& ls = locks_[item];
  auto held_it = FindHolder(ls.holders, txn);
  const bool holds_any = held_it != ls.holders.end();
  const bool holds_x =
      holds_any && held_it->second == LockMode::kExclusive;

  // Already sufficient.
  if (holds_x || (holds_any && mode == LockMode::kShared)) {
    ++grants_;
    loop_->ScheduleAfter(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
    return false;
  }

  const bool upgrade = holds_any;  // holds S, wants X

  // Immediate grant only when compatible with holders and not jumping an
  // earlier waiter (upgrades may jump the queue — standard treatment that
  // keeps upgraders from deadlocking behind newcomers).
  const bool queue_blocks = !upgrade && !ls.queue.empty();
  if (!queue_blocks && Compatible(ls, txn, mode)) {
    GrantNow(ls, txn, item, mode, std::move(cb));
    return false;
  }

  // Enqueue; upgrades go in front of non-upgrades.
  ++waits_;
  Waiter w{txn, mode, std::move(cb), sim::kInvalidEvent, upgrade};
  w.timeout_event = loop_->ScheduleAfter(
      config_.wait_timeout, [this, item, txn]() { OnWaitTimeout(item, txn); });
  if (upgrade) {
    auto pos = ls.queue.begin();
    while (pos != ls.queue.end() && pos->upgrade) ++pos;
    ls.queue.insert(pos, std::move(w));
  } else {
    ls.queue.push_back(std::move(w));
  }
  Items& waits = waiting_[txn];
  if (std::find(waits.begin(), waits.end(), item) == waits.end()) {
    waits.push_back(item);
  }
  return true;
}

void LockManager::OnWaitTimeout(const ItemId& item, LtmTxnHandle txn) {
  auto lit = locks_.find(item);
  if (lit == locks_.end()) return;
  LockState& ls = lit->second;
  for (auto it = ls.queue.begin(); it != ls.queue.end(); ++it) {
    if (it->txn == txn) {
      GrantCallback cb = std::move(it->cb);
      ls.queue.erase(it);
      Unindex(waiting_, txn, item);
      ++timeouts_;
      cb(Status::Timeout("lock wait timeout"));
      // The queue head may now be grantable (e.g. the timed-out waiter was
      // an incompatible head blocking compatible followers).
      ProcessQueue(item);
      return;
    }
  }
}

void LockManager::ProcessQueue(const ItemId& item) {
  auto lit = locks_.find(item);
  if (lit == locks_.end()) return;
  LockState& ls = lit->second;
  // Grant the longest grantable prefix (upgrades sit at the front by
  // construction). Shared waiters behind a blocked upgrade/exclusive head
  // stay blocked (FIFO fairness, prevents writer starvation).
  size_t granted = 0;
  while (granted < ls.queue.size() &&
         Compatible(ls, ls.queue[granted].txn, ls.queue[granted].mode)) {
    Waiter& w = ls.queue[granted++];
    loop_->Cancel(w.timeout_event);
    Unindex(waiting_, w.txn, item);
    GrantNow(ls, w.txn, item, w.mode, std::move(w.cb));
  }
  ls.queue.erase(ls.queue.begin(), ls.queue.begin() + granted);
  if (ls.holders.empty() && ls.queue.empty()) locks_.erase(lit);
}

void LockManager::CancelWaits(LtmTxnHandle txn) {
  for (const ItemId& item : TakeSorted(waiting_, txn)) {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) continue;
    std::erase_if(lit->second.queue, [this, txn](const Waiter& w) {
      if (w.txn != txn) return false;
      loop_->Cancel(w.timeout_event);
      return true;
    });
    ProcessQueue(item);
  }
}

void LockManager::ReleaseAll(LtmTxnHandle txn) {
  CancelWaits(txn);
  for (const ItemId& item : TakeSorted(held_, txn)) {
    auto lit = locks_.find(item);
    if (lit == locks_.end()) continue;
    LockState& ls = lit->second;
    auto it = FindHolder(ls.holders, txn);
    if (it != ls.holders.end()) ls.holders.erase(it);
    ProcessQueue(item);
  }
}

void LockManager::Release(LtmTxnHandle txn, const ItemId& item) {
  auto lit = locks_.find(item);
  if (lit == locks_.end()) return;
  LockState& ls = lit->second;
  auto it = FindHolder(ls.holders, txn);
  if (it == ls.holders.end()) return;
  ls.holders.erase(it);
  Unindex(held_, txn, item);
  ProcessQueue(item);
}

bool LockManager::Holds(LtmTxnHandle txn, const ItemId& item,
                        LockMode mode) const {
  auto lit = locks_.find(item);
  if (lit == locks_.end()) return false;
  auto it = FindHolder(lit->second.holders, txn);
  if (it == lit->second.holders.end()) return false;
  return mode == LockMode::kShared || it->second == LockMode::kExclusive;
}

std::vector<std::pair<LtmTxnHandle, LtmTxnHandle>>
LockManager::WaitForEdges() const {
  // Only items with waiters have edges; walk them in ItemId order.
  std::vector<const std::pair<const ItemId, LockState>*> waited;
  for (const auto& entry : locks_) {
    if (!entry.second.queue.empty()) waited.push_back(&entry);
  }
  std::sort(waited.begin(), waited.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  std::vector<std::pair<LtmTxnHandle, LtmTxnHandle>> edges;
  for (const auto* entry : waited) {
    const LockState& ls = entry->second;
    for (size_t i = 0; i < ls.queue.size(); ++i) {
      const Waiter& w = ls.queue[i];
      // Waits for every incompatible holder...
      for (const auto& [holder, held_mode] : ls.holders) {
        if (holder == w.txn) continue;
        if (w.mode == LockMode::kExclusive ||
            held_mode == LockMode::kExclusive) {
          edges.emplace_back(w.txn, holder);
        }
      }
      // ...and for incompatible earlier waiters (queue order is honored).
      for (size_t j = 0; j < i; ++j) {
        const Waiter& earlier = ls.queue[j];
        if (earlier.txn == w.txn) continue;
        if (w.mode == LockMode::kExclusive ||
            earlier.mode == LockMode::kExclusive) {
          edges.emplace_back(w.txn, earlier.txn);
        }
      }
    }
  }
  return edges;
}

}  // namespace hermes::ltm
