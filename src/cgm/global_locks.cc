#include "cgm/global_locks.h"

#include <memory>
#include <utility>

namespace hermes::cgm {

const char* GranularityName(Granularity g) {
  switch (g) {
    case Granularity::kSite:
      return "site";
    case Granularity::kTable:
      return "table";
    case Granularity::kItem:
      return "item";
  }
  return "?";
}

std::vector<Granule> GranulesOf(Granularity granularity, SiteId site,
                                const db::Command& cmd) {
  const ltm::LockMode mode = db::CommandWrites(cmd)
                                 ? ltm::LockMode::kExclusive
                                 : ltm::LockMode::kShared;
  switch (granularity) {
    case Granularity::kSite:
      return {Granule{ItemId{site, -1, -1}, mode}};
    case Granularity::kTable:
      return {Granule{ItemId{site, db::CommandTable(cmd), -1}, mode}};
    case Granularity::kItem: {
      const db::TableId table = db::CommandTable(cmd);
      if (const auto* ins = std::get_if<db::InsertCmd>(&cmd)) {
        return {Granule{ItemId{site, table, ins->key}, mode}};
      }
      const db::Predicate* pred = nullptr;
      if (const auto* sel = std::get_if<db::SelectCmd>(&cmd)) {
        pred = &sel->pred;
      } else if (const auto* upd = std::get_if<db::UpdateCmd>(&cmd)) {
        pred = &upd->pred;
      } else {
        pred = &std::get<db::DeleteCmd>(cmd).pred;
      }
      if (auto key = pred->ExactKey()) {
        return {Granule{ItemId{site, table, *key}, mode}};
      }
      // Escalate: the matched set is unknown without reading.
      return {Granule{ItemId{site, table, -1}, mode}};
    }
  }
  return {};
}

GlobalLockManager::GlobalLockManager(sim::Duration wait_timeout,
                                     sim::EventLoop* loop)
    : loop_(loop),
      locks_(ltm::LockManagerConfig{wait_timeout}, loop) {}

LtmTxnHandle GlobalLockManager::HandleOf(const TxnId& txn) {
  auto [it, inserted] = handles_.try_emplace(txn, next_handle_);
  if (inserted) ++next_handle_;
  return it->second;
}

void GlobalLockManager::AcquireAll(const TxnId& txn,
                                   std::vector<Granule> granules,
                                   GrantCallback cb) {
  if (granules.empty()) {
    loop_->ScheduleAfter(0, [cb = std::move(cb)]() { cb(Status::Ok()); });
    return;
  }
  auto shared = std::make_shared<std::vector<Granule>>(std::move(granules));
  AcquireNext(txn, std::move(shared), 0, std::move(cb));
}

void GlobalLockManager::AcquireNext(
    const TxnId& txn, std::shared_ptr<std::vector<Granule>> granules,
    size_t index, GrantCallback cb) {
  if (index >= granules->size()) {
    cb(Status::Ok());
    return;
  }
  const Granule& g = (*granules)[index];
  const LtmTxnHandle handle = HandleOf(txn);
  locks_.Acquire(handle, g.id, g.mode,
                 [this, txn, granules = std::move(granules), index,
                  cb = std::move(cb)](Status s) mutable {
                   if (!s.ok()) {
                     cb(std::move(s));
                     return;
                   }
                   AcquireNext(txn, granules, index + 1, std::move(cb));
                 });
}

void GlobalLockManager::ReleaseAll(const TxnId& txn) {
  auto it = handles_.find(txn);
  if (it == handles_.end()) return;
  locks_.ReleaseAll(it->second);
  handles_.erase(it);
}

}  // namespace hermes::cgm
