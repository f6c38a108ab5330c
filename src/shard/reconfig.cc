#include "shard/reconfig.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "common/str.h"

namespace hermes::shard {

const char* ReconfigKindName(ReconfigKind kind) {
  switch (kind) {
    case ReconfigKind::kAddSite:
      return "add_site";
    case ReconfigKind::kRemoveSite:
      return "remove_site";
    case ReconfigKind::kReplaceSite:
      return "replace_site";
  }
  return "?";
}

Status Controller::Start(const ReconfigOp& op, std::function<void(Status)> done) {
  if (busy_) {
    return Status::Rejected("reconfiguration already in progress");
  }
  const ShardMap& map = directory_->Current();
  if (op.kind != ReconfigKind::kAddSite) {
    if (op.site == kInvalidSite) {
      return Status::InvalidArgument("remove/replace needs a target site");
    }
    for (SiteId p : protected_sites_) {
      if (p == op.site) {
        return Status::InvalidArgument(
            StrCat("site ", op.site, " is protected (consensus acceptor)"));
      }
    }
    if (map.ShardsOf(op.site).empty()) {
      return Status::InvalidArgument(
          StrCat("site ", op.site, " owns no shards"));
    }
    if (op.kind == ReconfigKind::kRemoveSite && map.Owners().size() < 2) {
      return Status::InvalidArgument("cannot remove the last owner");
    }
  }

  busy_ = true;
  op_ = op;
  done_ = std::move(done);
  moves_.clear();
  drained_for_ = 0;
  drain_coordinator_ = op.kind != ReconfigKind::kAddSite;

  switch (op.kind) {
    case ReconfigKind::kAddSite: {
      const int owners = static_cast<int>(map.Owners().size());
      const int quota = map.num_shards() / (owners + 1);
      if (quota == 0) {
        busy_ = false;
        return Status::InvalidArgument("too few shards to rebalance onto a new site");
      }
      to_ = host_->ProvisionSite();
      moves_ = StealPlan(map, quota);
      break;
    }
    case ReconfigKind::kReplaceSite:
      to_ = host_->ProvisionSite();
      moves_.push_back(Move{op.site, map.ShardsOf(op.site), false});
      break;
    case ReconfigKind::kRemoveSite: {
      // Successor: the other active owner with the fewest shards (ties:
      // lowest id) absorbs everything.
      SiteId best = kInvalidSite;
      size_t best_count = 0;
      for (SiteId s : map.Owners()) {
        if (s == op.site) continue;
        size_t n = map.ShardsOf(s).size();
        if (best == kInvalidSite || n < best_count) {
          best = s;
          best_count = n;
        }
      }
      assert(best != kInvalidSite);
      to_ = best;
      moves_.push_back(Move{op.site, map.ShardsOf(op.site), false});
      break;
    }
  }

  Fence(op);
  host_->Schedule(0, [this] { PollDrain(); });
  return Status::Ok();
}

std::vector<Controller::Move> Controller::StealPlan(const ShardMap& map,
                                                    int quota) const {
  // Working copy of per-owner shard lists, smallest shard index first so
  // pop_back takes it last; we take from the front via an index.
  std::map<SiteId, std::vector<int>> holdings;
  for (SiteId s : map.Owners()) holdings[s] = map.ShardsOf(s);

  std::map<SiteId, std::vector<int>> stolen;
  for (int i = 0; i < quota; ++i) {
    SiteId donor = kInvalidSite;
    size_t most = 0;
    for (const auto& [s, shards] : holdings) {
      if (shards.empty()) continue;
      if (donor == kInvalidSite || shards.size() > most) {
        donor = s;
        most = shards.size();
      }
    }
    if (donor == kInvalidSite) break;
    std::vector<int>& from = holdings[donor];
    stolen[donor].push_back(from.front());
    from.erase(from.begin());
  }

  std::vector<Move> moves;
  for (auto& [s, shards] : stolen) moves.push_back(Move{s, std::move(shards), false});
  return moves;
}

void Controller::Fence(const ReconfigOp& op) {
  ShardMap next = directory_->Current();
  next.epoch += 1;
  for (const Move& m : moves_) {
    for (int shard : m.shards) next.shards[shard].wedged = true;
  }
  directory_->Install(std::move(next));
  if (metrics_ != nullptr) ++metrics_->reconfig_started;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kReconfigBegin;
    e.site = op.kind == ReconfigKind::kAddSite ? to_ : op.site;
    e.peer = to_;
    e.value = directory_->epoch();
    e.detail = ReconfigKindName(op.kind);
    tracer_->Record(std::move(e));
  }
}

void Controller::PollDrain() {
  bool all_done = true;
  const bool deadline = drained_for_ >= kDrainDeadline;
  for (Move& m : moves_) {
    if (m.done) continue;
    if (!host_->SiteUsable(m.from) || !host_->SiteUsable(to_)) {
      all_done = false;
      continue;
    }
    const bool quiescent =
        host_->QuiescentForShards(m.from, m.shards, drain_coordinator_);
    const bool force =
        deadline &&
        host_->CanForceTransfer(m.from, to_, m.shards, drain_coordinator_);
    if (!quiescent && !force) {
      all_done = false;
      continue;
    }
    const int64_t rows = host_->TransferShards(m.from, to_, m.shards);
    // Install ownership in the same virtual instant as the transfer: a map
    // that still names the donor after the rows moved would let a straggling
    // coordinator execute DML at the old owner (lost update) or trip the
    // stale-commit check on a legitimately adopted transaction.
    ShardMap next = directory_->Current();
    next.epoch += 1;
    for (int shard : m.shards) {
      next.shards[shard].owner = to_;
      next.shards[shard].wedged = false;
    }
    directory_->Install(std::move(next));
    if (metrics_ != nullptr) metrics_->reconfig_rows_moved += rows;
    if (tracer_ != nullptr) {
      trace::Event e;
      e.kind = trace::EventKind::kReconfigHandoff;
      e.site = m.from;
      e.peer = to_;
      e.value = rows;
      tracer_->Record(std::move(e));
    }
    m.done = true;
  }
  if (!all_done) {
    drained_for_ += kDrainPoll;
    host_->Schedule(kDrainPoll, [this] { PollDrain(); });
    return;
  }
  Finish();
}

void Controller::Finish() {
  // Ownership of every moved shard was already installed move-by-move in
  // PollDrain; only retirement bookkeeping remains.
  if (op_.kind != ReconfigKind::kAddSite) {
    directory_->SetForward(op_.site, to_);
    host_->DeactivateSite(op_.site);
  }
  if (metrics_ != nullptr) ++metrics_->reconfig_completed;
  if (tracer_ != nullptr) {
    trace::Event e;
    e.kind = trace::EventKind::kReconfigDone;
    e.site = op_.kind == ReconfigKind::kAddSite ? to_ : op_.site;
    e.peer = to_;
    e.value = directory_->epoch();
    e.detail = ReconfigKindName(op_.kind);
    tracer_->Record(std::move(e));
  }
  busy_ = false;
  if (done_) {
    auto cb = std::move(done_);
    done_ = {};
    cb(Status::Ok());
  }
}

}  // namespace hermes::shard
