#include "ltm/ltm.h"

#include <cassert>

#include "common/str.h"
#include "ltm/command_executor.h"

namespace hermes::ltm {

namespace {

// How often an LTM with deadlock_detection on searches its wait-for graph
// while some lock request waits.
constexpr sim::Duration kDeadlockCheckInterval = 10 * sim::kMillisecond;

}  // namespace

Ltm::Ltm(const LtmConfig& config, sim::EventLoop* loop, db::Storage* storage,
         history::Recorder* recorder, trace::Tracer* tracer)
    : config_(config),
      loop_(loop),
      storage_(storage),
      recorder_(recorder),
      tracer_(tracer),
      locks_(LockManagerConfig{config.lock_wait_timeout}, loop) {
  assert(storage_->site() == config_.site);
}

Ltm::~Ltm() {
  if (deadlock_timer_ != sim::kInvalidEvent) loop_->Cancel(deadlock_timer_);
}

LocalTxn* Ltm::FindMutable(LtmTxnHandle txn) {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

const LocalTxn* Ltm::Find(LtmTxnHandle txn) const {
  auto it = txns_.find(txn);
  return it == txns_.end() ? nullptr : it->second.get();
}

bool Ltm::IsActive(LtmTxnHandle txn) const {
  return txns_.count(txn) != 0;
}

std::optional<TxnState> Ltm::StateOf(LtmTxnHandle txn) const {
  if (txn < 1 || txn >= next_handle_) return std::nullopt;
  return states_[static_cast<size_t>(txn - 1)];
}

std::unique_ptr<LocalTxn> Ltm::Finish(LtmTxnHandle txn, TxnState state) {
  auto node = txns_.extract(txn);
  assert(!node.empty());
  states_[static_cast<size_t>(txn - 1)] = state;
  return std::move(node.mapped());
}

LtmTxnHandle Ltm::Begin(const SubTxnId& id) {
  auto txn = std::make_unique<LocalTxn>();
  txn->handle = next_handle_++;
  txn->id = id;
  const LtmTxnHandle handle = txn->handle;
  txns_[handle] = std::move(txn);
  states_.push_back(TxnState::kActive);
  ++stats_.begun;
  return handle;
}

void Ltm::Execute(LtmTxnHandle handle, db::Command cmd, CommandCallback cb) {
  LocalTxn* txn = FindMutable(handle);
  if (txn == nullptr) {
    loop_->ScheduleAfter(0, [cb = std::move(cb)]() {
      cb(Status::Aborted("transaction is not active"), db::CmdResult{});
    });
    return;
  }
  if (txn->executor != nullptr) {
    loop_->ScheduleAfter(0, [cb = std::move(cb)]() {
      cb(Status::Rejected("a command is already in flight"), db::CmdResult{});
    });
    return;
  }
  ++stats_.commands_executed;
  txn->executor = std::make_shared<CommandExecutor>(this, handle,
                                                    std::move(cmd),
                                                    std::move(cb));
  txn->executor->Start();
}

void Ltm::OnExecutorDone(LtmTxnHandle handle) {
  LocalTxn* txn = FindMutable(handle);
  if (txn != nullptr) txn->executor.reset();
}

Status Ltm::Commit(LtmTxnHandle handle) {
  const std::optional<TxnState> state = StateOf(handle);
  if (!state.has_value()) return Status::NotFound("no such transaction");
  if (*state == TxnState::kAborted) {
    return Status::Aborted("transaction was aborted");
  }
  if (*state == TxnState::kCommitted) {
    return Status::Ok();  // idempotent
  }
  if (FindMutable(handle)->executor != nullptr) {
    return Status::Rejected("commit with a command in flight");
  }
  const std::unique_ptr<LocalTxn> txn = Finish(handle, TxnState::kCommitted);
  recorder_->RecordLocalCommit(txn->id, config_.site);
  locks_.ReleaseAll(handle);
  ++stats_.committed;
  return Status::Ok();
}

Status Ltm::Abort(LtmTxnHandle handle) {
  return AbortInternal(handle, /*unilateral=*/false,
                       Status::Aborted("rollback requested"));
}

Status Ltm::InjectUnilateralAbort(LtmTxnHandle handle) {
  ++stats_.injected_aborts;
  return AbortInternal(handle, /*unilateral=*/true,
                       Status::Unavailable("injected unilateral abort"));
}

void Ltm::UnilateralAbortInternal(LtmTxnHandle handle, const Status& reason) {
  if (reason.code() == StatusCode::kTimeout) ++stats_.lock_timeout_aborts;
  AbortInternal(handle, /*unilateral=*/true, reason);
}

void Ltm::RollbackUndo(LocalTxn& txn) {
  for (auto it = txn.undo.rbegin(); it != txn.undo.rend(); ++it) {
    db::Table* table = storage_->GetTable(it->table);
    assert(table != nullptr);
    table->Restore(it->key, std::move(it->before));
  }
  txn.undo.clear();
}

Status Ltm::AbortInternal(LtmTxnHandle handle, bool unilateral,
                          const Status& reason) {
  const std::optional<TxnState> state = StateOf(handle);
  if (!state.has_value()) return Status::NotFound("no such transaction");
  if (*state != TxnState::kActive) {
    return Status::Rejected(
        StrCat("transaction already ",
               *state == TxnState::kCommitted ? "committed" : "aborted"));
  }
  const std::unique_ptr<LocalTxn> txn = Finish(handle, TxnState::kAborted);
  // Fail the in-flight command, if any, then detach its executor.
  if (txn->executor != nullptr) {
    std::shared_ptr<CommandExecutor> executor = std::move(txn->executor);
    executor->FailNow(reason.ok() ? Status::Aborted("aborted") : reason);
    executor->Cancel();
  }
  RollbackUndo(*txn);
  locks_.ReleaseAll(handle);
  recorder_->RecordLocalAbort(txn->id, config_.site, unilateral);
  ++stats_.aborted;
  if (unilateral) {
    ++stats_.unilateral_aborts;
    if (tracer_ != nullptr && tracer_->Admit(txn->id.txn)) {
      trace::Event e;
      e.kind = trace::EventKind::kUnilateralAbort;
      e.txn = txn->id.txn;
      e.site = config_.site;
      e.resubmission = txn->id.resubmission;
      e.ok = false;
      e.detail = reason.ToString();
      tracer_->Record(std::move(e));
    }
    if (txn->global() && uan_listener_) {
      // Deliver UAN asynchronously to avoid re-entrancy into the agent.
      const SubTxnId id = txn->id;
      auto listener = uan_listener_;
      loop_->ScheduleAfter(0, [listener, id, handle]() {
        listener(id, handle);
      });
    }
  }
  return Status::Ok();
}

std::vector<LtmTxnHandle> Ltm::ActiveHandles() const {
  std::vector<LtmTxnHandle> out;
  out.reserve(txns_.size());
  for (const auto& [handle, txn] : txns_) out.push_back(handle);
  return out;
}

void Ltm::BindItems(const std::vector<ItemId>& items) {
  for (const ItemId& item : items) ++bound_[item];
}

void Ltm::UnbindItems(const std::vector<ItemId>& items) {
  for (const ItemId& item : items) {
    auto it = bound_.find(item);
    if (it != bound_.end() && --it->second == 0) bound_.erase(it);
  }
}

void Ltm::ArmDeadlockCheck() {
  if (!config_.deadlock_detection || deadlock_timer_ != sim::kInvalidEvent) {
    return;
  }
  deadlock_timer_ = loop_->ScheduleAfter(kDeadlockCheckInterval,
                                         [this]() { RunDeadlockDetection(); });
}

void Ltm::RunDeadlockDetection() {
  deadlock_timer_ = sim::kInvalidEvent;
  const auto edges = locks_.WaitForEdges();
  // Nothing waits: the detector sleeps until the next lock wait.
  if (edges.empty()) return;
  ArmDeadlockCheck();
  // Wait-for graph cycle search; victim = youngest (largest handle) on the
  // first cycle found.
  std::map<LtmTxnHandle, std::vector<LtmTxnHandle>> adj;
  for (const auto& [waiter, holder] : edges) adj[waiter].push_back(holder);

  std::map<LtmTxnHandle, int> state;  // 0=unseen 1=in-progress 2=done
  std::vector<LtmTxnHandle> stack;
  LtmTxnHandle victim = kInvalidLtmTxn;

  std::function<bool(LtmTxnHandle)> dfs = [&](LtmTxnHandle node) -> bool {
    state[node] = 1;
    stack.push_back(node);
    for (LtmTxnHandle next : adj[node]) {
      if (state[next] == 1) {
        auto start = std::find(stack.begin(), stack.end(), next);
        victim = *std::max_element(start, stack.end());
        return true;
      }
      if (state[next] == 0 && dfs(next)) return true;
    }
    stack.pop_back();
    state[node] = 2;
    return false;
  };
  for (const auto& [node, unused] : adj) {
    if (state[node] == 0 && dfs(node)) break;
    stack.clear();
  }
  if (victim != kInvalidLtmTxn) {
    ++stats_.deadlock_victim_aborts;
    AbortInternal(victim, /*unilateral=*/true,
                  Status::Aborted("deadlock victim"));
  }
}

}  // namespace hermes::ltm
