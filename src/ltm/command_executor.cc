#include "ltm/command_executor.h"

#include <algorithm>
#include <cassert>

#include "common/str.h"
#include "ltm/ltm.h"

namespace hermes::ltm {

namespace {

// Processing time per command, plus per touched row.
constexpr sim::Duration kCommandLatency = 50 * sim::kMicrosecond;
constexpr sim::Duration kPerRowLatency = 5 * sim::kMicrosecond;

}  // namespace

CommandExecutor::CommandExecutor(Ltm* ltm, LtmTxnHandle txn, db::Command cmd,
                                 Callback cb)
    : ltm_(ltm),
      txn_(txn),
      cmd_(std::move(cmd)),
      cb_(std::move(cb)),
      exact_key_(db::CommandExactKey(cmd_)) {}

void CommandExecutor::Start() { LockRound(); }

void CommandExecutor::Cancel() {
  cancelled_ = true;
  if (apply_event_ != sim::kInvalidEvent) {
    ltm_->loop()->Cancel(apply_event_);
    apply_event_ = sim::kInvalidEvent;
  }
  // Pending lock waits are cancelled by the LTM via LockManager::CancelWaits.
}

void CommandExecutor::FailNow(const Status& status) {
  assert(!status.ok());
  Finish(status, db::CmdResult{});
}

void CommandExecutor::Finish(const Status& status, db::CmdResult result) {
  if (finished_) return;
  finished_ = true;
  // The outcome waits in the executor, which the event keeps alive: a
  // closure carrying the callback, status and result would not fit inline.
  status_ = status;
  result_ = std::move(result);
  auto deliver = [self = shared_from_this()]() {
    self->cb_(self->status_, self->result_);
  };
  static_assert(sim::Callback::kStoredInline<decltype(deliver)>);
  ltm_->loop()->ScheduleAfter(0, std::move(deliver));
  ltm_->OnExecutorDone(txn_);
}

void CommandExecutor::FailAndAbort(const Status& reason) {
  // Finish's pending delivery keeps *this alive past the LTM's reference,
  // which Finish drops.
  Finish(reason, db::CmdResult{});
  ltm_->UnilateralAbortInternal(txn_, reason);
}

LockMode CommandExecutor::NeededMode() const {
  return db::CommandWrites(cmd_) ? LockMode::kExclusive : LockMode::kShared;
}

bool CommandExecutor::NeedsDluGate() const {
  if (!db::CommandWrites(cmd_)) return false;
  const LocalTxn* txn = ltm_->Find(txn_);
  return txn != nullptr && !txn->global();
}

std::vector<int64_t> CommandExecutor::ComputeKeys() const {
  if (const auto* ins = std::get_if<db::InsertCmd>(&cmd_)) {
    return {ins->key};
  }
  const db::TableId table_id = db::CommandTable(cmd_);
  const db::Table* table = ltm_->storage()->GetTable(table_id);
  if (table == nullptr) return {};
  if (const auto* sel = std::get_if<db::SelectCmd>(&cmd_)) {
    return table->Match(sel->pred);
  }
  if (const auto* upd = std::get_if<db::UpdateCmd>(&cmd_)) {
    return table->Match(upd->pred);
  }
  return table->Match(std::get<db::DeleteCmd>(cmd_).pred);
}

void CommandExecutor::LockRound() {
  if (cancelled_ || finished_) return;
  if (++rounds_ > kMaxLockRounds) {
    const Status reason =
        Status::Internal("command could not stabilize its lock set");
    FailAndAbort(reason);
    return;
  }
  if (ltm_->storage()->GetTable(db::CommandTable(cmd_)) == nullptr) {
    const Status reason =
        Status::NotFound(StrCat("table ", db::CommandTable(cmd_)));
    FailAndAbort(reason);
    return;
  }
  to_lock_.clear();
  for (int64_t key : ComputeKeys()) {
    if (locked_.count(key) == 0) to_lock_.push_back(key);
  }
  if (to_lock_.empty()) {
    ScheduleApply();
    return;
  }
  std::sort(to_lock_.begin(), to_lock_.end());
  LockNextKey();
}

void CommandExecutor::LockNextKey() {
  if (cancelled_ || finished_) return;
  if (to_lock_.empty()) {
    // Revalidate the match under the locks just taken -- unless the command
    // pins one key and holds it, so that nothing new can match.
    if (exact_key_.has_value() && locked_.count(*exact_key_) != 0) {
      ScheduleApply();
    } else {
      LockRound();
    }
    return;
  }
  const int64_t key = to_lock_.back();
  const ItemId item =
      ltm_->storage()->MakeItemId(db::CommandTable(cmd_), key);
  if (RefusedByDlu(item)) return;
  Acquire(key, item);
}

bool CommandExecutor::RefusedByDlu(const ItemId& item) {
  if (!NeedsDluGate() || !ltm_->IsBound(item)) return false;
  // DLU: a local transaction may not update data bound to a prepared
  // subtransaction. It is refused rather than delayed: while waiting it
  // would keep the locks it already holds, which the prepared
  // subtransaction may need to resubmit, so a wait can only end in a
  // timeout.
  ++ltm_->stats_.dlu_rejections;
  FailAndAbort(
      Status::Rejected("DLU: item is bound to a prepared transaction"));
  return true;
}

void CommandExecutor::Acquire(int64_t key, const ItemId& item) {
  auto on_grant = [wp = weak_from_this(), key](Status st) {
    if (auto self = wp.lock()) self->OnLockGranted(key, st);
  };
  static_assert(LockManager::GrantCallback::kStoredInline<decltype(on_grant)>);
  if (ltm_->lock_manager().Acquire(txn_, item, NeededMode(),
                                   std::move(on_grant))) {
    ltm_->ArmDeadlockCheck();
  }
}

void CommandExecutor::OnLockGranted(int64_t key, const Status& s) {
  if (cancelled_ || finished_) return;
  if (!s.ok()) {
    // Lock wait timeout: the LDBS resolves (potential) deadlocks by
    // unilaterally aborting the requester.
    const Status reason = Status::Timeout(
        StrCat("lock wait timeout on key ", key, " of ",
               db::CommandToString(cmd_)));
    FailAndAbort(reason);
    return;
  }
  // The item may have become bound while we waited for the lock (a global
  // subtransaction prepared in between).
  if (RefusedByDlu(ltm_->storage()->MakeItemId(db::CommandTable(cmd_), key))) {
    return;
  }
  locked_.insert(key);
  assert(!to_lock_.empty() && to_lock_.back() == key);
  to_lock_.pop_back();
  LockNextKey();
}

void CommandExecutor::ScheduleApply() {
  if (cancelled_ || finished_) return;
  const sim::Duration delay =
      kCommandLatency + kPerRowLatency * static_cast<int64_t>(locked_.size());
  std::weak_ptr<CommandExecutor> wp = weak_from_this();
  apply_event_ = ltm_->loop()->ScheduleAfter(delay, [wp]() {
    if (auto self = wp.lock()) {
      self->apply_event_ = sim::kInvalidEvent;
      self->Apply();
    }
  });
}

void CommandExecutor::Apply() {
  if (cancelled_ || finished_) return;
  // The database may have changed while the processing delay elapsed; if
  // new rows now match, go lock them too. Otherwise `keys` is what the
  // command reads, updates or deletes.
  const std::vector<int64_t> keys = ComputeKeys();
  for (int64_t key : keys) {
    if (locked_.count(key) == 0) {
      LockRound();
      return;
    }
  }
  LocalTxn* txn = ltm_->FindMutable(txn_);
  assert(txn != nullptr);
  db::Table* table = ltm_->storage()->GetTable(db::CommandTable(cmd_));
  assert(table != nullptr);
  history::Recorder* rec = ltm_->recorder();
  db::CmdResult result;

  auto make_tag = [&]() {
    return db::VersionTag{txn->id, txn->next_write_seq++};
  };
  auto record_read = [&](int64_t key, const db::RowEntry& entry) {
    const ItemId item = ltm_->storage()->MakeItemId(table->id(), key);
    txn->read_set.insert(item);
    rec->RecordRead(txn->id, item, entry.version);
  };
  auto record_write = [&](int64_t key, const db::VersionTag& tag,
                          bool is_delete) {
    const ItemId item = ltm_->storage()->MakeItemId(table->id(), key);
    txn->write_set.insert(item);
    rec->RecordWrite(txn->id, item, tag, is_delete);
  };

  std::vector<ItemId> shared_locked;  // for early release (non-rigorous)

  if (std::holds_alternative<db::SelectCmd>(cmd_)) {
    for (int64_t key : keys) {
      const db::RowEntry* entry = table->Get(key);
      assert(entry != nullptr && entry->live());
      record_read(key, *entry);
      result.rows.emplace_back(key, *entry->row);
      shared_locked.push_back(
          ltm_->storage()->MakeItemId(table->id(), key));
    }
    result.affected = static_cast<int64_t>(result.rows.size());
  } else if (const auto* ins = std::get_if<db::InsertCmd>(&cmd_)) {
    const db::RowEntry* existing = table->Get(ins->key);
    if (existing != nullptr && existing->live() && !ins->upsert) {
      const Status reason = Status::AlreadyExists(
          StrCat("key ", ins->key, " in table ", table->name()));
      FailAndAbort(reason);
      return;
    }
    const db::VersionTag tag = make_tag();
    std::optional<db::RowEntry> before =
        table->Put(ins->key, db::RowEntry{ins->row, tag});
    txn->undo.push_back(UndoRecord{table->id(), ins->key, std::move(before)});
    record_write(ins->key, tag, /*is_delete=*/false);
    result.affected = 1;
  } else if (const auto* upd = std::get_if<db::UpdateCmd>(&cmd_)) {
    for (int64_t key : keys) {
      const db::RowEntry* entry = table->Get(key);
      assert(entry != nullptr && entry->live());
      record_read(key, *entry);
      db::Row new_row = *entry->row;
      for (const db::Assignment& a : upd->sets) {
        if (a.kind == db::Assignment::Kind::kSet) {
          new_row.Set(a.field, a.operand);
        } else {
          const db::Value* cur = new_row.Get(a.field);
          auto sum = db::AddValues(cur ? *cur : db::Value{}, a.operand);
          if (!sum.has_value()) {
            const Status reason = Status::InvalidArgument(
                StrCat("non-numeric ADD on field ", a.field));
            FailAndAbort(reason);
            return;
          }
          new_row.Set(a.field, *sum);
        }
      }
      const db::VersionTag tag = make_tag();
      std::optional<db::RowEntry> before =
          table->Put(key, db::RowEntry{new_row, tag});
      txn->undo.push_back(UndoRecord{table->id(), key, std::move(before)});
      record_write(key, tag, /*is_delete=*/false);
      result.rows.emplace_back(key, std::move(new_row));
      ++result.affected;
    }
  } else {
    for (int64_t key : keys) {
      const db::RowEntry* entry = table->Get(key);
      assert(entry != nullptr && entry->live());
      record_read(key, *entry);
      const db::VersionTag tag = make_tag();
      std::optional<db::RowEntry> before = table->Delete(key, tag);
      txn->undo.push_back(UndoRecord{table->id(), key, std::move(before)});
      record_write(key, tag, /*is_delete=*/true);
      ++result.affected;
    }
  }

  // Non-rigorous ablation: release read locks as soon as the command is
  // done. This violates SRS and lets the negative experiments demonstrate
  // why the certifier requires rigorous LDBSs.
  if (!ltm_->config().rigorous) {
    for (const ItemId& item : shared_locked) {
      if (txn->write_set.count(item) == 0) {
        ltm_->lock_manager().Release(txn_, item);
      }
    }
  }

  Finish(Status::Ok(), std::move(result));
}

}  // namespace hermes::ltm
