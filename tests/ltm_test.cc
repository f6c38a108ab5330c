// Unit tests of the LTM: command execution and decomposition, undo/rollback
// (RR), rigorousness, UAN, DLU gating, deadlock handling.

#include "ltm/ltm.h"

#include <gtest/gtest.h>

#include "history/recorder.h"

namespace hermes::ltm {
namespace {

class LtmTest : public ::testing::Test {
 protected:
  void Build(LtmConfig config = {}) {
    config.site = 0;
    storage_ = std::make_unique<db::Storage>(0);
    recorder_ = std::make_unique<history::Recorder>(&loop_);
    ltm_ = std::make_unique<Ltm>(config, &loop_, storage_.get(),
                                 recorder_.get());
    table_ = *storage_->CreateTable("t");
    for (int64_t k = 0; k < 10; ++k) {
      ASSERT_TRUE(storage_
                      ->LoadRow(table_, k,
                                db::Row{{"v", db::Value(int64_t{k * 10})}})
                      .ok());
    }
    loop_.set_max_events(1'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  LtmTxnHandle Begin(int64_t n) {
    return ltm_->Begin(SubTxnId{TxnId::MakeLocal(0, n), 0});
  }

  // Executes synchronously by draining the loop.
  Result<db::CmdResult> Exec(LtmTxnHandle txn, db::Command cmd) {
    std::optional<Status> status;
    db::CmdResult result;
    ltm_->Execute(txn, std::move(cmd),
                  [&](const Status& s, const db::CmdResult& r) {
                    status = s;
                    result = r;
                  });
    // RunUntil bounds the wait: a command blocked on a lock completes at
    // the grant or at the lock-wait timeout.
    loop_.RunUntil(loop_.Now() + 5 * sim::kSecond);
    if (!status->ok()) return *status;
    return result;
  }

  int64_t Val(int64_t key) {
    const db::RowEntry* e = storage_->GetTable(table_)->Get(key);
    EXPECT_NE(e, nullptr);
    EXPECT_TRUE(e->live());
    return std::get<int64_t>(*e->row->Get("v"));
  }

  sim::EventLoop loop_;
  std::unique_ptr<db::Storage> storage_;
  std::unique_ptr<history::Recorder> recorder_;
  std::unique_ptr<Ltm> ltm_;
  db::TableId table_ = -1;
};

TEST_F(LtmTest, SelectUpdateInsertDelete) {
  Build();
  const LtmTxnHandle t = Begin(1);

  auto sel = Exec(t, db::MakeSelect(table_, db::Predicate::KeyRange(2, 4)));
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->rows.size(), 3u);

  auto upd = Exec(t, db::MakeAddKey(table_, 2, "v", int64_t{5}));
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->affected, 1);
  EXPECT_EQ(Val(2), 25);

  auto ins = Exec(t, db::MakeInsert(table_, 100,
                                    db::Row{{"v", db::Value(int64_t{1})}}));
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(Val(100), 1);

  auto del = Exec(t, db::MakeDeleteKey(table_, 3));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->affected, 1);

  ASSERT_TRUE(ltm_->Commit(t).ok());
  EXPECT_FALSE(storage_->GetTable(table_)->Get(3)->live());
  EXPECT_EQ(ltm_->stats().committed, 1);
}

TEST_F(LtmTest, PredicateUpdateTouchesAllMatches) {
  Build();
  const LtmTxnHandle t = Begin(1);
  auto upd = Exec(t, db::MakeUpdate(
                         table_,
                         db::Predicate::Field("v", db::CmpOp::kGe,
                                              db::Value(int64_t{50})),
                         {db::Assignment{"v", db::Assignment::Kind::kSet,
                                         db::Value(int64_t{0})}}));
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->affected, 5);  // keys 5..9
  ASSERT_TRUE(ltm_->Commit(t).ok());
  EXPECT_EQ(Val(7), 0);
  EXPECT_EQ(Val(4), 40);
}

TEST_F(LtmTest, AbortRestoresBeforeImages) {
  Build();
  const LtmTxnHandle t = Begin(1);
  ASSERT_TRUE(Exec(t, db::MakeAddKey(table_, 2, "v", int64_t{5})).ok());
  ASSERT_TRUE(Exec(t, db::MakeDeleteKey(table_, 3)).ok());
  ASSERT_TRUE(
      Exec(t, db::MakeInsert(table_, 200, db::Row{{"v", db::Value(int64_t{9})}}))
          .ok());
  ASSERT_TRUE(ltm_->Abort(t).ok());

  EXPECT_EQ(Val(2), 20);
  EXPECT_TRUE(storage_->GetTable(table_)->Get(3)->live());
  EXPECT_EQ(Val(3), 30);
  EXPECT_EQ(storage_->GetTable(table_)->Get(200), nullptr);
  // The abort is recorded as non-unilateral.
  bool found = false;
  for (const auto& op : recorder_->ops()) {
    if (op.kind == history::OpKind::kLocalAbort) {
      found = true;
      EXPECT_FALSE(op.unilateral);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(LtmTest, ProvenanceIsRecordedAndRestored) {
  Build();
  const LtmTxnHandle t1 = Begin(1);
  ASSERT_TRUE(Exec(t1, db::MakeAddKey(table_, 2, "v", int64_t{5})).ok());
  const db::VersionTag written =
      storage_->GetTable(table_)->Get(2)->version;
  EXPECT_EQ(written.writer.txn, TxnId::MakeLocal(0, 1));
  ASSERT_TRUE(ltm_->Abort(t1).ok());
  EXPECT_TRUE(storage_->GetTable(table_)->Get(2)->version.initial());

  const LtmTxnHandle t2 = Begin(2);
  ASSERT_TRUE(Exec(t2, db::MakeSelectKey(table_, 2)).ok());
  ASSERT_TRUE(ltm_->Commit(t2).ok());
  // The read observed the initial version, not the aborted write.
  bool checked = false;
  for (const auto& op : recorder_->ops()) {
    if (op.kind == history::OpKind::kRead &&
        op.subtxn.txn == TxnId::MakeLocal(0, 2)) {
      EXPECT_TRUE(op.version.initial());
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST_F(LtmTest, RigorousSchedulerBlocksWriteAfterRead) {
  Build();
  const LtmTxnHandle reader = Begin(1);
  ASSERT_TRUE(Exec(reader, db::MakeSelectKey(table_, 2)).ok());

  // A writer must wait for the reader's lock: with nobody releasing it, the
  // wait times out and the writer is unilaterally aborted.
  const LtmTxnHandle writer = Begin(2);
  auto upd = Exec(writer, db::MakeAddKey(table_, 2, "v", int64_t{1}));
  EXPECT_FALSE(upd.ok());
  EXPECT_FALSE(ltm_->IsActive(writer));
  EXPECT_EQ(ltm_->stats().lock_timeout_aborts, 1);
  EXPECT_TRUE(ltm_->IsActive(reader));
}

TEST_F(LtmTest, NonRigorousSchedulerReleasesReadLocksEarly) {
  LtmConfig config;
  config.rigorous = false;
  Build(config);
  const LtmTxnHandle reader = Begin(1);
  ASSERT_TRUE(Exec(reader, db::MakeSelectKey(table_, 2)).ok());

  const LtmTxnHandle writer = Begin(2);
  auto upd = Exec(writer, db::MakeAddKey(table_, 2, "v", int64_t{1}));
  EXPECT_TRUE(upd.ok());  // read lock already released: not rigorous
  ASSERT_TRUE(ltm_->Commit(writer).ok());
  ASSERT_TRUE(ltm_->Commit(reader).ok());
}

TEST_F(LtmTest, UanListenerFiresForGlobalSubtransactions) {
  Build();
  std::vector<SubTxnId> notified;
  ltm_->SetUanListener([&](const SubTxnId& id, LtmTxnHandle) {
    notified.push_back(id);
  });

  const SubTxnId gid{TxnId::MakeGlobal(1, 7), 2};
  const LtmTxnHandle g = ltm_->Begin(gid);
  ASSERT_TRUE(Exec(g, db::MakeAddKey(table_, 1, "v", int64_t{1})).ok());
  ASSERT_TRUE(ltm_->InjectUnilateralAbort(g).ok());
  loop_.Run();
  ASSERT_EQ(notified.size(), 1u);
  EXPECT_EQ(notified[0], gid);
  EXPECT_EQ(Val(1), 10);  // rolled back

  // Local transactions do not notify.
  const LtmTxnHandle l = Begin(1);
  ASSERT_TRUE(Exec(l, db::MakeAddKey(table_, 1, "v", int64_t{1})).ok());
  ASSERT_TRUE(ltm_->InjectUnilateralAbort(l).ok());
  loop_.Run();
  EXPECT_EQ(notified.size(), 1u);
}

TEST_F(LtmTest, CommitOfAbortedTransactionFails) {
  Build();
  const LtmTxnHandle t = Begin(1);
  ASSERT_TRUE(Exec(t, db::MakeAddKey(table_, 1, "v", int64_t{1})).ok());
  ASSERT_TRUE(ltm_->InjectUnilateralAbort(t).ok());
  EXPECT_FALSE(ltm_->Commit(t).ok());
  EXPECT_FALSE(ltm_->Commit(9999).ok());  // unknown handle
  // Executing on a dead transaction fails asynchronously.
  auto r = Exec(t, db::MakeSelectKey(table_, 1));
  EXPECT_FALSE(r.ok());
}

TEST_F(LtmTest, DluBlocksLocalWriterUntilUnbind) {
  // A local update of bound data is refused at once, aborting the local
  // transaction; once the item is unbound a local update goes through.
  Build();
  const ItemId item{0, table_, 2};
  ltm_->BindItems({item});
  EXPECT_TRUE(ltm_->IsBound(item));

  const LtmTxnHandle t = Begin(1);
  const auto refused = Exec(t, db::MakeAddKey(table_, 2, "v", int64_t{1}));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kRejected);
  EXPECT_FALSE(ltm_->IsActive(t));
  EXPECT_EQ(ltm_->stats().dlu_rejections, 1);
  EXPECT_EQ(ltm_->stats().dlu_waits, 0);

  ltm_->UnbindItems({item});
  const LtmTxnHandle t2 = Begin(2);
  ASSERT_TRUE(Exec(t2, db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());
  ASSERT_TRUE(ltm_->Commit(t2).ok());
  EXPECT_EQ(Val(2), 21);
}

TEST_F(LtmTest, DluBindingsAreCounted) {
  Build();
  const ItemId item{0, table_, 2};
  // Two prepared subtransactions bind the item; the first to finish must
  // not unbind it for the other.
  ltm_->BindItems({item});
  ltm_->BindItems({item});
  ltm_->UnbindItems({item});
  EXPECT_TRUE(ltm_->IsBound(item));
  EXPECT_FALSE(Exec(Begin(1), db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());

  ltm_->UnbindItems({item});
  EXPECT_FALSE(ltm_->IsBound(item));
  EXPECT_TRUE(Exec(Begin(2), db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());
}

TEST_F(LtmTest, ClearBindingsDropsEveryCount) {
  Build();
  const ItemId item{0, table_, 2};
  ltm_->BindItems({item});
  ltm_->BindItems({item});
  ltm_->ClearBindings();  // a site crash loses every binding
  EXPECT_FALSE(ltm_->IsBound(item));
  EXPECT_TRUE(Exec(Begin(1), db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());
}

// A local update whose lock is granted on an item that became bound while
// it waited is refused too, whether the transaction took the lock in this
// command or held it from an earlier one: releasing a lock from an earlier
// command would let a writer in between its reads, and waiting would keep
// a lock the prepared subtransaction may need to resubmit.
TEST_F(LtmTest, DluRefusesUpdatesWhoseLockCameAfterTheBinding) {
  Build();
  const ItemId item{0, table_, 2};
  const LtmTxnHandle reader = Begin(1);  // reads, then updates the item
  ASSERT_TRUE(Exec(reader, db::MakeSelectKey(table_, 2)).ok());
  const LtmTxnHandle global =
      ltm_->Begin(SubTxnId{TxnId::MakeGlobal(1, 5), 0});
  ASSERT_TRUE(Exec(global, db::MakeSelectKey(table_, 2)).ok());
  const LtmTxnHandle writer = Begin(2);  // only updates it

  std::optional<Status> reader_status, writer_status;
  ltm_->Execute(reader, db::MakeAddKey(table_, 2, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) {
                  reader_status = s;
                });
  ltm_->Execute(writer, db::MakeAddKey(table_, 2, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) {
                  writer_status = s;
                });
  loop_.RunUntil(loop_.Now() + 10 * sim::kMillisecond);
  // Both wait for the global reader's shared lock.
  EXPECT_FALSE(reader_status.has_value());
  EXPECT_FALSE(writer_status.has_value());

  // The global subtransaction prepares and binds the item, then the LDBS
  // aborts it: its lock goes, its binding stays until it resubmits.
  ltm_->BindItems({item});
  ASSERT_TRUE(ltm_->InjectUnilateralAbort(global).ok());
  loop_.RunUntil(loop_.Now() + 10 * sim::kMillisecond);
  ASSERT_TRUE(reader_status.has_value());
  EXPECT_EQ(reader_status->code(), StatusCode::kRejected);
  ASSERT_TRUE(writer_status.has_value());
  EXPECT_EQ(writer_status->code(), StatusCode::kRejected);
  EXPECT_FALSE(ltm_->IsActive(reader));
  EXPECT_FALSE(ltm_->IsActive(writer));
  EXPECT_EQ(ltm_->stats().dlu_rejections, 2);
  EXPECT_EQ(Val(2), 20);
}

TEST_F(LtmTest, DluAllowsLocalReadsAndGlobalWrites) {
  Build();
  const ItemId item{0, table_, 2};
  ltm_->BindItems({item});

  const LtmTxnHandle local_reader = Begin(1);
  EXPECT_TRUE(Exec(local_reader, db::MakeSelectKey(table_, 2)).ok());
  ASSERT_TRUE(ltm_->Commit(local_reader).ok());

  const LtmTxnHandle global_writer =
      ltm_->Begin(SubTxnId{TxnId::MakeGlobal(0, 5), 0});
  EXPECT_TRUE(
      Exec(global_writer, db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());
  ASSERT_TRUE(ltm_->Commit(global_writer).ok());
  ltm_->UnbindItems({item});
}

TEST_F(LtmTest, DluRejectModeFailsImmediately) {
  // Refusal is the only DLU rule: no virtual time passes before it.
  Build();
  ltm_->BindItems({ItemId{0, table_, 2}});
  const LtmTxnHandle t = Begin(1);
  std::optional<Status> status;
  ltm_->Execute(t, db::MakeAddKey(table_, 2, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) { status = s; });
  loop_.RunUntil(loop_.Now());
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code(), StatusCode::kRejected);
  EXPECT_EQ(ltm_->stats().dlu_rejections, 1);
}

TEST_F(LtmTest, DuplicateInsertAbortsTransaction) {
  Build();
  const LtmTxnHandle t = Begin(1);
  auto r = Exec(t, db::MakeInsert(table_, 2, db::Row{}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(ltm_->IsActive(t));
}

TEST_F(LtmTest, CommandOnMissingTableAbortsTransaction) {
  Build();
  const LtmTxnHandle t = Begin(1);
  // The executor fails in Start, inside Execute, where the LTM's reference
  // is the only one; the abort that follows must not touch freed memory
  // (regression, caught by ASan).
  auto r = Exec(t, db::MakeAddKey(table_ + 1, 2, "v", int64_t{1}));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(ltm_->IsActive(t));
}

TEST_F(LtmTest, UpsertOverwritesExistingRow) {
  Build();
  const LtmTxnHandle t = Begin(1);
  db::InsertCmd upsert{table_, 2, db::Row{{"v", db::Value(int64_t{999})}},
                       /*upsert=*/true};
  ASSERT_TRUE(Exec(t, db::Command{upsert}).ok());
  ASSERT_TRUE(ltm_->Commit(t).ok());
  EXPECT_EQ(Val(2), 999);
}

TEST_F(LtmTest, DeadlockDetectionAbortsVictim) {
  LtmConfig config;
  config.deadlock_detection = true;
  config.lock_wait_timeout = 10 * sim::kSecond;  // detection, not timeout
  Build(config);

  const LtmTxnHandle t1 = Begin(1);
  const LtmTxnHandle t2 = Begin(2);
  ASSERT_TRUE(Exec(t1, db::MakeAddKey(table_, 1, "v", int64_t{1})).ok());
  ASSERT_TRUE(Exec(t2, db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());

  // Cross-blocking updates -> deadlock.
  std::optional<Status> s1, s2;
  ltm_->Execute(t1, db::MakeAddKey(table_, 2, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) { s1 = s; });
  ltm_->Execute(t2, db::MakeAddKey(table_, 1, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) { s2 = s; });
  loop_.RunUntil(loop_.Now() + sim::kSecond);
  EXPECT_EQ(ltm_->stats().deadlock_victim_aborts, 1);
  // Exactly one of the two died; the survivor's command completed.
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_NE(s1->ok(), s2->ok());
}

TEST_F(LtmTest, DeadlockDetectorRunsOnlyWhileALockRequestWaits) {
  LtmConfig config;
  config.deadlock_detection = true;
  config.lock_wait_timeout = 10 * sim::kSecond;  // detection, not timeout
  Build(config);
  EXPECT_TRUE(loop_.Empty());  // nothing waits, nothing is scheduled

  const LtmTxnHandle t1 = Begin(1);
  const LtmTxnHandle t2 = Begin(2);
  ASSERT_TRUE(Exec(t1, db::MakeAddKey(table_, 1, "v", int64_t{1})).ok());
  ASSERT_TRUE(Exec(t2, db::MakeAddKey(table_, 2, "v", int64_t{1})).ok());
  EXPECT_TRUE(loop_.Empty());

  std::optional<Status> s1, s2;
  ltm_->Execute(t1, db::MakeAddKey(table_, 2, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) { s1 = s; });
  ltm_->Execute(t2, db::MakeAddKey(table_, 1, "v", int64_t{1}),
                [&](const Status& s, const db::CmdResult&) { s2 = s; });
  // Run to an empty queue: the search that finds the cycle aborts a
  // victim, the next finds no waiter and schedules nothing more.
  const sim::Time start = loop_.Now();
  loop_.Run();
  EXPECT_TRUE(loop_.Empty());
  EXPECT_LT(loop_.Now() - start, 100 * sim::kMillisecond);
  EXPECT_EQ(ltm_->stats().deadlock_victim_aborts, 1);
  EXPECT_EQ(ltm_->stats().lock_timeout_aborts, 0);
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_NE(s1->ok(), s2->ok());
}

}  // namespace
}  // namespace hermes::ltm
