// Tests of the CGM baseline: commit graph admission, granule derivation,
// global lock manager, and the end-to-end centralized system.

#include <gtest/gtest.h>

#include "cgm/cgm_mdbs.h"
#include "cgm/commit_graph.h"
#include "cgm/global_locks.h"
#include "history/projection.h"
#include "history/view_checker.h"

namespace hermes::cgm {
namespace {

TEST(CommitGraph, SingleSiteTransactionsNeverLoop) {
  CommitGraph g;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(g.TryAdd(TxnId::MakeGlobal(0, i), {0}));
  }
  EXPECT_EQ(g.txn_count(), 10u);
}

TEST(CommitGraph, TwoTxnsSharingTwoSitesLoop) {
  CommitGraph g;
  EXPECT_TRUE(g.TryAdd(TxnId::MakeGlobal(0, 1), {0, 1}));
  // Second transaction spanning the same two sites closes a loop.
  EXPECT_FALSE(g.TryAdd(TxnId::MakeGlobal(0, 2), {0, 1}));
  // After the first finishes, the second is admissible.
  g.Remove(TxnId::MakeGlobal(0, 1));
  EXPECT_TRUE(g.TryAdd(TxnId::MakeGlobal(0, 2), {0, 1}));
}

TEST(CommitGraph, TransitiveConnectivityDetected) {
  CommitGraph g;
  EXPECT_TRUE(g.TryAdd(TxnId::MakeGlobal(0, 1), {0, 1}));
  EXPECT_TRUE(g.TryAdd(TxnId::MakeGlobal(0, 2), {1, 2}));
  // Sites 0 and 2 are connected through T1-site1-T2: adding a transaction
  // spanning {0, 2} closes a loop even though no prior txn spans them.
  EXPECT_FALSE(g.TryAdd(TxnId::MakeGlobal(0, 3), {0, 2}));
  // Disjoint additions stay fine.
  EXPECT_TRUE(g.TryAdd(TxnId::MakeGlobal(0, 4), {3, 4}));
}

TEST(CommitGraph, DuplicateSitesInOneTxnLoopImmediately) {
  CommitGraph g;
  EXPECT_FALSE(g.TryAdd(TxnId::MakeGlobal(0, 1), {0, 0}));
}

TEST(Granules, SiteTableItemDerivation) {
  const db::Command keyed = db::MakeAddKey(3, 42, "v", db::Value(int64_t{1}));
  const db::Command scan =
      db::MakeSelect(3, db::Predicate::Field("v", db::CmpOp::kGt,
                                             db::Value(int64_t{0})));

  auto site = GranulesOf(Granularity::kSite, 7, keyed);
  ASSERT_EQ(site.size(), 1u);
  EXPECT_EQ(site[0].id, (ItemId{7, -1, -1}));
  EXPECT_EQ(site[0].mode, ltm::LockMode::kExclusive);

  auto table = GranulesOf(Granularity::kTable, 7, keyed);
  EXPECT_EQ(table[0].id, (ItemId{7, 3, -1}));

  auto item = GranulesOf(Granularity::kItem, 7, keyed);
  EXPECT_EQ(item[0].id, (ItemId{7, 3, 42}));

  // A predicate scan cannot be item-locked: it escalates to the table.
  auto escalated = GranulesOf(Granularity::kItem, 7, scan);
  EXPECT_EQ(escalated[0].id, (ItemId{7, 3, -1}));
  EXPECT_EQ(escalated[0].mode, ltm::LockMode::kShared);
}

TEST(GlobalLockManager, SequentialAcquireAndTimeout) {
  sim::EventLoop loop;
  GlobalLockManager locks(50 * sim::kMillisecond, &loop);
  const TxnId t1 = TxnId::MakeGlobal(0, 1);
  const TxnId t2 = TxnId::MakeGlobal(0, 2);
  const Granule g{ItemId{0, -1, -1}, ltm::LockMode::kExclusive};

  std::optional<Status> s1, s2;
  locks.AcquireAll(t1, {g}, [&](Status s) { s1 = s; });
  locks.AcquireAll(t2, {g}, [&](Status s) { s2 = s; });
  loop.Run();
  ASSERT_TRUE(s1.has_value());
  ASSERT_TRUE(s2.has_value());
  EXPECT_TRUE(s1->ok());
  EXPECT_EQ(s2->code(), StatusCode::kTimeout);

  // Release unblocks future acquisitions.
  locks.ReleaseAll(t1);
  std::optional<Status> s3;
  locks.AcquireAll(t2, {g}, [&](Status s) { s3 = s; });
  loop.Run();
  EXPECT_TRUE(s3->ok());
}

class CgmSystemTest : public ::testing::Test {
 protected:
  void Build(Granularity granularity, int sites = 3) {
    CgmConfig config;
    config.mdbs.num_sites = sites;
    config.granularity = granularity;
    cgm_ = std::make_unique<CgmMdbs>(config, &loop_);
    table_ = *cgm_->mdbs().CreateTableEverywhere("t");
    for (SiteId s = 0; s < sites; ++s) {
      for (int64_t k = 0; k < 8; ++k) {
        ASSERT_TRUE(cgm_->mdbs()
                        .LoadRow(s, table_, k,
                                 db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }
    loop_.set_max_events(10'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  core::GlobalTxnSpec TwoSiteTxn(SiteId a, SiteId b, int64_t key) {
    core::GlobalTxnSpec spec;
    spec.steps.push_back({a, db::MakeAddKey(table_, key, "v", int64_t{1})});
    spec.steps.push_back({b, db::MakeAddKey(table_, key, "v", int64_t{1})});
    return spec;
  }

  sim::EventLoop loop_;
  std::unique_ptr<CgmMdbs> cgm_;
  db::TableId table_ = -1;
};

TEST_F(CgmSystemTest, SingleTransactionCommits) {
  Build(Granularity::kSite);
  std::optional<core::GlobalTxnResult> result;
  cgm_->Submit(TwoSiteTxn(0, 1, 1),
               [&](const core::GlobalTxnResult& r) { result = r; });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  const auto committed =
      history::CommittedProjection(cgm_->mdbs().recorder().ops());
  EXPECT_EQ(history::CheckViewSerializability(committed).verdict,
            history::Verdict::kSerializable);
}

TEST_F(CgmSystemTest, SiteGranularitySerializesDisjointTransactions) {
  // Two transactions on *different rows* still conflict under site-level
  // global locks: the second waits for the first — the restrictiveness the
  // paper criticizes.
  Build(Granularity::kSite);
  std::optional<core::GlobalTxnResult> r1, r2;
  sim::Time t1_done = 0, t2_done = 0;
  cgm_->Submit(TwoSiteTxn(0, 1, 1), [&](const core::GlobalTxnResult& r) {
    r1 = r;
    t1_done = loop_.Now();
  });
  cgm_->Submit(TwoSiteTxn(0, 1, 2), [&](const core::GlobalTxnResult& r) {
    r2 = r;
    t2_done = loop_.Now();
  });
  loop_.Run();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE(r1->status.ok());
  EXPECT_TRUE(r2->status.ok());
  // Strictly serialized: the second finished a full execution later.
  EXPECT_GT(std::max(t1_done, t2_done) - std::min(t1_done, t2_done),
            2 * sim::kMillisecond);
}

TEST_F(CgmSystemTest, ItemGranularityAllowsDisjointConcurrency) {
  Build(Granularity::kItem);
  std::optional<core::GlobalTxnResult> r1, r2;
  cgm_->Submit(TwoSiteTxn(0, 1, 1),
               [&](const core::GlobalTxnResult& r) { r1 = r; });
  cgm_->Submit(TwoSiteTxn(0, 1, 2),
               [&](const core::GlobalTxnResult& r) { r2 = r; });
  loop_.Run();
  EXPECT_TRUE(r1->status.ok());
  EXPECT_TRUE(r2->status.ok());
}

TEST_F(CgmSystemTest, LoopedAdmissionWaitsForTheFinishedTransaction) {
  // Item granules let three transactions on the same two sites reach
  // commit together; the commit graph admits one at a time, since any two
  // of them close a loop. The others wait, not fail: each FinishedMsg
  // retries the waiters in arrival order, so they commit in submission
  // order, each right after the one before it finished.
  Build(Granularity::kItem);
  std::vector<int64_t> order;
  std::vector<sim::Time> done_at;
  std::vector<Status> status;
  for (int64_t key = 1; key <= 3; ++key) {
    cgm_->Submit(TwoSiteTxn(0, 1, key),
                 [&, key](const core::GlobalTxnResult& r) {
                   order.push_back(key);
                   done_at.push_back(loop_.Now());
                   status.push_back(r.status);
                 });
  }
  loop_.Run();
  ASSERT_EQ(order, (std::vector<int64_t>{1, 2, 3}));
  for (const Status& s : status) EXPECT_TRUE(s.ok()) << s;
  // Two admissions waited; none was refused.
  EXPECT_EQ(cgm_->mdbs().metrics().cgm_graph_rejections, 2);
  EXPECT_EQ(cgm_->mdbs().metrics().global_aborted, 0);
  // A waiter's commit round starts when its predecessor's edges leave:
  // one commit round later, far below any timeout.
  EXPECT_LT(done_at[1] - done_at[0], 20 * sim::kMillisecond);
  EXPECT_LT(done_at[2] - done_at[1], 20 * sim::kMillisecond);
  EXPECT_EQ(cgm_->scheduler().commit_graph().txn_count(), 0u);
}

// The client hears a commit at the decision, but CGM's global locks stay
// held until the last ACK (on_finished). T1's COMMIT to site 1 is lost
// once, so its last ACK comes a retransmission after its report; T2,
// submitted from T1's callback on the same sites, waits for the site locks
// that long, and is decided only after T1 committed at site 1.
TEST_F(CgmSystemTest, GlobalLocksAreReleasedAtTheLastAckNotAtTheReport) {
  Build(Granularity::kSite);
  core::Mdbs& mdbs = cgm_->mdbs();
  int prepared = 0;
  auto on_prepared = [&](const TxnId&, LtmTxnHandle) {
    if (++prepared == 2) mdbs.network().SetLinkLoss(0, 1, 1.0);
  };
  mdbs.agent(0)->add_prepared_hook(on_prepared);
  mdbs.agent(1)->add_prepared_hook(on_prepared);
  TxnId t1;
  std::optional<core::GlobalTxnResult> r2;
  bool t1_committed_at_t2_report = false;
  cgm_->Submit(TwoSiteTxn(0, 1, 1), [&](const core::GlobalTxnResult& r1) {
    EXPECT_TRUE(r1.status.ok()) << r1.status;
    EXPECT_FALSE(mdbs.agent(1)->log().HasCommit(r1.gtid));
    mdbs.network().ClearLinkLoss(0, 1);
    t1 = r1.gtid;
    cgm_->Submit(TwoSiteTxn(0, 1, 2), [&](const core::GlobalTxnResult& r) {
      r2 = r;
      t1_committed_at_t2_report = mdbs.agent(1)->log().HasCommit(t1);
    });
  });
  loop_.Run();
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE(r2->status.ok()) << r2->status;
  EXPECT_TRUE(t1_committed_at_t2_report);
  EXPECT_GE(mdbs.metrics().retransmits, 1);
  EXPECT_EQ(cgm_->scheduler().commit_graph().txn_count(), 0u);
}

TEST_F(CgmSystemTest, FailureRecoveryViaResubmissionStillWorks) {
  Build(Granularity::kSite);
  bool injected = false;
  cgm_->mdbs().agent(0)->set_prepared_hook(
      [&](const TxnId&, LtmTxnHandle handle) {
        if (injected) return;
        injected = true;
        loop_.ScheduleAfter(sim::kMillisecond, [this, handle]() {
          (void)cgm_->mdbs().ltm(0)->InjectUnilateralAbort(handle);
        });
      });
  std::optional<core::GlobalTxnResult> result;
  cgm_->Submit(TwoSiteTxn(0, 1, 1),
               [&](const core::GlobalTxnResult& r) { result = r; });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_TRUE(injected);
  EXPECT_GE(cgm_->mdbs().metrics().resubmissions, 1);
  const auto committed =
      history::CommittedProjection(cgm_->mdbs().recorder().ops());
  EXPECT_EQ(history::CheckViewSerializability(committed).verdict,
            history::Verdict::kSerializable);
}

}  // namespace
}  // namespace hermes::cgm
