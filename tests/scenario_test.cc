// System-level reproductions of the paper's distortion scenarios, executed
// through the real protocol stack (coordinators, network, agents, LTMs).
//
// Each scenario is run twice: with certification disabled (CertPolicy::kNone)
// the paper's anomaly materializes and the oracle rejects the history; with
// the full certifier the anomaly is prevented.

#include <gtest/gtest.h>

#include "core/mdbs.h"
#include "history/graphs.h"
#include "history/projection.h"
#include "history/view_checker.h"

namespace hermes {
namespace {

using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;

constexpr SiteId kA = 0;
constexpr SiteId kB = 1;
constexpr SiteId kC = 2;  // pure coordinating site

constexpr int64_t kX = 0;
constexpr int64_t kY = 1;
constexpr int64_t kZ = 2;
constexpr int64_t kQ = 3;
constexpr int64_t kU = 4;

class ScenarioTest : public ::testing::Test {
 protected:
  void Build(CertPolicy policy) {
    MdbsConfig config;
    config.num_sites = 3;
    config.agent.policy = policy;
    // Lazy alive checks: resubmission in these scenarios is triggered by
    // the commit path, exactly like the paper's H1/H2 interleavings.
    config.agent.alive_check_interval = 200 * sim::kMillisecond;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (SiteId s : {kA, kB}) {
      for (int64_t k : {kX, kY, kZ, kQ, kU}) {
        ASSERT_TRUE(mdbs_->LoadRow(s, table_, k,
                                   db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }
    loop_.set_max_events(10'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  history::ViewCheckResult Check() {
    const auto committed =
        history::CommittedProjection(mdbs_->recorder().ops());
    EXPECT_EQ(history::VerifyReplayMatchesRecorded(committed), "");
    return history::CheckViewSerializability(committed);
  }

  // Order of local commits of two transactions at one site, by history
  // position. Returns true if `first` committed before `second`.
  bool LocalCommitBefore(const TxnId& first, const TxnId& second,
                         SiteId site) {
    int64_t first_at = -1, second_at = -1;
    for (const auto& op : mdbs_->recorder().ops()) {
      if (op.kind != history::OpKind::kLocalCommit || op.site != site) {
        continue;
      }
      if (op.subtxn.txn == first) first_at = static_cast<int64_t>(op.seq);
      if (op.subtxn.txn == second) second_at = static_cast<int64_t>(op.seq);
    }
    EXPECT_GE(first_at, 0);
    EXPECT_GE(second_at, 0);
    return first_at < second_at;
  }

  sim::EventLoop loop_;
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
};

// --- H1: global view distortion ------------------------------------------------

struct H1Outcome {
  std::optional<GlobalTxnResult> t1, t2;
  TxnId t1_id, t2_id;
};

// T1 (coordinated from site c): reads X@a, updates Y@a, updates Z@b.
// On T1's prepare at site a its subtransaction is unilaterally aborted; in
// the failure window T2 (coordinated at a) deletes Y, updates X and updates
// Z. T1's resubmission then re-decomposes (Y is gone) and reads T2's X —
// two views for T1.
H1Outcome RunH1(ScenarioTest& t, Mdbs& mdbs, sim::EventLoop& loop,
                db::TableId table) {
  H1Outcome out;
  bool injected = false;
  mdbs.agent(kA)->set_prepared_hook([&](const TxnId& gtid,
                                        LtmTxnHandle handle) {
    if (injected || !(gtid == out.t1_id)) return;
    injected = true;
    loop.ScheduleAfter(0, [&mdbs, handle]() {
      (void)mdbs.ltm(kA)->InjectUnilateralAbort(handle);
    });
    // T2 starts in the failure window, coordinated at site a for speed.
    GlobalTxnSpec t2;
    t2.steps.push_back({kA, db::MakeDeleteKey(table, kY)});
    t2.steps.push_back({kA, db::MakeAddKey(table, kX, "v", int64_t{100})});
    t2.steps.push_back({kB, db::MakeAddKey(table, kZ, "v", int64_t{100})});
    out.t2_id = mdbs.Submit(
        t2, [&out](const GlobalTxnResult& r) { out.t2 = r; }, kA);
  });

  GlobalTxnSpec t1;
  t1.steps.push_back({kA, db::MakeSelectKey(table, kX)});
  t1.steps.push_back({kA, db::MakeAddKey(table, kY, "v", int64_t{10})});
  t1.steps.push_back({kB, db::MakeAddKey(table, kZ, "v", int64_t{10})});
  out.t1_id = mdbs.Submit(
      t1, [&out](const GlobalTxnResult& r) { out.t1 = r; }, kC);
  loop.Run();
  (void)t;
  return out;
}

TEST_F(ScenarioTest, H1NaiveAgentProducesGlobalViewDistortion) {
  Build(CertPolicy::kNone);
  const H1Outcome out = RunH1(*this, *mdbs_, loop_, table_);

  ASSERT_TRUE(out.t1.has_value());
  ASSERT_TRUE(out.t2.has_value());
  EXPECT_TRUE(out.t1->status.ok()) << out.t1->status;
  EXPECT_TRUE(out.t2->status.ok()) << out.t2->status;
  EXPECT_GE(mdbs_->metrics().resubmissions, 1);

  // Y was deleted by T2, so T1's resubmitted update matched nothing.
  const db::RowEntry* y = mdbs_->storage(kA)->GetTable(table_)->Get(kY);
  ASSERT_NE(y, nullptr);
  EXPECT_FALSE(y->live());

  const auto check = Check();
  EXPECT_EQ(check.verdict, history::Verdict::kNotSerializable)
      << check.reason;
}

TEST_F(ScenarioTest, H1FullCertifierPreventsTheDistortion) {
  Build(CertPolicy::kFull);
  const H1Outcome out = RunH1(*this, *mdbs_, loop_, table_);

  ASSERT_TRUE(out.t1.has_value());
  ASSERT_TRUE(out.t2.has_value());
  // T1 survives the failure via resubmission; T2 is filtered out by the
  // basic prepare certification (its alive interval cannot intersect the
  // dead T1's).
  EXPECT_TRUE(out.t1->status.ok()) << out.t1->status;
  EXPECT_FALSE(out.t2->status.ok());
  EXPECT_TRUE(out.t2->certification_refused);
  EXPECT_GE(mdbs_->metrics().refuse_interval, 1);

  // T1's updates applied exactly once; Y still exists.
  const db::RowEntry* y = mdbs_->storage(kA)->GetTable(table_)->Get(kY);
  ASSERT_NE(y, nullptr);
  ASSERT_TRUE(y->live());
  EXPECT_EQ(std::get<int64_t>(*y->row->Get("v")), 10);

  const auto check = Check();
  EXPECT_EQ(check.verdict, history::Verdict::kSerializable) << check.reason;
}

// --- H2: local view distortion --------------------------------------------------

struct H2Outcome {
  std::optional<GlobalTxnResult> t1, t3;
  TxnId t1_id, t3_id;
  SubTxnId l4_id;
  bool l4_committed = false;
};

// T1 as in H1. After T1's subtransaction at a dies, T3 reads Z@b (from T1)
// and updates Q@a, committing at a before T1's resubmission does. The local
// transaction L4 reads Y early (observing T_0's version, and blocking T1's
// resubmitted write of Y via its read lock) and Q late (observing T3) —
// L4's view is inconsistent: it sees T3 but not T1 while T3 read from T1.
H2Outcome RunH2(Mdbs& mdbs, sim::EventLoop& loop, db::TableId table) {
  H2Outcome out;
  out.l4_id = SubTxnId{TxnId::MakeLocal(kA, 9999), 0};

  bool injected = false;
  mdbs.agent(kA)->set_prepared_hook([&](const TxnId& gtid,
                                        LtmTxnHandle handle) {
    if (injected || !(gtid == out.t1_id)) return;
    injected = true;
    loop.ScheduleAfter(0, [&mdbs, handle]() {
      (void)mdbs.ltm(kA)->InjectUnilateralAbort(handle);
    });

    // T3: reads Z at b (must wait for T1's commit there), updates Q at a.
    GlobalTxnSpec t3;
    t3.steps.push_back({kB, db::MakeSelectKey(table, kZ)});
    t3.steps.push_back({kA, db::MakeAddKey(table, kQ, "v", int64_t{7})});
    out.t3_id = mdbs.Submit(
        t3, [&out](const GlobalTxnResult& r) { out.t3 = r; }, kC);

    // L4, driven step by step so its reads bracket the failure window:
    // Y early (before T1's resubmitted write), Q late (after T3's write).
    ltm::Ltm* ltm = mdbs.ltm(kA);
    loop.ScheduleAfter(200 * sim::kMicrosecond, [&, ltm]() {
      const LtmTxnHandle l4 = ltm->Begin(out.l4_id);
      ltm->Execute(l4, db::MakeSelectKey(table, kY),
                   [&, ltm, l4](const Status& s, const db::CmdResult&) {
                     ASSERT_TRUE(s.ok()) << s;
                     loop.ScheduleAfter(5 * sim::kMillisecond, [&, ltm,
                                                               l4]() {
                       ltm->Execute(
                           l4, db::MakeSelectKey(table, kQ),
                           [&, ltm, l4](const Status& s2,
                                        const db::CmdResult&) {
                             ASSERT_TRUE(s2.ok()) << s2;
                             ltm->Execute(
                                 l4,
                                 db::MakeAddKey(table, kU, "v", int64_t{1}),
                                 [&, ltm, l4](const Status& s3,
                                              const db::CmdResult&) {
                                   ASSERT_TRUE(s3.ok()) << s3;
                                   out.l4_committed =
                                       ltm->Commit(l4).ok();
                                 });
                           });
                     });
                   });
    });
  });

  GlobalTxnSpec t1;
  t1.steps.push_back({kA, db::MakeSelectKey(table, kX)});
  t1.steps.push_back({kA, db::MakeAddKey(table, kY, "v", int64_t{10})});
  t1.steps.push_back({kB, db::MakeAddKey(table, kZ, "v", int64_t{10})});
  out.t1_id = mdbs.Submit(
      t1, [&out](const GlobalTxnResult& r) { out.t1 = r; }, kC);
  loop.Run();
  return out;
}

TEST_F(ScenarioTest, H2NaiveAgentProducesLocalViewDistortion) {
  Build(CertPolicy::kNone);
  const H2Outcome out = RunH2(*mdbs_, loop_, table_);

  ASSERT_TRUE(out.t1.has_value());
  ASSERT_TRUE(out.t3.has_value());
  EXPECT_TRUE(out.t1->status.ok()) << out.t1->status;
  EXPECT_TRUE(out.t3->status.ok()) << out.t3->status;
  EXPECT_TRUE(out.l4_committed);

  // The reversed local commit orders of the paper's H2: T1 before T3 at b,
  // T3 before T1 at a.
  EXPECT_TRUE(LocalCommitBefore(out.t1_id, out.t3_id, kB));
  EXPECT_TRUE(LocalCommitBefore(out.t3_id, out.t1_id, kA));
  const auto committed =
      history::CommittedProjection(mdbs_->recorder().ops());
  EXPECT_TRUE(history::BuildCommitOrderGraph(committed).HasCycle());

  const auto check = Check();
  EXPECT_EQ(check.verdict, history::Verdict::kNotSerializable)
      << check.reason;
}

TEST_F(ScenarioTest, H2FullCertifierKeepsHistoryViewSerializable) {
  Build(CertPolicy::kFull);
  const H2Outcome out = RunH2(*mdbs_, loop_, table_);

  ASSERT_TRUE(out.t1.has_value());
  ASSERT_TRUE(out.t3.has_value());
  EXPECT_TRUE(out.t1->status.ok()) << out.t1->status;
  // T3 is refused by the prepare certification at site a (T1 was not alive
  // simultaneously with it).
  EXPECT_FALSE(out.t3->status.ok());

  const auto committed =
      history::CommittedProjection(mdbs_->recorder().ops());
  EXPECT_FALSE(history::BuildCommitOrderGraph(committed).HasCycle());
  const auto check = Check();
  EXPECT_EQ(check.verdict, history::Verdict::kSerializable) << check.reason;
}

}  // namespace
}  // namespace hermes
