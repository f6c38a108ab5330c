// Short-commit fast-path tests: single-site 1PC (the lone participant is
// the commit point), the read-only participant optimization (commit at
// prepare, no decision round), their failure behavior under unilateral
// abort / message loss / site crash, and the guarantee that multi-site
// writers always take the full 2PC path.

#include <gtest/gtest.h>

#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"

namespace hermes {
namespace {

using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;
using core::Message;
using core::SerialNumber;

class ShortCommitTest : public ::testing::Test {
 protected:
  void Build(int sites, double loss_prob = 0) {
    MdbsConfig config;
    config.num_sites = sites;
    config.agent.short_commit = true;
    config.network.loss_prob = loss_prob;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (SiteId s = 0; s < sites; ++s) {
      for (int64_t k = 0; k < 8; ++k) {
        ASSERT_TRUE(mdbs_->LoadRow(s, table_, k,
                                   db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }
    loop_.set_max_events(10'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  int64_t Val(SiteId site, int64_t key) {
    const db::RowEntry* e = mdbs_->storage(site)->GetTable(table_)->Get(key);
    EXPECT_NE(e, nullptr);
    EXPECT_TRUE(e->live());
    return std::get<int64_t>(*e->row->Get("v"));
  }

  void ExpectSerializable() {
    const auto committed =
        history::CommittedProjection(mdbs_->recorder().ops());
    EXPECT_EQ(history::VerifyReplayMatchesRecorded(committed), "");
    EXPECT_NE(history::CheckViewSerializability(committed).verdict,
              history::Verdict::kNotSerializable);
  }

  sim::EventLoop loop_;
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(ShortCommitTest, SingleSiteTransactionCommitsInOnePhase) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), 5);
  // The prepare round was skipped entirely: one 1PC round, no PREPAREs.
  EXPECT_EQ(mdbs_->metrics().short_commits_1pc, 1);
  EXPECT_EQ(mdbs_->metrics().prepares_received, 0);
  EXPECT_EQ(mdbs_->metrics().single_site_committed, 1);
  // The agent — the commit point — logged the full life cycle.
  EXPECT_TRUE(mdbs_->agent(0)->log().HasCommit(result->gtid));
  EXPECT_TRUE(mdbs_->agent(0)->log().HasComplete(result->gtid));
  ExpectSerializable();
}

TEST_F(ShortCommitTest, SingleSiteAbortWhenParticipantDiesBeforeCommitPoint) {
  Build(2);
  // Coordinate from site 1 so the 1PC-COMMIT has a ~1 ms flight to site 0;
  // a unilateral abort lands in that window. The agent must choose abort
  // (the transaction is dead at the commit point) and ack ROLLBACK.
  TxnId gtid;
  bool killed = false;
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  std::optional<GlobalTxnResult> result;
  gtid = mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                       /*coordinator_site=*/1);
  // The DML completes at site 0 around 1.2 ms; the 1PC-COMMIT arrives
  // around 3.2 ms. At 2.5 ms the subtransaction is active and doomed.
  loop_.ScheduleAfter(2500, [&]() {
    const LtmTxnHandle h = mdbs_->agent(0)->HandleOf(gtid);
    if (h != kInvalidLtmTxn && mdbs_->ltm(0)->IsActive(h)) {
      (void)mdbs_->ltm(0)->InjectUnilateralAbort(h);
      killed = true;
    }
  });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(killed);
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(Val(0, 1), 0);
  EXPECT_EQ(mdbs_->metrics().short_commits_1pc, 0);
  ExpectSerializable();
}

TEST_F(ShortCommitTest, LostOnePhaseCommitIsRetransmitted) {
  Build(2);
  // Coordinate from site 1: the DML response reaches the coordinator
  // around 2.2 ms and the 1PC-COMMIT leaves at once. The 1->0 link drops
  // everything between 1.5 ms and 10 ms, so that first 1PC-COMMIT is lost
  // and the coordinator's retry timer (25 ms) must send it again.
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/1);
  loop_.ScheduleAfter(1500,
                      [&]() { mdbs_->network().SetLinkLoss(1, 0, 1.0); });
  loop_.ScheduleAfter(10 * sim::kMillisecond,
                      [&]() { mdbs_->network().ClearLinkLoss(1, 0); });
  loop_.RunUntil(1 * sim::kSecond);

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), 5);
  EXPECT_EQ(mdbs_->network().messages_dropped(), 1);
  EXPECT_EQ(mdbs_->metrics().retransmits, 1);
  EXPECT_EQ(mdbs_->metrics().short_commits_1pc, 1);
  EXPECT_EQ(mdbs_->metrics().prepares_received, 0);
  ExpectSerializable();
}

TEST_F(ShortCommitTest, ReadOnlyParticipantCommitsAtPrepare) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  spec.steps.push_back({1, db::MakeSelectKey(table_, 1)});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), 5);
  // Both participants saw a PREPARE, but the write-free site committed
  // right there: no forced prepare record, no COMMIT message, no ack owed.
  EXPECT_EQ(mdbs_->metrics().prepares_received, 2);
  EXPECT_EQ(mdbs_->site_metrics()[1].short_commits_readonly, 1);
  EXPECT_FALSE(mdbs_->agent(1)->log().HasCommit(result->gtid));
  EXPECT_TRUE(mdbs_->agent(1)->log().HasComplete(result->gtid));
  // The writer ran the normal decision round.
  EXPECT_TRUE(mdbs_->agent(0)->log().HasCommit(result->gtid));
  ExpectSerializable();
}

TEST_F(ShortCommitTest, ReadOnlyFastPathConvergesUnderMessageLoss) {
  Build(2, /*loss_prob=*/0.25);
  // Lost PREPAREs and lost read-only READY votes force retransmissions; the
  // re-vote must keep carrying the read_only flag so the coordinator never
  // starts waiting for a decision ack from the already-committed reader.
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  spec.steps.push_back({1, db::MakeSelectKey(table_, 1)});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), 5);
  EXPECT_GE(mdbs_->metrics().short_commits_readonly, 1);
  ExpectSerializable();
}

TEST_F(ShortCommitTest, MixedWorkloadNeverShortCommitsMultiSiteWriter) {
  Build(2);
  // A single-site transaction and a two-site writer side by side: only the
  // former takes the 1PC path; the writer runs the full prepare round.
  GlobalTxnSpec single;
  single.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  GlobalTxnSpec multi;
  multi.steps.push_back({0, db::MakeAddKey(table_, 2, "v", int64_t{2})});
  multi.steps.push_back({1, db::MakeAddKey(table_, 2, "v", int64_t{2})});
  int committed = 0;
  mdbs_->Submit(single, [&](const GlobalTxnResult& r) {
    if (r.status.ok()) ++committed;
  });
  mdbs_->Submit(multi, [&](const GlobalTxnResult& r) {
    if (r.status.ok()) ++committed;
  });
  loop_.Run();

  EXPECT_EQ(committed, 2);
  EXPECT_EQ(mdbs_->metrics().short_commits_1pc, 1);
  // Exactly the multi-site writer's two participants prepared.
  EXPECT_EQ(mdbs_->metrics().prepares_received, 2);
  EXPECT_EQ(Val(0, 1), 1);
  EXPECT_EQ(Val(0, 2), 2);
  EXPECT_EQ(Val(1, 2), 2);
  ExpectSerializable();
}

TEST_F(ShortCommitTest, CrashedParticipantPresumesAbortForUnknownOnePhase) {
  Build(2);
  // The participant crashes after executing the DML but before the
  // 1PC-COMMIT arrives: the work (never prepared) is lost in the collective
  // abort, and the retransmitted 1PC-COMMIT meets an agent that knows
  // nothing — it must answer from the log with presumed abort, and the
  // coordinator must fail the transaction.
  TxnId gtid;
  bool crashed = false;
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  std::optional<GlobalTxnResult> result;
  gtid = mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                       /*coordinator_site=*/1);
  loop_.ScheduleAfter(2500, [&]() {
    const LtmTxnHandle h = mdbs_->agent(0)->HandleOf(gtid);
    if (h != kInvalidLtmTxn && mdbs_->ltm(0)->IsActive(h)) {
      mdbs_->CrashSite(0);
      crashed = true;
    }
  });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(crashed);
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(Val(0, 1), 0);
  EXPECT_EQ(mdbs_->metrics().short_commits_1pc, 0);
  ExpectSerializable();
}

}  // namespace
}  // namespace hermes
