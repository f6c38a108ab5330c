// Coordinator behavior tests: step sequencing, application-level
// validation (min_affected), concurrent transactions, message formatting.

#include "core/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/mdbs.h"

namespace hermes::core {
namespace {

class CoordinatorTest : public ::testing::Test {
 protected:
  void Build(int sites = 2, MdbsConfig config = {}) {
    config.num_sites = sites;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (SiteId s = 0; s < sites; ++s) {
      for (int64_t k = 0; k < 32; ++k) {
        ASSERT_TRUE(mdbs_->LoadRow(s, table_, k,
                                   db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }
    loop_.set_max_events(1'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  int64_t Val(SiteId site, int64_t key) {
    return std::get<int64_t>(
        *mdbs_->storage(site)->GetTable(table_)->Get(key)->row->Get("v"));
  }

  sim::EventLoop loop_;
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(CoordinatorTest, EmptySpecAbortsImmediately) {
  Build();
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(GlobalTxnSpec{},
                [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CoordinatorTest, StepsRunStrictlyInOrder) {
  Build();
  // Step 2 reads what step 1 wrote at another site? No — steps at the same
  // site: write then read must see the write (same subtransaction).
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeUpdateKey(table_, 1, "v", int64_t{41})});
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  spec.steps.push_back({0, db::MakeSelectKey(table_, 1)});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok());
  ASSERT_EQ(result->results.size(), 3u);
  EXPECT_EQ(std::get<int64_t>(
                *result->results[2].rows[0].second.Get("v")),
            42);
}

TEST_F(CoordinatorTest, MinAffectedGuardsAbortAtomically) {
  Build();
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{7})});
  // Key 777 does not exist: 0 rows affected, below the guard.
  GlobalTxnSpec::Step guarded{1, db::MakeAddKey(table_, 777, "v",
                                                int64_t{7})};
  guarded.min_affected = 1;
  spec.steps.push_back(guarded);
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(result->status.code(), StatusCode::kRejected);
  // The step-0 update was rolled back.
  EXPECT_EQ(Val(0, 1), 0);
}

TEST_F(CoordinatorTest, ManyConcurrentTransactionsFromOneCoordinator) {
  Build(3);
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    GlobalTxnSpec spec;
    // Disjoint keys: all 20 transactions can commit concurrently.
    spec.steps.push_back(
        {static_cast<SiteId>(i % 3),
         db::MakeAddKey(table_, i, "v", int64_t{1})});
    spec.steps.push_back(
        {static_cast<SiteId>((i + 1) % 3),
         db::MakeAddKey(table_, i, "v", int64_t{1})});
    mdbs_->Submit(
        spec,
        [&](const GlobalTxnResult& r) {
          EXPECT_TRUE(r.status.ok()) << r.status;
          ++done;
        },
        /*coordinator_site=*/0);
  }
  EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 20);
  loop_.Run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 0);
}

TEST_F(CoordinatorTest, LatencyIsMeasuredInVirtualTime) {
  Build();
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeSelectKey(table_, 1)});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/0);
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  // 4 cross-site hops (BEGIN+DML, response, PREPARE, vote) at 1 ms each:
  // the client hears the commit at the decision, not after COMMIT and ACK.
  EXPECT_GE(result->latency, 4 * sim::kMillisecond);
  EXPECT_LT(result->latency, 6 * sim::kMillisecond);
}

TEST_F(CoordinatorTest, GtidsAreUniquePerCoordinator) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeSelectKey(table_, 1)});
  const TxnId a = mdbs_->Submit(spec, nullptr, 0);
  const TxnId b = mdbs_->Submit(spec, nullptr, 0);
  const TxnId c = mdbs_->Submit(spec, nullptr, 1);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.site, 0);
  EXPECT_EQ(c.site, 1);
  loop_.Run();
}

TEST_F(CoordinatorTest, CommitDecisionIsForceLoggedThenForgotten) {
  Build(3);
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  spec.steps.push_back({2, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  std::optional<GlobalTxnResult> result;
  const TxnId gtid = mdbs_->Submit(
      spec, [&](const GlobalTxnResult& r) { result = r; },
      /*coordinator_site=*/0);
  // Step until the decision is logged: the transaction is still in flight.
  const CoordinatorLog& log = mdbs_->coordinator(0)->log();
  while (!log.HasDecision(gtid) && loop_.Step()) {
  }
  ASSERT_TRUE(log.HasDecision(gtid));
  ASSERT_EQ(log.size(), 1u);
  // The decision record is force-written *before* any COMMIT leaves the
  // site and names every participant owed a COMMIT.
  const std::vector<CoordLogRecord> in_flight = log.InFlightDecisions();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].kind, CoordRecordKind::kDecision);
  EXPECT_EQ(in_flight[0].gtid, gtid);
  EXPECT_TRUE(in_flight[0].forced);
  EXPECT_EQ(in_flight[0].participants.size(), 2u);
  EXPECT_EQ(log.forced_writes(), 1);

  loop_.Run();
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok());
  // Every participant acked: the transaction retired from the log, and no
  // further record was written.
  EXPECT_FALSE(log.HasDecision(gtid));
  EXPECT_TRUE(log.InFlightDecisions().empty());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.forced_writes(), 1);
}

TEST_F(CoordinatorTest, AbortedTransactionIsNeverLogged) {
  Build(2);
  // Presumed abort: ROLLBACK decisions leave no trace in the coordinator
  // log — absence *is* the abort record.
  GlobalTxnSpec spec;
  GlobalTxnSpec::Step guarded{1, db::MakeAddKey(table_, 777, "v",
                                                int64_t{7})};
  guarded.min_affected = 1;  // key 777 does not exist: forces a rollback
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  spec.steps.push_back(guarded);
  std::optional<GlobalTxnResult> result;
  const TxnId gtid =
      mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(mdbs_->coordinator(0)->log().size(), 0u);
  EXPECT_FALSE(mdbs_->coordinator(0)->log().HasDecision(gtid));
}

TEST_F(CoordinatorTest, RecoveryBumpsEpochSoGtidsNeverCollide) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeSelectKey(table_, 1)});
  const TxnId before = mdbs_->Submit(spec, nullptr, 0);
  loop_.Run();

  mdbs_->CrashSite(0);
  loop_.Run();

  const TxnId after = mdbs_->Submit(spec, nullptr, 0);
  loop_.Run();
  EXPECT_NE(before, after);
  // Post-recovery ids live in a fresh epoch stripe, so even a coordinator
  // that lost its volatile sequence counter cannot reuse an id.
  EXPECT_GT(after.seq, before.seq);
  const CoordinatorLog& log = mdbs_->coordinator(0)->log();
  ASSERT_GE(log.size(), 1u);
  bool saw_epoch = false;
  log.ForEachRecord([&](const CoordLogRecord& r) {
    if (r.kind == CoordRecordKind::kEpoch) {
      saw_epoch = true;
      EXPECT_TRUE(r.forced);
      EXPECT_GE(r.epoch, 1);
    }
  });
  EXPECT_TRUE(saw_epoch);
}

// --- the client report --------------------------------------------------

// 2PC: the client hears the commit in the instant the decision record is
// forced, before any participant applied the COMMIT (so before any ACK),
// and the commit is counted there, once.
TEST_F(CoordinatorTest, TwoPcReportsTheCommitAtTheDecisionForce) {
  Build(3);
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  spec.steps.push_back({2, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  const CoordinatorLog& log = mdbs_->coordinator(0)->log();
  int reports = 0;
  const TxnId gtid = mdbs_->Submit(
      spec,
      [&](const GlobalTxnResult& r) {
        ++reports;
        EXPECT_TRUE(r.status.ok()) << r.status;
        EXPECT_TRUE(log.HasDecision(r.gtid));
        for (SiteId s : {1, 2}) {
          EXPECT_FALSE(mdbs_->agent(s)->log().HasCommit(r.gtid)) << s;
        }
        EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 1);
        EXPECT_EQ(mdbs_->metrics().global_committed, 1);
      },
      /*coordinator_site=*/0);
  loop_.Run();
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(mdbs_->metrics().global_committed, 1);
  EXPECT_EQ(Val(1, 1), 1);
  EXPECT_EQ(Val(2, 1), 1);
  // The ACK wait still ran: the decision was forgotten after the last one.
  EXPECT_FALSE(log.HasDecision(gtid));
  EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 0);
}

// An abort reaches the client at the abort decision, while the participant
// that executed a step still holds its subtransaction awaiting ROLLBACK.
TEST_F(CoordinatorTest, AbortIsReportedAtTheAbortDecision) {
  Build(3);
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  GlobalTxnSpec::Step missing{2, db::MakeAddKey(table_, 999, "v", int64_t{1})};
  missing.min_affected = 1;  // key 999 does not exist: a rollback
  spec.steps.push_back(missing);
  int reports = 0;
  const TxnId gtid = mdbs_->Submit(
      spec,
      [&](const GlobalTxnResult& r) {
        ++reports;
        EXPECT_FALSE(r.status.ok());
        EXPECT_FALSE(mdbs_->agent(1)->log().HasAbort(r.gtid));
        EXPECT_EQ(mdbs_->ltm(1)->active_count(), 1u);
        EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 1);
        EXPECT_EQ(mdbs_->metrics().global_aborted, 1);
      },
      /*coordinator_site=*/0);
  loop_.Run();
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 1);
  EXPECT_EQ(mdbs_->metrics().global_committed, 0);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasAbort(gtid));
  EXPECT_EQ(Val(1, 1), 0);
  EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 0);
}

// Short-commit 1PC: the lone participant is the commit point, so the client
// hears the commit at its ACK, after it committed.
TEST_F(CoordinatorTest, OnePhaseCommitIsReportedAtTheAck) {
  MdbsConfig config;
  config.agent.short_commit = true;
  Build(2, config);
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  int reports = 0;
  mdbs_->Submit(
      spec,
      [&](const GlobalTxnResult& r) {
        ++reports;
        EXPECT_TRUE(r.status.ok()) << r.status;
        EXPECT_TRUE(mdbs_->agent(1)->log().HasCommit(r.gtid));
        EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 0);
      },
      /*coordinator_site=*/0);
  loop_.Run();
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(mdbs_->metrics().global_committed, 1);
  EXPECT_EQ(mdbs_->metrics().single_site_committed, 1);
  EXPECT_EQ(Val(1, 1), 1);
}

// The coordinating site crashes after sending a short-commit 1PC-COMMIT
// and before the ACK: the participant commits (it is the commit point),
// the client hears of the outage, and the coordinator, which never learns
// the outcome, counts the transaction neither committed nor aborted.
TEST_F(CoordinatorTest, CrashBeforeTheOnePhaseAckLeavesTheCommitUncounted) {
  MdbsConfig config;
  config.agent.short_commit = true;
  Build(2, config);
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  std::optional<GlobalTxnResult> result;
  const TxnId gtid = mdbs_->Submit(
      spec, [&](const GlobalTxnResult& r) { result = r; },
      /*coordinator_site=*/0);
  // BEGIN+DML and the response take 2 ms, the 1PC-COMMIT and its ACK two
  // more: at 3 ms the COMMIT is in flight.
  loop_.ScheduleAfter(3 * sim::kMillisecond, [this]() {
    ASSERT_TRUE(mdbs_->CrashSite(0, /*downtime=*/10 * sim::kMillisecond).ok());
  });
  loop_.Run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status.code(), StatusCode::kUnavailable) << result->status;
  EXPECT_TRUE(mdbs_->agent(1)->log().HasCommit(gtid));
  EXPECT_EQ(Val(1, 1), 1);
  EXPECT_EQ(mdbs_->metrics().short_commits_1pc, 1);
  EXPECT_EQ(mdbs_->metrics().global_committed, 0);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 0);
}

// A prepared participant whose ROLLBACK was lost asks the coordinator,
// which is still collecting rollback ACKs: the coordinator answers with the
// abort at once, before its own retransmission of the ROLLBACK, and does
// not need to presume it.
TEST_F(CoordinatorTest, InquiryWhileRollingBackIsAnsweredWithTheAbort) {
  MdbsConfig config;
  config.agent.decision_inquiry_timeout = 10 * sim::kMillisecond;
  config.agent.inquiry_retry_initial = 5 * sim::kMillisecond;
  config.agent.inquiry_retry_max = 5 * sim::kMillisecond;
  config.coordinator_retry.max_attempts = 2;
  Build(3, config);
  // Site 1 prepares first; from then on site 2's votes and everything the
  // coordinator sends site 1 are lost, so the PREPARE round times out into
  // an abort whose ROLLBACK never reaches site 1.
  bool lossy = false;
  mdbs_->agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    lossy = true;
    mdbs_->network().SetLinkLoss(0, 1, 1.0);
    mdbs_->network().SetLinkLoss(2, 0, 1.0);
  });
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  spec.steps.push_back({2, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  sim::Time reported_at = -1;
  const TxnId gtid = mdbs_->Submit(
      spec,
      [&](const GlobalTxnResult& r) {
        EXPECT_FALSE(r.status.ok());
        reported_at = loop_.Now();
        mdbs_->network().ClearLinkLoss(0, 1);
        mdbs_->network().ClearLinkLoss(2, 0);
      },
      /*coordinator_site=*/0);
  while (reported_at < 0 && loop_.Step()) {
  }
  ASSERT_TRUE(lossy);
  ASSERT_GE(reported_at, 0);
  EXPECT_FALSE(mdbs_->agent(1)->log().HasAbort(gtid));
  // Site 1 inquires every 5 ms; the ROLLBACK retransmission is 25 ms away.
  loop_.RunUntil(reported_at + 10 * sim::kMillisecond);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasAbort(gtid));
  loop_.Run();
  EXPECT_EQ(Val(1, 1), 0);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 1);
  EXPECT_EQ(mdbs_->metrics().inquiries_answered_presumed_abort, 0);
  EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 0);
}

// Differential check of the log's per-transaction index and of
// retirement: on seeded random logs (decisions, retirements once every
// participant acked, and gtid-less epoch records, forced and buffered)
// each query answers what a scan of every record ever appended answers.
TEST(CoordinatorLog, QueriesMatchAFullScanOnRandomLogs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    // From a few gtids with many records each to many with few.
    std::vector<TxnId> gtids;
    for (int64_t i = 0; i < 4 + static_cast<int64_t>(seed % 5) * 15; ++i) {
      gtids.push_back(TxnId::MakeGlobal(0, i));
    }
    CoordinatorLog log;
    std::vector<CoordLogRecord> all;  // every record appended
    std::set<TxnId> retired;
    auto forgotten = [&](const TxnId& g) { return retired.count(g) != 0; };

    auto check = [&](int step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      int64_t forced = 0;
      int64_t last_epoch = 0;
      std::vector<int64_t> live;
      std::vector<int64_t> in_flight;
      for (size_t i = 0; i < all.size(); ++i) {
        const CoordLogRecord& r = all[i];
        EXPECT_EQ(r.lsn, static_cast<int64_t>(i));
        forced += r.forced;
        if (r.kind == CoordRecordKind::kEpoch) {
          last_epoch = std::max(last_epoch, r.epoch);
        }
        if (!r.gtid.valid() || !forgotten(r.gtid)) live.push_back(r.lsn);
        if (r.kind == CoordRecordKind::kDecision && !forgotten(r.gtid)) {
          in_flight.push_back(r.lsn);
        }
      }
      EXPECT_EQ(log.forced_writes(), forced);
      EXPECT_EQ(log.LastEpoch(), last_epoch);
      std::vector<int64_t> lsns;
      log.ForEachRecord(
          [&](const CoordLogRecord& r) { lsns.push_back(r.lsn); });
      EXPECT_EQ(lsns, live);
      EXPECT_EQ(log.size(), live.size());
      std::vector<int64_t> logged;
      for (const CoordLogRecord& d : log.InFlightDecisions()) {
        logged.push_back(d.lsn);
      }
      EXPECT_EQ(logged, in_flight);

      std::vector<TxnId> queried = gtids;
      queried.push_back(TxnId::MakeGlobal(1, 99));  // never logged
      for (const TxnId& g : queried) {
        SCOPED_TRACE(g.ToString());
        const CoordLogRecord* decision = nullptr;
        for (const CoordLogRecord& r : all) {
          if (r.gtid == g && r.kind == CoordRecordKind::kDecision) {
            decision = &r;
          }
        }
        // A forgotten decision is gone: presumed abort.
        if (forgotten(g)) decision = nullptr;
        EXPECT_EQ(log.HasDecision(g), decision != nullptr);
        EXPECT_EQ(log.Knows(g), decision != nullptr);
        EXPECT_EQ(log.DecisionCsnOf(g),
                  decision == nullptr ? -1 : decision->csn);
      }
    };

    for (int n = 0; n < 200; ++n) {
      if (n % 40 == 39) check(n);
      const TxnId g = gtids[rng() % gtids.size()];
      switch (rng() % 3) {
        case 0: {  // a decision, for a gtid not yet forgotten
          if (forgotten(g)) break;
          CoordLogRecord r{.kind = CoordRecordKind::kDecision, .gtid = g};
          r.participants.assign(1 + rng() % 3, static_cast<SiteId>(n % 4));
          r.csn = static_cast<int64_t>(rng() % 5) - 1;
          r.forced = rng() % 2 == 0;
          CoordLogRecord copy = r;
          copy.lsn = r.forced ? log.ForceAppend(std::move(r))
                              : log.Append(std::move(r));
          all.push_back(std::move(copy));
          break;
        }
        case 1:  // every participant acked a decision
          if (!log.HasDecision(g)) break;
          log.Retire(g);
          retired.insert(g);
          break;
        default: {
          CoordLogRecord r{.kind = CoordRecordKind::kEpoch,
                           .epoch = static_cast<int64_t>(rng() % 10)};
          r.forced = rng() % 2 == 0;
          CoordLogRecord copy = r;
          copy.lsn = r.forced ? log.ForceAppend(std::move(r))
                              : log.Append(std::move(r));
          all.push_back(std::move(copy));
          break;
        }
      }
    }
    check(200);
  }
}

TEST(Messages, ToStringCoversAllKinds) {
  const TxnId g = TxnId::MakeGlobal(1, 5);
  EXPECT_NE(MessageToString(Message{BeginMsg{g}}).find("BEGIN"),
            std::string::npos);
  EXPECT_NE(MessageToString(
                Message{DmlRequestMsg{g, 0, db::MakeSelectKey(0, 1)}})
                .find("DML"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{DmlResponseMsg{g, 0, Status::Ok(),
                                                   db::CmdResult{}}})
                .find("DML-RESP"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{PrepareMsg{g, SerialNumber{1, 0, 0}}})
                .find("PREPARE"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{VoteMsg{g, true, Status::Ok()}})
                .find("READY"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{VoteMsg{g, false, Status::Ok()}})
                .find("REFUSE"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{DecisionMsg{g, true}}).find("COMMIT"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{DecisionMsg{g, false}}).find("ROLLBACK"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{AckMsg{g, true}}).find("COMMIT-ACK"),
            std::string::npos);
  EXPECT_NE(MessageToString(Message{InquiryMsg{g}}).find("INQUIRY"),
            std::string::npos);
}

}  // namespace
}  // namespace hermes::core
