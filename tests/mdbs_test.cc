// End-to-end integration tests of the 2PC Agent multidatabase: commit path,
// rollback path, unilateral aborts with resubmission, DLU binding, and
// history validation against the oracle.

#include "core/mdbs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>

#include "history/projection.h"
#include "history/view_checker.h"

namespace hermes {
namespace {

using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;

class MdbsTest : public ::testing::Test {
 protected:
  void Build(int sites, CertPolicy policy = CertPolicy::kFull) {
    MdbsConfig config;
    config.num_sites = sites;
    config.agent.policy = policy;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("acc");
    for (SiteId s = 0; s < sites; ++s) {
      for (int64_t k = 0; k < 16; ++k) {
        ASSERT_TRUE(
            mdbs_->LoadRow(s, table_, k,
                           db::Row{{"bal", db::Value(int64_t{100})}})
                .ok());
      }
    }
    loop_.set_max_events(10'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  int64_t Balance(SiteId site, int64_t key) {
    const db::RowEntry* entry =
        mdbs_->storage(site)->GetTable(table_)->Get(key);
    EXPECT_NE(entry, nullptr);
    EXPECT_TRUE(entry->live());
    return std::get<int64_t>(*entry->row->Get("bal"));
  }

  history::ViewCheckResult CheckHistory() {
    const auto committed =
        history::CommittedProjection(mdbs_->recorder().ops());
    EXPECT_EQ(history::VerifyReplayMatchesRecorded(committed), "");
    return history::CheckViewSerializability(committed);
  }

  sim::EventLoop loop_;
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(MdbsTest, SingleGlobalTransactionCommits) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "bal", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "bal", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Balance(0, 1), 90);
  EXPECT_EQ(Balance(1, 1), 110);
  EXPECT_EQ(mdbs_->metrics().global_committed, 1);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 0);

  const auto check = CheckHistory();
  EXPECT_EQ(check.verdict, history::Verdict::kSerializable);
}

TEST_F(MdbsTest, ReadsReturnRows) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeSelectKey(table_, 3)});
  spec.steps.push_back({1, db::MakeSelectKey(table_, 4)});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->status.ok());
  ASSERT_EQ(result->results.size(), 2u);
  ASSERT_EQ(result->results[0].rows.size(), 1u);
  EXPECT_EQ(result->results[0].rows[0].first, 3);
  EXPECT_EQ(std::get<int64_t>(
                *result->results[0].rows[0].second.Get("bal")),
            100);
}

TEST_F(MdbsTest, FailedCommandAbortsGlobally) {
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "bal", int64_t{5})});
  // Duplicate insert fails at site 1.
  spec.steps.push_back({1, db::MakeInsert(table_, 1, db::Row{})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.ok());
  // The site-0 update must have been rolled back (atomicity).
  EXPECT_EQ(Balance(0, 1), 100);
  EXPECT_EQ(mdbs_->metrics().global_committed, 0);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 1);
}

TEST_F(MdbsTest, UnilateralAbortInPreparedStateIsResubmittedAndCommits) {
  Build(2);
  // Abort T's subtransaction at site 0 the moment it becomes prepared.
  bool injected = false;
  mdbs_->agent(0)->set_prepared_hook(
      [&](const TxnId& /*gtid*/, LtmTxnHandle handle) {
        if (injected) return;
        injected = true;
        loop_.ScheduleAfter(1 * sim::kMillisecond, [this, handle]() {
          (void)mdbs_->ltm(0)->InjectUnilateralAbort(handle);
        });
      });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "bal", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "bal", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_TRUE(injected);
  EXPECT_GE(mdbs_->metrics().resubmissions, 1);
  // The resubmitted subtransaction re-applied the update.
  EXPECT_EQ(Balance(0, 1), 90);
  EXPECT_EQ(Balance(1, 1), 110);

  // The history contains the unilateral abort and is view serializable
  // (committed projection includes the aborted local subtransaction).
  const auto& ops = mdbs_->recorder().ops();
  bool saw_unilateral = false;
  for (const auto& op : ops) {
    if (op.kind == history::OpKind::kLocalAbort && op.unilateral) {
      saw_unilateral = true;
    }
  }
  EXPECT_TRUE(saw_unilateral);
  const auto check = CheckHistory();
  EXPECT_EQ(check.verdict, history::Verdict::kSerializable);
}

TEST_F(MdbsTest, RepeatedUnilateralAbortsEventuallyCommit) {
  Build(2);
  // Kill the first three incarnations at site 0 (prepared + two
  // resubmissions), 200 us apart: each resubmission of the one command
  // takes 55 us, and the COMMIT is two 1 ms hops away.
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId& gtid, LtmTxnHandle) {
    for (int i = 1; i <= 3; ++i) {
      loop_.ScheduleAfter(i * 200 * sim::kMicrosecond, [this, gtid]() {
        (void)mdbs_->ltm(0)->InjectUnilateralAbort(
            mdbs_->agent(0)->HandleOf(gtid));
      });
    }
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "bal", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "bal", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Balance(0, 1), 90);
  EXPECT_EQ(mdbs_->metrics().resubmissions, 3);
  const auto check = CheckHistory();
  EXPECT_EQ(check.verdict, history::Verdict::kSerializable);
}

TEST_F(MdbsTest, LocalTransactionsRunDirectly) {
  Build(1);
  core::LocalTxnSpec spec;
  spec.site = 0;
  spec.commands.push_back(db::MakeAddKey(table_, 2, "bal", int64_t{7}));
  spec.commands.push_back(db::MakeSelectKey(table_, 2));
  std::optional<core::LocalTxnResult> result;
  mdbs_->SubmitLocal(spec,
                     [&](const core::LocalTxnResult& r) { result = r; });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok());
  EXPECT_EQ(Balance(0, 2), 107);
  ASSERT_EQ(result->results.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(
                *result->results[1].rows[0].second.Get("bal")),
            107);
}

TEST_F(MdbsTest, LocalReaderThatUpdatesBoundDataDoesNotStallAResubmission) {
  // A local transaction reads T's bound row (DLU allows reads) and then
  // updates it. Its read waits on T's write lock when T's prepared
  // subtransaction at site 0 is unilaterally aborted, so it is granted
  // ahead of T's resubmission, which then needs the row's lock that the
  // local reader holds. Refusing the local update releases that lock at
  // once; had the update waited for the unbind, it would have kept the lock
  // until the DLU wait timed out, and T's resubmission would have timed out
  // on it meanwhile.
  Build(2);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "bal", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "bal", int64_t{10})});
  std::optional<GlobalTxnResult> gresult;
  std::optional<core::LocalTxnResult> lresult;
  sim::Time aborted_at = -1, committed_at = -1;
  bool first = true;
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId&, LtmTxnHandle handle) {
    if (!first) return;
    first = false;
    core::LocalTxnSpec local;
    local.site = 0;
    local.commands.push_back(db::MakeSelectKey(table_, 1));
    local.commands.push_back(db::MakeAddKey(table_, 1, "bal", int64_t{1000}));
    mdbs_->SubmitLocal(local,
                       [&](const core::LocalTxnResult& r) { lresult = r; });
    loop_.ScheduleAfter(1 * sim::kMillisecond, [&, handle]() {
      aborted_at = loop_.Now();
      (void)mdbs_->ltm(0)->InjectUnilateralAbort(handle);
    });
  });
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) {
    gresult = r;
    committed_at = loop_.Now();
  });
  loop_.Run();
  ASSERT_TRUE(gresult.has_value());
  ASSERT_TRUE(lresult.has_value());
  EXPECT_TRUE(gresult->status.ok()) << gresult->status;
  EXPECT_EQ(lresult->status.code(), StatusCode::kRejected) << lresult->status;
  EXPECT_EQ(mdbs_->metrics().resubmission_failures, 0);
  EXPECT_EQ(mdbs_->ltm(0)->stats().lock_timeout_aborts, 0);
  EXPECT_LT(committed_at - aborted_at, 50 * sim::kMillisecond);
  EXPECT_EQ(Balance(0, 1), 90);
  EXPECT_EQ(CheckHistory().verdict, history::Verdict::kSerializable);
}

TEST_F(MdbsTest, DluBlocksLocalUpdateOfBoundData) {
  Build(2);
  // Inject a unilateral abort into T's prepared subtransaction so the agent
  // resubmits; in the same instant a local writer targets the bound row and
  // is refused (DLU), never updating it.
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "bal", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "bal", int64_t{10})});

  std::optional<GlobalTxnResult> gresult;
  std::optional<core::LocalTxnResult> lresult;
  sim::Time local_done_at = 0;

  bool first = true;
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId&,
                                         LtmTxnHandle handle) {
    if (!first) return;
    first = false;
    // Kill the prepared subtransaction; its locks drop, but the row stays
    // *bound*, so the local writer on it is refused.
    loop_.ScheduleAfter(1 * sim::kMillisecond, [&, handle]() {
      (void)mdbs_->ltm(0)->InjectUnilateralAbort(handle);
      core::LocalTxnSpec local;
      local.site = 0;
      local.commands.push_back(
          db::MakeAddKey(table_, 1, "bal", int64_t{1000}));
      mdbs_->SubmitLocal(local, [&](const core::LocalTxnResult& r) {
        lresult = r;
        local_done_at = loop_.Now();
      });
    });
  });

  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { gresult = r; });
  loop_.Run();

  ASSERT_TRUE(gresult.has_value());
  ASSERT_TRUE(lresult.has_value());
  EXPECT_TRUE(gresult->status.ok()) << gresult->status;
  EXPECT_EQ(lresult->status.code(), StatusCode::kRejected) << lresult->status;
  EXPECT_EQ(mdbs_->ltm(0)->stats().dlu_rejections, 1);
  EXPECT_EQ(mdbs_->ltm(0)->stats().dlu_waits, 0);
  // Only the global update applied.
  EXPECT_EQ(Balance(0, 1), 90);
  const auto check = CheckHistory();
  EXPECT_EQ(check.verdict, history::Verdict::kSerializable);
}

TEST_F(MdbsTest, CrashAndRecoverRejectUnknownSites) {
  Build(2);
  EXPECT_EQ(mdbs_->CrashSite(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mdbs_->CrashSite(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mdbs_->RecoverSite(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mdbs_->RecoverSite(99).code(), StatusCode::kInvalidArgument);
  // Nothing happened to the real sites.
  EXPECT_TRUE(mdbs_->SiteUp(0));
  EXPECT_TRUE(mdbs_->SiteUp(1));
  EXPECT_EQ(mdbs_->metrics().coordinator_crashes, 0);
}

TEST_F(MdbsTest, RepeatedCrashAndRecoverAreIdempotent) {
  Build(2);
  // Recovering a site that is up is a deterministic no-op.
  EXPECT_TRUE(mdbs_->RecoverSite(1).ok());
  EXPECT_TRUE(mdbs_->SiteUp(1));

  ASSERT_TRUE(mdbs_->CrashSite(1, /*downtime=*/-1).ok());
  EXPECT_FALSE(mdbs_->SiteUp(1));
  // Crashing an already-down site is a no-op too, not a second crash.
  const int64_t crashes = mdbs_->metrics().coordinator_crashes;
  EXPECT_TRUE(mdbs_->CrashSite(1, /*downtime=*/-1).ok());
  EXPECT_EQ(mdbs_->metrics().coordinator_crashes, crashes);

  EXPECT_TRUE(mdbs_->RecoverSite(1).ok());
  EXPECT_TRUE(mdbs_->SiteUp(1));
}

// --- bounded state -----------------------------------------------------------

// Peaks over a run, and the end state, of the per-transaction structures
// that finished transactions used to leave behind.
struct StateFootprint {
  size_t peak_agent_records = 0;  // live Agent log records, one site
  size_t peak_agent_txns = 0;     // TwoPCAgent volatile entries, one site
  size_t peak_coord_records = 0;  // live Coordinator log records, one site
  size_t peak_ltm_active = 0;     // live LocalTxns, one site
  size_t end_live = 0;            // all four, summed over sites, at the end
  size_t outcomes = 0;            // Agent outcome entries, all sites
};

// Runs `txns` global transactions from 6 closed-loop clients over 4 sites,
// with one local client per site, a guard that rolls 1 in 8 global
// transactions back and unilateral aborts of 1 in 4 prepared
// subtransactions (resubmitted), sampling the footprint every 5 ms.
StateFootprint RunClosedLoop(int64_t txns) {
  constexpr int kSites = 4;
  constexpr int kClients = 6;
  sim::EventLoop loop;
  loop.set_max_events(10'000'000);
  MdbsConfig config;
  config.num_sites = kSites;
  Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("acc");
  for (SiteId s = 0; s < kSites; ++s) {
    for (int64_t k = 0; k < 16; ++k) {
      EXPECT_TRUE(mdbs.LoadRow(s, table, k,
                               db::Row{{"bal", db::Value(int64_t{100})}})
                      .ok());
    }
  }
  std::mt19937_64 rng(7);
  for (SiteId s = 0; s < kSites; ++s) {
    ltm::Ltm* ltm = mdbs.ltm(s);
    mdbs.agent(s)->add_prepared_hook([&loop, &rng, ltm](const TxnId&,
                                                        LtmTxnHandle h) {
      if (rng() % 4 != 0) return;
      loop.ScheduleAfter(1 * sim::kMillisecond,
                         [ltm, h]() { (void)ltm->InjectUnilateralAbort(h); });
    });
  }

  int64_t submitted = 0;
  int64_t finished = 0;
  std::function<void()> submit_global = [&]() {
    if (submitted == txns) return;
    ++submitted;
    const auto a = static_cast<SiteId>(rng() % kSites);
    const auto b = static_cast<SiteId>((a + 1 + rng() % (kSites - 1)) % kSites);
    GlobalTxnSpec spec;
    spec.steps.push_back(
        {a, db::MakeAddKey(table, static_cast<int64_t>(rng() % 16), "bal",
                           int64_t{-1})});
    const int64_t key =
        rng() % 8 == 0 ? 777 : static_cast<int64_t>(rng() % 16);
    GlobalTxnSpec::Step to{b, db::MakeAddKey(table, key, "bal", int64_t{1})};
    to.min_affected = 1;  // key 777 does not exist: a rollback
    spec.steps.push_back(to);
    mdbs.Submit(spec, [&](const GlobalTxnResult&) {
      ++finished;
      submit_global();
    });
  };
  std::function<void(SiteId)> submit_local = [&](SiteId s) {
    if (finished == txns) return;
    core::LocalTxnSpec spec;
    spec.site = s;
    spec.commands.push_back(db::MakeAddKey(
        table, static_cast<int64_t>(rng() % 16), "bal", int64_t{0}));
    mdbs.SubmitLocal(spec, [&, s](const core::LocalTxnResult&) {
      loop.ScheduleAfter(1 * sim::kMillisecond, [&, s]() { submit_local(s); });
    });
  };
  for (int c = 0; c < kClients; ++c) submit_global();
  for (SiteId s = 0; s < kSites; ++s) submit_local(s);

  StateFootprint f;
  auto sample = [&]() {
    size_t live = 0;
    for (SiteId s = 0; s < kSites; ++s) {
      const core::TwoPCAgent& agent = *mdbs.agent(s);
      const size_t records = agent.log().size();
      const size_t agent_txns = agent.held_txns();
      const size_t coord = mdbs.coordinator(s)->log().size();
      const size_t ltm = mdbs.ltm(s)->active_count();
      f.peak_agent_records = std::max(f.peak_agent_records, records);
      f.peak_agent_txns = std::max(f.peak_agent_txns, agent_txns);
      f.peak_coord_records = std::max(f.peak_coord_records, coord);
      f.peak_ltm_active = std::max(f.peak_ltm_active, ltm);
      live += records + agent_txns + coord + ltm;
    }
    f.end_live = live;
  };
  while (!loop.Empty() && !loop.budget_exhausted()) {
    loop.RunUntil(loop.Now() + 5 * sim::kMillisecond);
    sample();
  }
  EXPECT_EQ(finished, txns);
  EXPECT_FALSE(loop.budget_exhausted());
  for (SiteId s = 0; s < kSites; ++s) {
    f.outcomes += mdbs.agent(s)->log().retired();
  }
  return f;
}

// Every per-transaction structure is O(in-flight): at T and at 4T global
// transactions the peaks are bounded by the clients' concurrent work, and
// once the run drains nothing is left but the fixed-size outcome entries,
// which alone grow with T.
TEST(BoundedState, FinishedTransactionsLeaveOnlyOutcomeEntries) {
  const StateFootprint small = RunClosedLoop(150);
  const StateFootprint large = RunClosedLoop(600);
  for (const StateFootprint* f : {&small, &large}) {
    // 6 clients, each with at most one transaction its coordinator has not
    // reported. The coordinator reports at the decision; the transaction
    // then keeps a subtransaction at a participant until the COMMIT lands
    // and commits there, one message delay later -- the delay the client's
    // next BEGIN needs to reach any site. So a site holds, per client, the
    // current transaction and the previous one while its COMMIT lands: at
    // most 2 * 6 global subtransactions (each of a handful of records),
    // plus one local transaction. A subtransaction that must resubmit
    // first (1 in 4, aborted 1 ms after its prepare) stays longer, but it
    // redoes one command: sampled every 5 ms, these runs peak at 7. A
    // coordinator keeps a decision record only while a reported
    // transaction awaits its ACKs, at most the previous transaction of each
    // client.
    constexpr size_t kSubtxns = 2 * 6;
    EXPECT_LE(f->peak_agent_txns, kSubtxns);
    EXPECT_LE(f->peak_agent_records, kSubtxns * 12);
    EXPECT_LE(f->peak_coord_records, 6u);
    EXPECT_LE(f->peak_ltm_active, kSubtxns + 1);
    EXPECT_EQ(f->end_live, 0u);
  }
  // Each global transaction leaves one outcome entry per participant
  // (two sites each), however it ended.
  EXPECT_EQ(small.outcomes, 2u * 150);
  EXPECT_EQ(large.outcomes, 2u * 600);
}

}  // namespace
}  // namespace hermes
