// Site crash and Agent-log recovery tests (the paper treats a site crash
// as a collective unilateral abort; the agent's force-written log makes the
// prepared state durable).

#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <vector>

#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"
#include "shard/shard_map.h"

namespace hermes {
namespace {

using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;

class RecoveryTest : public ::testing::Test {
 protected:
  void Build(int sites, sim::Duration orphan_abort_timeout = 0) {
    MdbsConfig config;
    config.num_sites = sites;
    config.agent.orphan_abort_timeout = orphan_abort_timeout;
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

TEST_F(RecoveryTest, CrashOfPreparedSiteRecoversAndCommits) {
  Build(2);
  // Crash site 0 right after T's subtransaction there becomes prepared —
  // before the coordinator's COMMIT arrives. Recovery must rebuild the
  // in-doubt subtransaction from the Agent log, resubmit it, learn the
  // decision (via the in-flight COMMIT and the inquiry), and commit.
  // The transaction is coordinated from site 1 so the crash hits a pure
  // participant (coordinator crashes are covered separately below).
  bool crashed = false;
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    if (crashed) return;
    crashed = true;
    loop_.ScheduleAfter(100, [this]() { mdbs_->CrashSite(0); });
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/1);
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(crashed);
  EXPECT_TRUE(result->status.ok()) << result->status;
  // Exactly-once effects despite crash + resubmission.
  EXPECT_EQ(Val(0, 1), -10);
  EXPECT_EQ(Val(1, 1), 10);
  EXPECT_GE(mdbs_->metrics().resubmissions, 1);
  // The log recorded the full life cycle.
  EXPECT_TRUE(mdbs_->agent(0)->log().HasComplete(result->gtid));
  EXPECT_TRUE(mdbs_->agent(0)->log().InDoubt().empty());
  ExpectSerializable();
}

TEST_F(RecoveryTest, CrashDuringRollbackEndsInAbortViaInquiry) {
  Build(2);
  // T's subtransaction at site 1 is killed while still active, so site 1
  // REFUSEs and the coordinator rolls back. Site 0 — already prepared —
  // crashes before the ROLLBACK reaches it; recovery must learn the abort
  // decision and undo the resubmitted work.
  TxnId gtid;
  bool killed = false;
  bool crashed = false;
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId& id, LtmTxnHandle) {
    if (crashed || !(id == gtid)) return;
    crashed = true;
    loop_.ScheduleAfter(100, [this]() { mdbs_->CrashSite(0); });
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 2, "v", int64_t{5})});
  std::optional<GlobalTxnResult> result;
  gtid = mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; });

  // Kill site 1's subtransaction after its command completed (~1.2 ms)
  // but before PREPARE arrives there (~3.2 ms): at 2.5 ms it is active and
  // its death makes the later PREPARE refuse.
  loop_.ScheduleAfter(2500, [&]() {
    const LtmTxnHandle h = mdbs_->agent(1)->HandleOf(gtid);
    if (h != kInvalidLtmTxn && mdbs_->ltm(1)->IsActive(h)) {
      (void)mdbs_->ltm(1)->InjectUnilateralAbort(h);
      killed = true;
    }
  });
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(killed);
  ASSERT_TRUE(crashed);
  EXPECT_FALSE(result->status.ok());
  // All effects rolled back everywhere, including the recovered
  // resubmission at site 0.
  EXPECT_EQ(Val(0, 1), 0);
  EXPECT_EQ(Val(1, 2), 0);
  EXPECT_TRUE(mdbs_->agent(0)->log().HasAbort(gtid));
  EXPECT_TRUE(mdbs_->agent(0)->log().InDoubt().empty());
  ExpectSerializable();
}

TEST_F(RecoveryTest, CrashAbortsLocalTransactionsAndRestoresData) {
  Build(1);
  // A local transaction holds uncommitted updates when the site crashes;
  // the collective abort must restore before-images.
  const LtmTxnHandle local =
      mdbs_->ltm(0)->Begin(SubTxnId{TxnId::MakeLocal(0, 1), 0});
  std::optional<Status> cmd_status;
  mdbs_->ltm(0)->Execute(local, db::MakeAddKey(table_, 3, "v", int64_t{99}),
                         [&](const Status& s, const db::CmdResult&) {
                           cmd_status = s;
                         });
  loop_.Run();
  ASSERT_TRUE(cmd_status.has_value());
  ASSERT_TRUE(cmd_status->ok());
  EXPECT_EQ(Val(0, 3), 99);

  mdbs_->CrashSite(0);
  loop_.Run();
  EXPECT_EQ(Val(0, 3), 0);  // before-image restored
  EXPECT_FALSE(mdbs_->ltm(0)->IsActive(local));
  EXPECT_FALSE(mdbs_->ltm(0)->Commit(local).ok());
}

TEST_F(RecoveryTest, RepeatedCrashesStillConverge) {
  Build(2);
  int crashes = 0;
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    if (crashes >= 2) return;
    ++crashes;
    loop_.ScheduleAfter(100, [this]() { mdbs_->CrashSite(0); });
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/1);
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), 1);
  EXPECT_EQ(Val(1, 1), 1);
  ExpectSerializable();
}

TEST_F(RecoveryTest, InquiryForForgottenTransactionGetsPresumedAbort) {
  Build(1);
  // A fabricated inquiry about a transaction the coordinator never knew:
  // the coordinator answers ROLLBACK (presumed abort), and the agent —
  // which does not know it either — acks harmlessly.
  const int64_t before = mdbs_->network().messages_sent();
  mdbs_->network().Send(0, 0,
                        core::Message{core::InquiryMsg{
                            TxnId::MakeGlobal(0, 424242)}});
  loop_.Run();
  // Inquiry + decision + ack all flowed without wedging anything.
  EXPECT_GE(mdbs_->network().messages_sent(), before + 3);
}

TEST_F(RecoveryTest, WorkloadSurvivesMidRunCrash) {
  // The crash can orphan an active subtransaction whose coordinator was
  // site 1 (its DML in flight to another site); the orphan timeout, as in
  // E12, aborts it there instead of leaving its uncommitted write behind.
  Build(3, /*orphan_abort_timeout=*/800 * sim::kMillisecond);
  // A stream of transfers; site 1 crashes in the middle of the run.
  int committed = 0, aborted = 0, submitted = 0;
  constexpr int kTxns = 40;
  std::function<void()> next = [&]() {
    if (submitted >= kTxns) return;
    const int i = submitted++;
    GlobalTxnSpec spec;
    const SiteId a = static_cast<SiteId>(i % 3);
    const SiteId b = static_cast<SiteId>((i + 1) % 3);
    spec.steps.push_back(
        {a, db::MakeAddKey(table_, i % 8, "v", int64_t{-1})});
    spec.steps.push_back(
        {b, db::MakeAddKey(table_, i % 8, "v", int64_t{1})});
    mdbs_->Submit(spec, [&](const GlobalTxnResult& r) {
      r.status.ok() ? ++committed : ++aborted;
      next();
    });
  };
  for (int c = 0; c < 4; ++c) loop_.ScheduleAfter(0, [&]() { next(); });
  loop_.ScheduleAfter(20 * sim::kMillisecond,
                      [this]() { mdbs_->CrashSite(1); });
  loop_.Run();

  EXPECT_EQ(committed + aborted, kTxns);
  EXPECT_GT(committed, 0);
  // Sum of all values must be zero: every transfer applied fully or not at
  // all, across the crash.
  int64_t total = 0;
  for (SiteId s = 0; s < 3; ++s) {
    for (int64_t k = 0; k < 8; ++k) total += Val(s, k);
  }
  EXPECT_EQ(total, 0);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(mdbs_->ltm(s)->active_count(), 0u) << "site " << s;
  }
  EXPECT_TRUE(mdbs_->agent(1)->log().InDoubt().empty());
  ExpectSerializable();
}

// --- coordinator crash recovery ----------------------------------------------

// The tentpole scenario: the coordinator force-writes the COMMIT decision,
// every COMMIT message is lost, and the coordinating site crashes. On
// recovery the durable decision log re-drives delivery and every prepared
// participant ends in COMMIT. This test fails if the decision force-write
// is removed (see SkippingDecisionLogSplitsTheTransaction for the
// demonstration of what goes wrong without it).
TEST_F(RecoveryTest, CoordinatorCrashAfterLoggedDecisionRedrivesCommit) {
  Build(3);
  // Once both participants are prepared, the coordinator's outbound links
  // start losing everything: the votes still arrive, the decision is
  // logged, but no COMMIT ever leaves the site.
  int prepared = 0;
  auto on_prepared = [&](const TxnId&, LtmTxnHandle) {
    if (++prepared == 2) {
      mdbs_->network().SetLinkLoss(0, 1, 1.0);
      mdbs_->network().SetLinkLoss(0, 2, 1.0);
    }
  };
  mdbs_->agent(1)->add_prepared_hook(on_prepared);
  mdbs_->agent(2)->add_prepared_hook(on_prepared);

  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{-10})});
  spec.steps.push_back({2, db::MakeAddKey(table_, 1, "v", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  const TxnId gtid = mdbs_->Submit(
      spec, [&](const GlobalTxnResult& r) { result = r; },
      /*coordinator_site=*/0);

  // Crash the coordinating site after the decision was logged but while
  // the COMMITs are still undeliverable; heal the links so recovery can
  // talk again.
  loop_.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    mdbs_->CrashSite(0, /*downtime=*/600 * sim::kMillisecond);
    mdbs_->network().ClearLinkLoss(0, 1);
    mdbs_->network().ClearLinkLoss(0, 2);
  });
  loop_.Run();

  // The client heard the commit at the decision, before the crash...
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  // ...and the decided transaction committed everywhere, counted once.
  EXPECT_EQ(mdbs_->metrics().global_committed, 1);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 0);
  EXPECT_EQ(Val(1, 1), -10);
  EXPECT_EQ(Val(2, 1), 10);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasComplete(gtid));
  EXPECT_TRUE(mdbs_->agent(2)->log().HasComplete(gtid));
  EXPECT_EQ(mdbs_->metrics().coordinator_crashes, 1);
  EXPECT_EQ(mdbs_->metrics().coordinator_redelivered_decisions, 1);
  // The participants probed while blocked, and the re-driven transaction
  // was fully acknowledged and forgotten.
  EXPECT_GE(mdbs_->metrics().inquiries_sent, 1);
  EXPECT_FALSE(mdbs_->coordinator(0)->log().HasDecision(gtid));
  EXPECT_TRUE(mdbs_->coordinator(0)->log().InFlightDecisions().empty());
  EXPECT_EQ(history::CheckGlobalAtomicity(mdbs_->recorder().ops()), "");
  ExpectSerializable();
}

// The coordinating site crashes right after it reported a commit: the
// COMMITs already left, their ACKs die with the site, and recovery
// re-drives the logged decision. The transaction commits everywhere and is
// counted once, at the report, not again when recovery collects the ACKs.
TEST_F(RecoveryTest, CoordinatorCrashRightAfterTheReportCountsTheCommitOnce) {
  Build(3);
  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{-10})});
  spec.steps.push_back({2, db::MakeAddKey(table_, 1, "v", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  const TxnId gtid = mdbs_->Submit(
      spec,
      [&](const GlobalTxnResult& r) {
        result = r;
        loop_.ScheduleAfter(0, [this]() {
          mdbs_->CrashSite(0, /*downtime=*/600 * sim::kMillisecond);
        });
      },
      /*coordinator_site=*/0);
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(1, 1), -10);
  EXPECT_EQ(Val(2, 1), 10);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasComplete(gtid));
  EXPECT_TRUE(mdbs_->agent(2)->log().HasComplete(gtid));
  EXPECT_EQ(mdbs_->metrics().coordinator_crashes, 1);
  EXPECT_EQ(mdbs_->metrics().coordinator_redelivered_decisions, 1);
  EXPECT_EQ(mdbs_->metrics().global_committed, 1);
  EXPECT_EQ(mdbs_->metrics().global_aborted, 0);
  EXPECT_FALSE(mdbs_->coordinator(0)->log().HasDecision(gtid));
  EXPECT_EQ(history::CheckGlobalAtomicity(mdbs_->recorder().ops()), "");
}

// Ablation of the force-write: with the decision log disabled the same
// crash splits the decided transaction — the coordinator recovers with no
// memory of the COMMIT, answers the participants' inquiries with presumed
// abort, and the atomicity oracle flags the history.
TEST_F(RecoveryTest, SkippingDecisionLogSplitsTheTransaction) {
  Build(3);
  mdbs_->coordinator(0)->set_skip_decision_log_for_test(true);
  int prepared = 0;
  auto on_prepared = [&](const TxnId&, LtmTxnHandle) {
    if (++prepared == 2) {
      mdbs_->network().SetLinkLoss(0, 1, 1.0);
      mdbs_->network().SetLinkLoss(0, 2, 1.0);
    }
  };
  mdbs_->agent(1)->add_prepared_hook(on_prepared);
  mdbs_->agent(2)->add_prepared_hook(on_prepared);

  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{-10})});
  spec.steps.push_back({2, db::MakeAddKey(table_, 1, "v", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  const TxnId gtid = mdbs_->Submit(
      spec, [&](const GlobalTxnResult& r) { result = r; },
      /*coordinator_site=*/0);
  loop_.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    mdbs_->CrashSite(0, /*downtime=*/600 * sim::kMillisecond);
    mdbs_->network().ClearLinkLoss(0, 1);
    mdbs_->network().ClearLinkLoss(0, 2);
  });
  loop_.Run();

  // The client heard the commit at the decision; the COMMIT decision was
  // recorded in the history, but recovery knew nothing: the participants
  // were told presumed abort and rolled back.
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(1, 1), 0);
  EXPECT_EQ(Val(2, 1), 0);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasAbort(gtid));
  EXPECT_TRUE(mdbs_->agent(2)->log().HasAbort(gtid));
  EXPECT_EQ(mdbs_->metrics().coordinator_redelivered_decisions, 0);
  EXPECT_GE(mdbs_->metrics().inquiries_answered_presumed_abort, 1);
  // Exactly the violation the force-write exists to prevent.
  EXPECT_NE(history::CheckGlobalAtomicity(mdbs_->recorder().ops()), "");
}

// A coordinator that crashes before reaching a decision presumes abort on
// recovery: prepared participants learn ROLLBACK through the inquiry path.
TEST_F(RecoveryTest, UndecidedTransactionIsPresumedAbortAfterCrash) {
  Build(2);
  // Crash the coordinating site the moment the participant votes: the
  // vote is still in flight, so no decision was ever reached (or logged).
  bool crashed = false;
  mdbs_->agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    if (crashed) return;
    crashed = true;
    mdbs_->CrashSite(0, /*downtime=*/600 * sim::kMillisecond);
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{5})});
  std::optional<GlobalTxnResult> result;
  const TxnId gtid = mdbs_->Submit(
      spec, [&](const GlobalTxnResult& r) { result = r; },
      /*coordinator_site=*/0);
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(crashed);
  EXPECT_FALSE(result->status.ok());
  // The participant probed (several times — the coordinator was down for
  // most of the window), got presumed abort, and rolled back.
  EXPECT_EQ(Val(1, 1), 0);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasAbort(gtid));
  EXPECT_GE(mdbs_->metrics().inquiries_sent, 2);
  EXPECT_GE(mdbs_->metrics().inquiries_answered_presumed_abort, 1);
  EXPECT_EQ(mdbs_->metrics().coordinator_redelivered_decisions, 0);
  EXPECT_EQ(history::CheckGlobalAtomicity(mdbs_->recorder().ops()), "");
}

// A residue adopted in a shard handoff answers for the site it left. That
// origin is durable: after the adopter crashes and recovers, its re-vote on
// a retransmitted PREPARE still names the origin as on_behalf_of, so the
// coordinator books the vote under the participant it is waiting for.
TEST_F(RecoveryTest, AdoptedResidueKeepsItsOriginAcrossAnAdopterCrash) {
  Build(1);
  // A phantom coordinator at site 5 owns the transaction; its endpoint
  // captures every vote. The residue's origin, site 3, is long gone.
  constexpr SiteId kCoordinator = 5;
  constexpr SiteId kOrigin = 3;
  std::vector<core::VoteMsg> votes;
  mdbs_->network().RegisterEndpoint(
      kCoordinator, [&](const net::Envelope& env) {
        const auto* msg = std::any_cast<core::Message>(&env.payload);
        if (msg == nullptr) return;
        if (const auto* vote = std::get_if<core::VoteMsg>(msg)) {
          votes.push_back(*vote);
        }
      });
  core::MigratedTxn m;
  m.gtid = TxnId::MakeGlobal(kCoordinator, 1);
  m.coordinator = kCoordinator;
  m.origin = kOrigin;
  m.sn = core::SerialNumber{100, kCoordinator, 0};
  m.commands.push_back(db::MakeAddKey(table_, 1, "v", int64_t{1}));
  mdbs_->agent(0)->AdoptMigrated(m);
  loop_.RunUntil(loop_.Now() + 20 * sim::kMillisecond);
  ASSERT_TRUE(mdbs_->CrashSite(0).ok());
  loop_.RunUntil(loop_.Now() + 20 * sim::kMillisecond);
  ASSERT_EQ(mdbs_->agent(0)->log().InDoubt(), std::vector<TxnId>{m.gtid});

  votes.clear();
  mdbs_->network().Send(kCoordinator, 0,
                        core::Message{core::PrepareMsg{m.gtid, m.sn}});
  loop_.RunUntil(loop_.Now() + 20 * sim::kMillisecond);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_TRUE(votes[0].ready);
  EXPECT_EQ(votes[0].on_behalf_of, kOrigin);
}

// Recovery reads only live records and the outcome table. After a crash
// that follows many retired subtransactions, the agent rebuilds the SN
// high-water mark (from the log's checkpoint), the in-doubt set and the
// migration redirect it had before the crash, and answers a retransmitted
// 1PC-COMMIT for a retired committed gtid with a commit ACK.
TEST_F(RecoveryTest, CrashAfterManyRetiredTransactionsRecoversFromOutcomes) {
  Build(1);
  constexpr SiteId kCoordinator = 5;  // a phantom coordinator
  constexpr SiteId kAdopter = 3;      // where the migrated residue went
  std::vector<core::AckMsg> acks;
  std::vector<core::VoteMsg> votes;
  std::vector<core::EpochRefusedMsg> redirects;
  mdbs_->network().RegisterEndpoint(
      kCoordinator, [&](const net::Envelope& env) {
        const auto* msg = std::any_cast<core::Message>(&env.payload);
        if (msg == nullptr) return;
        if (const auto* ack = std::get_if<core::AckMsg>(msg)) {
          acks.push_back(*ack);
        } else if (const auto* vote = std::get_if<core::VoteMsg>(msg)) {
          votes.push_back(*vote);
        } else if (const auto* r = std::get_if<core::EpochRefusedMsg>(msg)) {
          redirects.push_back(*r);
        }
      });
  auto send = [&](core::Message msg) {
    mdbs_->network().Send(kCoordinator, 0, std::move(msg));
    loop_.RunUntil(loop_.Now() + 10 * sim::kMillisecond);
  };
  int64_t seq = 0;
  auto begin = [&](int64_t key) {
    const TxnId gtid = TxnId::MakeGlobal(kCoordinator, ++seq);
    send(core::Message{core::BeginMsg{gtid}});
    send(core::Message{core::DmlRequestMsg{
        gtid, 0, db::MakeAddKey(table_, key, "v", int64_t{1})}});
    return gtid;
  };
  auto sn = [&](sim::Time clock) {
    return core::SerialNumber{clock, kCoordinator, 0};
  };
  core::TwoPCAgent& agent = *mdbs_->agent(0);

  // 40 finished subtransactions on keys 0..3: 2PC commits with rising
  // serial numbers, rollbacks after prepare, and 1PC commits.
  std::vector<TxnId> one_phase;
  std::vector<TxnId> rolled_back;
  std::vector<TxnId> committed;
  for (int i = 0; i < 40; ++i) {
    const TxnId g = begin(i % 4);
    if (i % 10 == 3) {
      send(core::Message{core::OnePhaseCommitMsg{g}});
      one_phase.push_back(g);
      continue;
    }
    send(core::Message{core::PrepareMsg{g, sn(100 + i)}});
    const bool commit = i % 5 != 4;
    send(core::Message{core::DecisionMsg{g, commit}});
    (commit ? committed : rolled_back).push_back(g);
  }
  // A prepared residue on key 7 migrates away.
  const TxnId moved = begin(7);
  send(core::Message{core::PrepareMsg{moved, sn(200)}});
  ASSERT_EQ(agent
                .ExtractResidueForShards(shard::ShardMap::MakeInitial(8, 1),
                                         {7}, kAdopter)
                .size(),
            1u);
  // Two subtransactions stay in doubt: prepared, no decision.
  const TxnId doubt_hi = begin(1);
  send(core::Message{core::PrepareMsg{doubt_hi, sn(500)}});
  const TxnId doubt_lo = begin(2);
  send(core::Message{core::PrepareMsg{doubt_lo, sn(300)}});

  ASSERT_EQ(acks.size(), 40u);
  for (const core::AckMsg& ack : acks) {
    EXPECT_EQ(ack.commit, std::find(rolled_back.begin(), rolled_back.end(),
                                     ack.gtid) == rolled_back.end());
  }
  // Only the two in-doubt subtransactions hold records or volatile state;
  // the 41 others retired into outcome entries.
  const core::AgentLog& log = agent.log();
  EXPECT_EQ(agent.held_txns(), 2u);
  EXPECT_EQ(log.retired(), 41u);
  EXPECT_EQ(log.size(), 6u);  // begin, command, prepare per in-doubt txn
  const core::SerialNumber high_water = agent.max_committed_sn();
  EXPECT_EQ(high_water, sn(138));  // the last committed 2PC prepare
  const std::vector<TxnId> in_doubt = log.InDoubt();
  ASSERT_EQ(in_doubt.size(), 2u);
  // Before the crash a retransmitted PREPARE is re-voted READY.
  votes.clear();
  send(core::Message{core::PrepareMsg{committed[0], sn(100)}});
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_TRUE(votes[0].ready);

  ASSERT_TRUE(mdbs_->CrashSite(0).ok());
  loop_.RunUntil(loop_.Now() + 10 * sim::kMillisecond);

  // The same SN state, in-doubt set and redirect as before the crash.
  EXPECT_EQ(agent.max_committed_sn(), high_water);
  EXPECT_EQ(log.InDoubt(), in_doubt);
  EXPECT_EQ(agent.alive_table().size(), 2u);
  EXPECT_EQ(log.MigratedToOf(moved), kAdopter);
  send(core::Message{core::PrepareMsg{moved, sn(200)}});
  ASSERT_EQ(redirects.size(), 1u);
  EXPECT_EQ(redirects[0].gtid, moved);
  EXPECT_EQ(redirects[0].moved_to, kAdopter);

  // Retransmitted 1PC-COMMITs for retired committed gtids are acked commit,
  // from the outcome entries alone.
  acks.clear();
  for (const TxnId& g : one_phase) {
    EXPECT_TRUE(log.HasCommit(g) && log.HasComplete(g));
    send(core::Message{core::OnePhaseCommitMsg{g}});
  }
  ASSERT_EQ(acks.size(), one_phase.size());
  for (const core::AckMsg& ack : acks) EXPECT_TRUE(ack.commit);
  for (const TxnId& g : rolled_back) EXPECT_TRUE(log.HasAbort(g));
  // The late answers were volatile: after the crash a retransmitted
  // PREPARE finds no subtransaction, as before retirement existed.
  votes.clear();
  send(core::Message{core::PrepareMsg{committed[0], sn(100)}});
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_FALSE(votes[0].ready);
  EXPECT_EQ(votes[0].reason.code(), StatusCode::kNotFound);

  // The in-doubt subtransactions still finish normally.
  acks.clear();
  send(core::Message{core::DecisionMsg{doubt_hi, true}});
  send(core::Message{core::DecisionMsg{doubt_lo, false}});
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(agent.max_committed_sn(), sn(500));
  EXPECT_TRUE(log.InDoubt().empty());
  EXPECT_EQ(agent.held_txns(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

}  // namespace
}  // namespace hermes
