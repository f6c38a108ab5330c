// Unreliable-network fault matrix: duplicate-safe agent handlers driven
// with replayed and out-of-order protocol messages, coordinator
// timeout/retransmission against partitions and lossy links, and a full
// workload run on a lossy, duplicating, reordering network validated
// against the serializability oracle.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/mdbs.h"
#include "fault/fault_plan.h"
#include "workload/driver.h"

namespace hermes {
namespace {

using core::BeginMsg;
using core::DecisionMsg;
using core::DmlRequestMsg;
using core::Message;
using core::PrepareMsg;
using core::SerialNumber;

// Drives the agent at site 0 of a single-site Mdbs with hand-crafted
// protocol messages from a phantom coordinator (replies are ignored), so
// duplicated and out-of-order deliveries can be scripted exactly.
class FaultMatrixTest : public ::testing::Test {
 protected:
  std::unique_ptr<core::Mdbs> Build() {
    core::MdbsConfig config;
    config.num_sites = 1;
    auto mdbs = std::make_unique<core::Mdbs>(config, &loop_);
    table_ = *mdbs->CreateTable(0, "t");
    for (int64_t k = 0; k < 8; ++k) {
      EXPECT_TRUE(mdbs->LoadRow(0, table_, k,
                                db::Row{{"v", db::Value(int64_t{0})}})
                      .ok());
    }
    loop_.set_max_events(1'000'000);
    return mdbs;
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  void Send(core::Mdbs& mdbs, const Message& msg) {
    mdbs.network().Send(0, 0, msg);
  }

  void Drain() { loop_.RunUntil(loop_.Now() + 50 * sim::kMillisecond); }

  int64_t Val(core::Mdbs& mdbs, int64_t key) {
    const db::RowEntry* entry = mdbs.storage(0)->GetTable(table_)->Get(key);
    if (entry == nullptr || !entry->live()) return -1;
    return std::get<int64_t>(*entry->row->Get("v"));
  }

  sim::EventLoop loop_;
  db::TableId table_ = -1;
};

TEST_F(FaultMatrixTest, EveryProtocolMessageDuplicatedIsAbsorbedOnce) {
  auto mdbs = Build();
  const TxnId g = TxnId::MakeGlobal(0, 1);
  const auto dml = db::MakeAddKey(table_, 1, "v", int64_t{1});

  Send(*mdbs, Message{BeginMsg{g}});
  Send(*mdbs, Message{BeginMsg{g}});  // duplicate
  Send(*mdbs, Message{DmlRequestMsg{g, 0, dml}});
  Send(*mdbs, Message{DmlRequestMsg{g, 0, dml}});  // duplicate, in flight
  Drain();
  Send(*mdbs, Message{DmlRequestMsg{g, 0, dml}});  // duplicate, completed
  Drain();
  Send(*mdbs, Message{PrepareMsg{g, SerialNumber{100, 0, 0}}});
  Send(*mdbs, Message{PrepareMsg{g, SerialNumber{100, 0, 0}}});  // duplicate
  Drain();
  // The command was logged once (checked while prepared: the records
  // retire with the transaction).
  EXPECT_EQ(mdbs->agent(0)->log().CommandsOf(g).size(), 1u);
  Send(*mdbs, Message{DecisionMsg{g, true}});
  Send(*mdbs, Message{DecisionMsg{g, true}});  // duplicate
  Drain();

  // The add was applied exactly once and the transaction committed once.
  EXPECT_EQ(Val(*mdbs, 1), 1);
  EXPECT_TRUE(mdbs->agent(0)->log().HasComplete(g));
  EXPECT_EQ(mdbs->agent(0)->alive_table().size(), 0u);
  EXPECT_GE(mdbs->metrics().dup_msgs_absorbed, 5);
}

TEST_F(FaultMatrixTest, ReplayedOutOfOrderRunMatchesCleanFinalState) {
  const TxnId g = TxnId::MakeGlobal(0, 1);
  const TxnId stray = TxnId::MakeGlobal(0, 99);  // never begun anywhere

  auto clean = Build();
  const auto dml0 = db::MakeAddKey(table_, 1, "v", int64_t{5});
  Send(*clean, Message{BeginMsg{g}});
  Send(*clean, Message{DmlRequestMsg{g, 0, dml0}});
  Drain();
  Send(*clean, Message{PrepareMsg{g, SerialNumber{100, 0, 0}}});
  Drain();
  Send(*clean, Message{DecisionMsg{g, true}});
  Drain();

  auto hostile = Build();
  // DML overtakes its BEGIN: absorbed silently, the retransmission lands.
  Send(*hostile, Message{DmlRequestMsg{g, 0, dml0}});
  Send(*hostile, Message{BeginMsg{g}});
  Send(*hostile, Message{DmlRequestMsg{g, 0, dml0}});
  Drain();
  // COMMIT overtakes PREPARE: ignored until the state supports it.
  Send(*hostile, Message{DecisionMsg{g, true}});
  Send(*hostile, Message{PrepareMsg{g, SerialNumber{100, 0, 0}}});
  Drain();
  // The command was logged once (checked while prepared: the records
  // retire with the transaction).
  EXPECT_EQ(hostile->agent(0)->log().CommandsOf(g).size(), 1u);
  // Stray rollback for a transaction this agent never saw: just acked.
  Send(*hostile, Message{DecisionMsg{stray, false}});
  // The retransmitted COMMIT (plus one duplicate) completes the protocol.
  Send(*hostile, Message{DecisionMsg{g, true}});
  Send(*hostile, Message{DecisionMsg{g, true}});
  Drain();

  // Same final database state as the fault-free run.
  for (int64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(Val(*hostile, k), Val(*clean, k)) << "key " << k;
  }
  EXPECT_EQ(Val(*hostile, 1), 5);
  EXPECT_TRUE(hostile->agent(0)->log().HasComplete(g));
}

TEST_F(FaultMatrixTest, RetransmittedBeginCannotResurrectCrashedTxn) {
  auto mdbs = Build();
  const TxnId g = TxnId::MakeGlobal(0, 1);
  Send(*mdbs, Message{BeginMsg{g}});
  Send(*mdbs, Message{DmlRequestMsg{
                  g, 0, db::MakeAddKey(table_, 1, "v", int64_t{1})}});
  Drain();
  // The command is logged (checked before the crash: recovery retires the
  // subtransaction, whose work the crash rolled back).
  EXPECT_EQ(mdbs->agent(0)->log().CommandsOf(g).size(), 1u);

  // The site crashes before PREPARE: the add is rolled back, the volatile
  // transaction is gone, but the agent log still knows the gtid.
  mdbs->CrashSite(0);
  EXPECT_EQ(Val(*mdbs, 1), 0);
  EXPECT_TRUE(mdbs->agent(0)->log().Knows(g));

  // A retransmitted BEGIN + a later DML must not silently re-open the
  // subtransaction — the command executed before the crash would be lost,
  // committing only half the subtransaction's work.
  Send(*mdbs, Message{BeginMsg{g}});
  Send(*mdbs, Message{DmlRequestMsg{
                  g, 1, db::MakeAddKey(table_, 2, "v", int64_t{1})}});
  Drain();
  Send(*mdbs, Message{PrepareMsg{g, SerialNumber{100, 0, 0}}});
  Drain();

  // Nothing re-executed, nothing prepared: the vote was REFUSE and the
  // coordinator will roll the global transaction back.
  EXPECT_EQ(Val(*mdbs, 1), 0);
  EXPECT_EQ(Val(*mdbs, 2), 0);
  // The later DML was not logged either.
  EXPECT_TRUE(mdbs->agent(0)->log().CommandsOf(g).empty());
  EXPECT_EQ(mdbs->agent(0)->alive_table().size(), 0u);
  EXPECT_FALSE(mdbs->ltm(0)->IsActive(mdbs->agent(0)->HandleOf(g)));
}

// --- coordinator timeout / retransmission ------------------------------------

TEST(FaultRecovery, CoordinatorRetransmitsThroughATimedPartition) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  config.coordinator_retry.timeout = 5 * sim::kMillisecond;
  config.coordinator_retry.max_timeout = 20 * sim::kMillisecond;
  config.coordinator_retry.max_attempts = 100;
  core::Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("t");
  ASSERT_TRUE(
      mdbs.LoadRow(1, table, 1, db::Row{{"v", db::Value(int64_t{0})}}).ok());

  // Sites 0 and 1 cannot talk for the first 50ms; every BEGIN/DML sent in
  // that window is dropped and must be recovered by retransmission.
  mdbs.network().Partition(0, 1, 50 * sim::kMillisecond);

  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table, 1, "v", int64_t{1}), {}});
  Status status = Status::Internal("callback never ran");
  mdbs.Submit(std::move(spec),
              [&](const core::GlobalTxnResult& result) {
                status = result.status;
              },
              /*coordinator_site=*/0);
  loop.Run();

  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(mdbs.metrics().global_committed, 1);
  EXPECT_GT(mdbs.metrics().retransmits, 0);
  EXPECT_GT(mdbs.network().messages_dropped(), 0);
}

TEST(FaultRecovery, CoordinatorGivesUpAfterBoundedAttempts) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  config.coordinator_retry.timeout = 2 * sim::kMillisecond;
  config.coordinator_retry.max_timeout = 8 * sim::kMillisecond;
  config.coordinator_retry.max_attempts = 3;
  core::Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("t");
  ASSERT_TRUE(
      mdbs.LoadRow(1, table, 1, db::Row{{"v", db::Value(int64_t{0})}}).ok());

  // The 0 -> 1 link loses everything until it heals at t = 200ms — long
  // after the DML retransmission budget is exhausted. The coordinator must
  // abort the transaction, then keep retransmitting the ROLLBACK decision
  // (unbounded) until the healed link finally delivers it.
  mdbs.network().SetLinkLoss(0, 1, 1.0);
  loop.ScheduleAt(200 * sim::kMillisecond,
                  [&] { mdbs.network().ClearLinkLoss(0, 1); });

  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table, 1, "v", int64_t{1}), {}});
  Status status = Status::Ok();
  mdbs.Submit(std::move(spec),
              [&](const core::GlobalTxnResult& result) {
                status = result.status;
              },
              /*coordinator_site=*/0);
  loop.Run();

  EXPECT_FALSE(status.ok());
  EXPECT_EQ(mdbs.metrics().global_aborted, 1);
  EXPECT_EQ(mdbs.metrics().global_aborted_timeout, 1);
  EXPECT_EQ(mdbs.metrics().global_committed, 0);
  const db::RowEntry* entry = mdbs.storage(1)->GetTable(table)->Get(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(std::get<int64_t>(*entry->row->Get("v")), 0);
}

// --- full workload on an unreliable network ----------------------------------

// Acceptance criterion of the fault-injection work: a 200-transaction
// seeded workload on a network losing 10% and duplicating 5% of the
// messages terminates, commits through retransmission, and its committed
// projection stays view-serializable.
TEST(FaultWorkload, LossyDuplicatingNetworkStaysViewSerializable) {
  workload::WorkloadConfig config;
  config.seed = 20260807;
  config.num_sites = 4;
  config.global_clients = 8;
  config.target_global_txns = 200;
  config.net_loss_prob = 0.10;
  config.net_dup_prob = 0.05;
  config.net_reorder_prob = 0.05;
  config.record_history = true;
  const workload::RunResult result = workload::Driver::Run(config);

  EXPECT_EQ(result.metrics.global_committed + result.metrics.global_aborted,
            200);
  EXPECT_GT(result.metrics.global_committed, 0);
  EXPECT_GT(result.metrics.retransmits, 0);
  EXPECT_GT(result.metrics.dup_msgs_absorbed, 0);
  EXPECT_GT(result.msgs_dropped, 0);
  EXPECT_GT(result.msgs_duplicated, 0);
  ASSERT_TRUE(result.history_checked);
  EXPECT_TRUE(result.commit_graph_acyclic);
  EXPECT_TRUE(result.replay_consistent) << result.replay_error;
  EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
      << result.verdict_detail;
}

// --- coordinator-site crashes ------------------------------------------------

// The classic 2PC blocking window, made measurable: a participant prepared
// when the coordinating site goes down can neither commit nor abort — it
// keeps probing with INQUIRY — until the coordinator comes back and its
// durable decision log resolves the transaction.
TEST(CoordinatorCrashFault, PreparedParticipantBlocksUntilRecovery) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  config.agent.decision_inquiry_timeout = 50 * sim::kMillisecond;
  core::Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("t");
  ASSERT_TRUE(
      mdbs.LoadRow(1, table, 1, db::Row{{"v", db::Value(int64_t{0})}}).ok());
  loop.set_max_events(10'000'000);

  // Lose the COMMIT, then take the whole coordinating site down until an
  // explicit RecoverSite.
  mdbs.agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    mdbs.network().SetLinkLoss(0, 1, 1.0);
  });
  loop.ScheduleAt(10 * sim::kMillisecond, [&]() {
    mdbs.CrashSite(0, /*downtime=*/-1);
    mdbs.network().ClearLinkLoss(0, 1);
  });

  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table, 1, "v", int64_t{7}), {}});
  const TxnId gtid = mdbs.Submit(spec, nullptr, /*coordinator_site=*/0);

  loop.RunUntil(300 * sim::kMillisecond);
  // Mid-window: prepared, undecided, probing.
  EXPECT_FALSE(mdbs.agent(1)->log().HasCommit(gtid));
  EXPECT_FALSE(mdbs.agent(1)->log().HasAbort(gtid));
  const int64_t probes_mid = mdbs.metrics().inquiries_sent;
  EXPECT_GE(probes_mid, 1);

  loop.RunUntil(800 * sim::kMillisecond);
  // Still blocked; the probe count keeps growing (capped backoff, not
  // give-up).
  EXPECT_FALSE(mdbs.agent(1)->log().HasCommit(gtid));
  EXPECT_FALSE(mdbs.agent(1)->log().HasAbort(gtid));
  EXPECT_GT(mdbs.metrics().inquiries_sent, probes_mid);

  mdbs.RecoverSite(0);
  loop.Run();
  // The logged decision resolved the window: the participant committed.
  EXPECT_TRUE(mdbs.agent(1)->log().HasComplete(gtid));
  EXPECT_EQ(mdbs.metrics().coordinator_redelivered_decisions, 1);
  const db::RowEntry* entry = mdbs.storage(1)->GetTable(table)->Get(1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(std::get<int64_t>(*entry->row->Get("v")), 7);
  EXPECT_FALSE(loop.budget_exhausted());
}

// The inquiry retransmission backoff must stop doubling at
// inquiry_retry_max: once capped, the probe rate towards a dead coordinator
// is constant, not vanishing.
TEST(CoordinatorCrashFault, InquiryBackoffCapsAtConfiguredMax) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  config.agent.decision_inquiry_timeout = 20 * sim::kMillisecond;
  config.agent.inquiry_retry_initial = 10 * sim::kMillisecond;
  config.agent.inquiry_retry_max = 40 * sim::kMillisecond;
  core::Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("t");
  ASSERT_TRUE(
      mdbs.LoadRow(1, table, 1, db::Row{{"v", db::Value(int64_t{0})}}).ok());
  loop.set_max_events(10'000'000);

  // Lose the COMMIT, then take the coordinating site down for good: the
  // prepared participant is left probing forever.
  mdbs.agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    mdbs.network().SetLinkLoss(0, 1, 1.0);
  });
  loop.ScheduleAt(10 * sim::kMillisecond, [&]() {
    mdbs.CrashSite(0, /*downtime=*/-1);
    mdbs.network().ClearLinkLoss(0, 1);
  });

  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table, 1, "v", int64_t{7}), {}});
  mdbs.Submit(spec, nullptr, /*coordinator_site=*/0);

  loop.RunUntil(200 * sim::kMillisecond);
  const int64_t before = mdbs.metrics().inquiries_sent;
  EXPECT_GE(before, 4);  // the 10/20/40 ramp is already over
  loop.RunUntil(1200 * sim::kMillisecond);
  const int64_t probes = mdbs.metrics().inquiries_sent - before;
  // A fully capped backoff sends one probe per 40ms: ~25 in the 1000ms
  // window. Uncapped doubling would collapse to a handful; faster-than-cap
  // probing would blow far past it.
  EXPECT_GE(probes, 20);
  EXPECT_LE(probes, 27);
  EXPECT_FALSE(loop.budget_exhausted());
}

// orphan_abort_timeout interaction with the coordinator-crash machinery: an
// *active* subtransaction abandoned by its coordinator is unilaterally
// aborted (its locks released), while a *prepared* one must keep blocking
// and probing — the orphan timer is disarmed at the vote.
TEST(CoordinatorCrashFault, OrphanTimeoutAbandonsActiveButNeverPreparedTxns) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  config.agent.orphan_abort_timeout = 50 * sim::kMillisecond;
  config.agent.decision_inquiry_timeout = 30 * sim::kMillisecond;
  core::Mdbs mdbs(config, &loop);
  const db::TableId table = *mdbs.CreateTableEverywhere("t");
  for (int64_t k = 1; k <= 2; ++k) {
    ASSERT_TRUE(
        mdbs.LoadRow(1, table, k, db::Row{{"v", db::Value(int64_t{0})}})
            .ok());
  }
  loop.set_max_events(10'000'000);

  // Transaction A: the coordinator dies *before* PREPARE fan-out (hooked in
  // before_prepare), leaving an active subtransaction holding locks at
  // site 1.
  core::CoordinatorHooks hooks;
  hooks.before_prepare = [&](const TxnId&, const std::vector<SiteId>&,
                             std::function<void()>) {
    loop.ScheduleAfter(0, [&]() { mdbs.CrashSite(0, /*downtime=*/-1); });
    // `done` is never called: the crash wipes the transaction.
  };
  mdbs.coordinator(0)->set_hooks(hooks);

  core::GlobalTxnSpec spec_a;
  spec_a.steps.push_back({1, db::MakeAddKey(table, 1, "v", int64_t{1}), {}});
  const TxnId a = mdbs.Submit(spec_a, nullptr, /*coordinator_site=*/0);

  loop.RunUntil(30 * sim::kMillisecond);
  // Still active and holding its lock: the orphan timeout has not expired.
  EXPECT_TRUE(mdbs.ltm(1)->IsActive(mdbs.agent(1)->HandleOf(a)));

  loop.RunUntil(200 * sim::kMillisecond);
  // Orphan timer fired: the subtransaction was unilaterally aborted and its
  // lock is free again — a local transaction on the same row succeeds.
  EXPECT_FALSE(mdbs.ltm(1)->IsActive(mdbs.agent(1)->HandleOf(a)));
  Status local = Status::Internal("callback never ran");
  mdbs.SubmitLocal(
      core::LocalTxnSpec{1, {db::MakeAddKey(table, 1, "v", int64_t{5})}},
      [&](const core::LocalTxnResult& r) { local = r.status; });
  loop.RunUntil(300 * sim::kMillisecond);
  EXPECT_TRUE(local.ok()) << local.ToString();

  // Transaction B (fresh coordinator at site 1, participant semantics via
  // its own site): prepared, then its coordinator's COMMIT is lost and the
  // coordinator site taken down. Despite orphan_abort_timeout being set,
  // the prepared subtransaction is never abandoned — it keeps probing.
  mdbs.RecoverSite(0);
  mdbs.coordinator(0)->set_hooks({});  // this time PREPARE goes out
  mdbs.agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    mdbs.network().SetLinkLoss(0, 1, 1.0);
  });
  loop.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    mdbs.CrashSite(0, /*downtime=*/-1);
    mdbs.network().ClearLinkLoss(0, 1);
  });
  core::GlobalTxnSpec spec_b;
  spec_b.steps.push_back({1, db::MakeAddKey(table, 2, "v", int64_t{1}), {}});
  const TxnId b = mdbs.Submit(spec_b, nullptr, /*coordinator_site=*/0);

  const int64_t probes_before = mdbs.metrics().inquiries_sent;
  loop.RunUntil(loop.Now() + 500 * sim::kMillisecond);
  EXPECT_FALSE(mdbs.agent(1)->log().HasCommit(b));
  EXPECT_FALSE(mdbs.agent(1)->log().HasAbort(b));
  EXPECT_GT(mdbs.metrics().inquiries_sent, probes_before);
  EXPECT_FALSE(loop.budget_exhausted());
}

TEST(CoordinatorCrashFault, CrashingADownSiteIsADeterministicNoOp) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 2;
  core::Mdbs mdbs(config, &loop);

  mdbs.CrashSite(0, /*downtime=*/-1);
  EXPECT_FALSE(mdbs.SiteUp(0));
  EXPECT_EQ(mdbs.metrics().coordinator_crashes, 1);

  // Crashing an already-down site does nothing — no double collective
  // abort, no duplicate recovery schedule.
  mdbs.CrashSite(0);
  mdbs.CrashSite(0, 50 * sim::kMillisecond);
  EXPECT_FALSE(mdbs.SiteUp(0));
  EXPECT_EQ(mdbs.metrics().coordinator_crashes, 1);
  loop.Run();
  EXPECT_FALSE(mdbs.SiteUp(0));  // the duplicate's downtime never applied

  mdbs.RecoverSite(0);
  EXPECT_TRUE(mdbs.SiteUp(0));
  mdbs.RecoverSite(0);  // recovering an up site is equally a no-op
  EXPECT_TRUE(mdbs.SiteUp(0));

  // A fresh crash after recovery counts again.
  mdbs.CrashSite(0, 50 * sim::kMillisecond);
  EXPECT_EQ(mdbs.metrics().coordinator_crashes, 2);
  loop.Run();
  EXPECT_TRUE(mdbs.SiteUp(0));
}

TEST(CoordinatorCrashFault, DuplicateInquiriesAreAnsweredIdempotently) {
  sim::EventLoop loop;
  core::MdbsConfig config;
  config.num_sites = 1;
  core::Mdbs mdbs(config, &loop);
  loop.set_max_events(1'000'000);

  // Two copies of the same inquiry about a transaction the coordinator
  // never knew: each gets the same presumed-abort answer and the agent
  // absorbs both without wedging.
  const TxnId g = TxnId::MakeGlobal(0, 424242);
  mdbs.network().Send(0, 0, core::Message{core::InquiryMsg{g}});
  mdbs.network().Send(0, 0, core::Message{core::InquiryMsg{g}});
  loop.Run();
  EXPECT_EQ(mdbs.metrics().inquiries_answered_presumed_abort, 2);
  EXPECT_FALSE(mdbs.agent(0)->log().HasCommit(g));
  EXPECT_FALSE(loop.budget_exhausted());
}

// Loss and crashes combined: a lossy network plus timed and
// protocol-triggered site crashes from a declarative fault plan. Every
// surviving history must still be atomic and view-serializable.
TEST(FaultWorkload, LossPlusCrashesStaysAtomicAndSerializable) {
  workload::WorkloadConfig config;
  config.seed = 20260807;
  config.num_sites = 3;
  config.global_clients = 4;
  config.target_global_txns = 120;
  config.net_loss_prob = 0.05;
  config.record_history = true;
  config.drain_grace = 2 * sim::kSecond;
  config.orphan_abort_timeout = 800 * sim::kMillisecond;

  fault::FaultEvent crash1;
  crash1.kind = fault::FaultKind::kCrashSite;
  crash1.at = 30 * sim::kMillisecond;
  crash1.site = 1;
  crash1.duration = 400 * sim::kMillisecond;
  fault::FaultEvent crash2;  // the lost-decision window, on purpose
  crash2.kind = fault::FaultKind::kCrashSite;
  crash2.trigger = fault::TriggerKind::kOnPrepared;
  crash2.watch_site = 2;
  crash2.nth = 3;
  crash2.site = 2;
  crash2.duration = 300 * sim::kMillisecond;
  fault::FaultEvent burst;
  burst.kind = fault::FaultKind::kLossBurst;
  burst.at = 100 * sim::kMillisecond;
  burst.site = 0;
  burst.peer = 1;
  burst.duration = 200 * sim::kMillisecond;
  burst.loss_prob = 0.5;
  config.fault_plan.events = {crash1, crash2, burst};

  const workload::RunResult result = workload::Driver::Run(config);

  EXPECT_EQ(result.metrics.global_committed + result.metrics.global_aborted,
            120);
  EXPECT_GT(result.metrics.global_committed, 0);
  EXPECT_GE(result.metrics.coordinator_crashes, 2);
  ASSERT_TRUE(result.history_checked);
  EXPECT_TRUE(result.atomicity_ok) << result.atomicity_error;
  EXPECT_TRUE(result.commit_graph_acyclic);
  EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
      << result.verdict_detail;
}

}  // namespace
}  // namespace hermes
