// Paxos Commit: fast-path commits, definite aborts sealed without a
// resolution round, the headline non-blocking property (prepared
// participants commit while the coordinating site stays down), acceptor
// crash tolerance within F, durable acceptor-log replay, and full chaos
// workloads under the atomicity/serializability oracles plus byte-identical
// determinism.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/paxos.h"
#include "core/mdbs.h"
#include "fault/fault_plan.h"
#include "runner/runner.h"
#include "workload/driver.h"

namespace hermes {
namespace {

using core::Message;

// Builds a Paxos-Commit Mdbs with fast recovery timers, a shared table and
// one row per site.
class PaxosMdbsTest : public ::testing::Test {
 protected:
  std::unique_ptr<core::Mdbs> Build(int num_sites, int f) {
    core::MdbsConfig config;
    config.num_sites = num_sites;
    config.protocol = consensus::ProtocolKind::kPaxosCommit;
    config.paxos_f = f;
    config.agent.decision_inquiry_timeout = 30 * sim::kMillisecond;
    config.agent.inquiry_retry_initial = 10 * sim::kMillisecond;
    config.agent.inquiry_retry_max = 40 * sim::kMillisecond;
    auto mdbs = std::make_unique<core::Mdbs>(config, &loop_);
    table_ = *mdbs->CreateTableEverywhere("t");
    for (SiteId s = 0; s < num_sites; ++s) {
      EXPECT_TRUE(mdbs->LoadRow(s, table_, 1,
                                db::Row{{"v", db::Value(int64_t{0})}})
                      .ok());
    }
    loop_.set_max_events(10'000'000);
    return mdbs;
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  int64_t Val(core::Mdbs& mdbs, SiteId site) {
    const db::RowEntry* entry =
        mdbs.storage(site)->GetTable(table_)->Get(1);
    if (entry == nullptr || !entry->live()) return -1;
    return std::get<int64_t>(*entry->row->Get("v"));
  }

  core::GlobalTxnSpec TwoSiteSpec(SiteId a, SiteId b) {
    core::GlobalTxnSpec spec;
    spec.steps.push_back({a, db::MakeAddKey(table_, 1, "v", int64_t{7}), {}});
    spec.steps.push_back({b, db::MakeAddKey(table_, 1, "v", int64_t{7}), {}});
    return spec;
  }

  sim::EventLoop loop_;
  db::TableId table_ = -1;
};

TEST_F(PaxosMdbsTest, FastPathCommitsWithoutResolution) {
  auto mdbs = Build(/*num_sites=*/3, /*f=*/1);
  Status status = Status::Internal("callback never ran");
  mdbs->Submit(TwoSiteSpec(1, 2),
               [&](const core::GlobalTxnResult& r) { status = r.status; },
               /*coordinator_site=*/0);
  loop_.Run();

  EXPECT_TRUE(status.ok()) << status.ToString();
  const core::Metrics m = mdbs->metrics();
  EXPECT_EQ(m.global_committed, 1);
  EXPECT_EQ(m.paxos_decided_fast, 1);
  EXPECT_EQ(m.paxos_resolutions, 0);
  EXPECT_EQ(m.paxos_elections, 0);
  // Every acceptor force-wrote the membership and both vote instances.
  EXPECT_GT(m.paxos_forced_writes, 0);
  for (SiteId s = 0; s < 3; ++s) {
    EXPECT_GT(mdbs->paxos(s)->log().forced_writes(), 0) << "acceptor " << s;
  }
  EXPECT_EQ(Val(*mdbs, 1), 7);
  EXPECT_EQ(Val(*mdbs, 2), 7);
}

// The client hears the commit once the acceptors chose it, before any
// participant applied the COMMIT (so before any ACK).
TEST_F(PaxosMdbsTest, CommitIsReportedAtTheChosenOutcome) {
  auto mdbs = Build(/*num_sites=*/3, /*f=*/1);
  int reports = 0;
  mdbs->Submit(
      TwoSiteSpec(1, 2),
      [&](const core::GlobalTxnResult& r) {
        ++reports;
        EXPECT_TRUE(r.status.ok()) << r.status;
        EXPECT_EQ(mdbs->metrics().paxos_decided_fast, 1);
        for (SiteId s : {1, 2}) {
          EXPECT_FALSE(mdbs->agent(s)->log().HasCommit(r.gtid)) << s;
        }
        EXPECT_EQ(mdbs->coordinator(0)->active_transactions(), 1);
      },
      /*coordinator_site=*/0);
  loop_.Run();
  EXPECT_EQ(reports, 1);
  EXPECT_EQ(mdbs->metrics().global_committed, 1);
  EXPECT_EQ(mdbs->coordinator(0)->active_transactions(), 0);
  EXPECT_EQ(Val(*mdbs, 1), 7);
  EXPECT_EQ(Val(*mdbs, 2), 7);
}

TEST_F(PaxosMdbsTest, DefiniteAbortIsSealedWithoutAcceptorRound) {
  auto mdbs = Build(/*num_sites=*/3, /*f=*/1);
  // A DML against a nonexistent table fails before any vote exists: the
  // abort is final and needs no consensus round to be safe.
  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(999, 1, "v", int64_t{1}), {}});
  Status status = Status::Ok();
  mdbs->Submit(std::move(spec),
               [&](const core::GlobalTxnResult& r) { status = r.status; },
               /*coordinator_site=*/0);
  loop_.Run();

  EXPECT_FALSE(status.ok());
  const core::Metrics m = mdbs->metrics();
  EXPECT_EQ(m.global_aborted, 1);
  EXPECT_EQ(m.global_committed, 0);
  EXPECT_EQ(m.paxos_resolutions, 0);
  EXPECT_EQ(m.paxos_decided_fast, 0);
}

// The headline non-blocking property: the coordinating site crashes after
// every participant voted READY and stays down; the prepared participants
// escalate to a resolution round and commit without it.
TEST_F(PaxosMdbsTest, PreparedParticipantsCommitWhileCoordinatorStaysDown) {
  auto mdbs = Build(/*num_sites=*/3, /*f=*/1);
  int prepared = 0;
  for (SiteId s : {1, 2}) {
    mdbs->agent(s)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
      // Both READY votes are broadcast (in flight to the acceptors) by the
      // time the second hook fires; the coordinator never hears them.
      if (++prepared == 2) mdbs->CrashSite(0, /*downtime=*/-1);
    });
  }
  const TxnId gtid = mdbs->Submit(TwoSiteSpec(1, 2), nullptr,
                                  /*coordinator_site=*/0);
  loop_.Run();

  // The coordinator is still down, yet both participants committed.
  EXPECT_FALSE(mdbs->SiteUp(0));
  EXPECT_TRUE(mdbs->agent(1)->log().HasComplete(gtid));
  EXPECT_TRUE(mdbs->agent(2)->log().HasComplete(gtid));
  EXPECT_EQ(Val(*mdbs, 1), 7);
  EXPECT_EQ(Val(*mdbs, 2), 7);

  const core::Metrics m = mdbs->metrics();
  EXPECT_GE(m.paxos_elections, 1);
  EXPECT_GE(m.paxos_resolutions, 1);
  EXPECT_GE(m.paxos_decided_resolved, 1);
  // The client saw the outage (its coordinator died mid-decision)...
  EXPECT_EQ(m.global_aborted_crash, 1);
  // ...but the history records exactly one global decision: COMMIT.
  int commits = 0, aborts = 0;
  for (const history::Op& op : mdbs->recorder().ops()) {
    if (op.kind == history::OpKind::kGlobalCommit &&
        op.subtxn.txn == gtid) {
      ++commits;
    }
    if (op.kind == history::OpKind::kGlobalAbort && op.subtxn.txn == gtid) {
      ++aborts;
    }
  }
  EXPECT_EQ(commits, 1);
  EXPECT_EQ(aborts, 0);
}

// Blocking 2PC contrast: the same crash under the 2PC protocol leaves the
// prepared participants undecided for as long as the coordinator is down.
TEST_F(PaxosMdbsTest, Under2PCTheSameCrashBlocksParticipants) {
  core::MdbsConfig config;
  config.num_sites = 3;
  config.agent.decision_inquiry_timeout = 30 * sim::kMillisecond;
  config.agent.inquiry_retry_initial = 10 * sim::kMillisecond;
  config.agent.inquiry_retry_max = 40 * sim::kMillisecond;
  core::Mdbs mdbs(config, &loop_);
  table_ = *mdbs.CreateTableEverywhere("t");
  for (SiteId s = 0; s < 3; ++s) {
    ASSERT_TRUE(
        mdbs.LoadRow(s, table_, 1, db::Row{{"v", db::Value(int64_t{0})}})
            .ok());
  }
  loop_.set_max_events(10'000'000);
  int prepared = 0;
  for (SiteId s : {1, 2}) {
    mdbs.agent(s)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
      if (++prepared == 2) mdbs.CrashSite(0, /*downtime=*/-1);
    });
  }
  const TxnId gtid =
      mdbs.Submit(TwoSiteSpec(1, 2), nullptr, /*coordinator_site=*/0);
  loop_.RunUntil(2 * sim::kSecond);

  EXPECT_FALSE(mdbs.agent(1)->log().HasCommit(gtid));
  EXPECT_FALSE(mdbs.agent(1)->log().HasAbort(gtid));
  EXPECT_FALSE(mdbs.agent(2)->log().HasCommit(gtid));
  EXPECT_FALSE(mdbs.agent(2)->log().HasAbort(gtid));
  EXPECT_GT(mdbs.metrics().inquiries_sent, 0);
}

TEST_F(PaxosMdbsTest, AcceptorCrashWithinFIsTolerated) {
  // 4 sites, acceptors {0,1,2}: site 2 is a pure acceptor for a
  // transaction spanning sites 1 and 3, and it is down for the whole run.
  auto mdbs = Build(/*num_sites=*/4, /*f=*/1);
  mdbs->CrashSite(2, /*downtime=*/-1);
  Status status = Status::Internal("callback never ran");
  mdbs->Submit(TwoSiteSpec(1, 3),
               [&](const core::GlobalTxnResult& r) { status = r.status; },
               /*coordinator_site=*/0);
  loop_.Run();

  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(mdbs->metrics().global_committed, 1);
  EXPECT_EQ(mdbs->metrics().paxos_decided_fast, 1);
  EXPECT_EQ(Val(*mdbs, 1), 7);
  EXPECT_EQ(Val(*mdbs, 3), 7);
}

// --- acceptor state machine + durable log, driven directly ------------------

// Three PaxosCommit instances on a raw network; every delivered message is
// captured before routing so replies can be inspected.
class PaxosHarnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    network_ = std::make_unique<net::Network>(net::NetworkConfig{}, &loop_);
    recorder_ = std::make_unique<history::Recorder>(&loop_);
    metrics_.resize(3);
    for (SiteId s = 0; s < 3; ++s) {
      consensus::PaxosConfig pc;
      pc.site = s;
      pc.num_sites = 3;
      pc.f = 1;
      nodes_.push_back(std::make_unique<consensus::PaxosCommit>(
          pc, &loop_, network_.get(), recorder_.get(),
          &metrics_[static_cast<size_t>(s)]));
    }
    for (SiteId s = 0; s < 3; ++s) {
      network_->RegisterEndpoint(s, [this, s](const net::Envelope& env) {
        const auto* msg = std::any_cast<Message>(&env.payload);
        if (msg == nullptr) return;
        inbox_[s].push_back(*msg);
        if (core::IsPaxosMessage(*msg)) nodes_[s]->Handle(env.from, *msg);
        if (const auto* d = std::get_if<core::DecisionMsg>(msg)) {
          decisions_[d->gtid] = d->commit;
        }
      });
    }
    loop_.set_max_events(1'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  void Drain() { loop_.RunUntil(loop_.Now() + 100 * sim::kMillisecond); }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<history::Recorder> recorder_;
  std::vector<core::Metrics> metrics_;
  std::vector<std::unique_ptr<consensus::PaxosCommit>> nodes_;
  std::map<SiteId, std::vector<Message>> inbox_;
  std::map<TxnId, bool> decisions_;
};

TEST_F(PaxosHarnessTest, AcceptorLogReplayRestoresPromisesAndVotes) {
  const TxnId g = TxnId::MakeGlobal(0, 1);
  nodes_[0]->BeginDecision(g, {1, 2});
  nodes_[1]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  nodes_[2]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  Drain();
  ASSERT_GT(nodes_[2]->log().forced_writes(), 0);

  // Site 2's acceptor crashes and recovers: all volatile state is rebuilt
  // from the durable log.
  nodes_[2]->Crash();
  nodes_[2]->Recover();

  // A resolver's ballot-7 prepare must see the pre-crash accepted state.
  inbox_[1].clear();
  network_->Send(1, 2, Message{core::PaxosPrepareMsg{g, 7}});
  Drain();
  const core::PaxosPromiseMsg* promise = nullptr;
  for (const Message& m : inbox_[1]) {
    if (const auto* p = std::get_if<core::PaxosPromiseMsg>(&m)) promise = p;
  }
  ASSERT_NE(promise, nullptr);
  EXPECT_EQ(promise->ballot, 7);
  EXPECT_EQ(promise->membership_ballot, 0);
  EXPECT_EQ(promise->membership, (std::vector<SiteId>{1, 2}));
  ASSERT_EQ(promise->votes.size(), 2u);
  for (const auto& v : promise->votes) EXPECT_TRUE(v.ready);

  // The promise itself was force-logged: after another crash/recovery the
  // acceptor stays promised at 7 — a stale ballot-5 prepare is ignored,
  // ballot 9 is answered.
  nodes_[2]->Crash();
  nodes_[2]->Recover();
  inbox_[1].clear();
  network_->Send(1, 2, Message{core::PaxosPrepareMsg{g, 5}});
  Drain();
  EXPECT_TRUE(inbox_[1].empty());
  network_->Send(1, 2, Message{core::PaxosPrepareMsg{g, 9}});
  Drain();
  ASSERT_EQ(inbox_[1].size(), 1u);
  EXPECT_TRUE(std::holds_alternative<core::PaxosPromiseMsg>(inbox_[1][0]));
}

TEST_F(PaxosHarnessTest, ResolverWithoutAcceptedMembershipAborts) {
  // Nobody ever began the transaction or voted: a resolution round (from a
  // non-leader site) must choose the empty membership — abort — and answer
  // the escalating site with a rollback.
  const TxnId g = TxnId::MakeGlobal(0, 99);
  nodes_[1]->Escalate(g, /*coordinator=*/0, /*attempt=*/0);
  Drain();
  ASSERT_TRUE(decisions_.count(g));
  EXPECT_FALSE(decisions_[g]);
  EXPECT_GE(metrics_[1].paxos_resolutions, 1);
}

TEST_F(PaxosHarnessTest, ResolverAdoptsChosenCommitInsteadOfAborting) {
  // Membership and both READY votes are accepted at ballot 0 everywhere;
  // a late resolver must adopt them and decide COMMIT.
  const TxnId g = TxnId::MakeGlobal(0, 2);
  nodes_[0]->BeginDecision(g, {1, 2});
  nodes_[1]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  nodes_[2]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  Drain();
  nodes_[1]->Escalate(g, /*coordinator=*/0, /*attempt=*/0);
  Drain();
  ASSERT_TRUE(decisions_.count(g));
  EXPECT_TRUE(decisions_[g]);
}

TEST_F(PaxosHarnessTest, ResolverRefusesCommitWhenAVoteIsMissing) {
  // Only one of the two participants ever voted READY: the resolver fills
  // the free instance with REFUSE and the transaction aborts.
  const TxnId g = TxnId::MakeGlobal(0, 3);
  nodes_[0]->BeginDecision(g, {1, 2});
  nodes_[1]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  Drain();
  nodes_[2]->Escalate(g, /*coordinator=*/0, /*attempt=*/0);
  Drain();
  ASSERT_TRUE(decisions_.count(g));
  EXPECT_FALSE(decisions_[g]);
}

TEST_F(PaxosHarnessTest, LeaderLearnsAnOutcomeSealedBeforeItDecides) {
  // The leader's site escalates and resolves the transaction while the
  // co-located coordinator still waits for a vote. When the coordinator
  // then asks to decide, it is answered with the chosen outcome at once.
  const TxnId g = TxnId::MakeGlobal(0, 4);
  nodes_[0]->BeginDecision(g, {1, 2});
  nodes_[1]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  nodes_[2]->BroadcastVote(g, /*ready=*/true, /*leader=*/0);
  Drain();
  nodes_[0]->Escalate(g, /*coordinator=*/0, /*attempt=*/0);
  Drain();
  ASSERT_TRUE(decisions_.count(g));
  ASSERT_TRUE(decisions_[g]);

  std::optional<bool> answered;
  nodes_[0]->Decide(g, consensus::DecideMode::kCommit, {1, 2}, /*csn=*/-1,
                    [&](const TxnId&, bool commit) { answered = commit; });
  ASSERT_TRUE(answered.has_value());
  EXPECT_TRUE(*answered);
}

// --- full workload under chaos ----------------------------------------------

TEST(PaxosWorkload, ChaosPlansStayAtomicAndSerializable) {
  workload::WorkloadConfig config;
  config.seed = 20260809;
  config.num_sites = 3;
  config.global_clients = 4;
  config.target_global_txns = 120;
  config.net_loss_prob = 0.02;
  config.record_history = true;
  config.drain_grace = 2 * sim::kSecond;
  config.orphan_abort_timeout = 800 * sim::kMillisecond;
  config.decision_inquiry_timeout = 100 * sim::kMillisecond;
  config.protocol = consensus::ProtocolKind::kPaxosCommit;
  config.paxos_f = 1;

  fault::ChaosOptions opts;
  opts.num_sites = config.num_sites;
  opts.horizon = 5 * sim::kSecond;
  opts.crashes = 3;
  opts.partitions = 1;
  opts.loss_bursts = 1;
  config.fault_plan = fault::GenerateChaosPlan(17, opts);

  const workload::RunResult result = workload::Driver::Run(config);

  EXPECT_EQ(result.metrics.global_committed + result.metrics.global_aborted,
            120);
  EXPECT_GT(result.metrics.global_committed, 0);
  EXPECT_GE(result.metrics.coordinator_crashes, 1);
  ASSERT_TRUE(result.history_checked);
  EXPECT_TRUE(result.atomicity_ok) << result.atomicity_error;
  EXPECT_TRUE(result.commit_graph_acyclic);
  EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
      << result.verdict_detail;
}

TEST(PaxosWorkload, TracedChaosRunsAreByteIdenticalAcrossWorkers) {
  runner::RunSpec spec;
  spec.cell = "paxos";
  spec.config.seed = 20260809;
  spec.config.num_sites = 3;
  spec.config.global_clients = 4;
  spec.config.target_global_txns = 60;
  spec.config.drain_grace = 1 * sim::kSecond;
  spec.config.orphan_abort_timeout = 800 * sim::kMillisecond;
  spec.config.decision_inquiry_timeout = 100 * sim::kMillisecond;
  spec.config.protocol = consensus::ProtocolKind::kPaxosCommit;
  spec.config.paxos_f = 1;
  fault::ChaosOptions opts;
  opts.num_sites = 3;
  opts.horizon = 3 * sim::kSecond;
  opts.crashes = 2;
  spec.config.fault_plan = fault::GenerateChaosPlan(5, opts);
  spec.capture_trace = true;

  const std::vector<runner::RunSpec> specs{spec, spec};
  Result<std::vector<runner::RunOutput>> serial =
      runner::RunAll(specs, {.workers = 1});
  Result<std::vector<runner::RunOutput>> parallel =
      runner::RunAll(specs, {.workers = 2});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_FALSE((*serial)[0].trace_binary.empty());
  EXPECT_EQ(runner::Fingerprint((*serial)[0]),
            runner::Fingerprint((*serial)[1]));
  EXPECT_EQ(runner::Fingerprint((*serial)[0]),
            runner::Fingerprint((*parallel)[0]));
}

}  // namespace
}  // namespace hermes
