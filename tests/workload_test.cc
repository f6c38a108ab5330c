// Workload driver smoke tests and the central property-based sweeps:
// across seeds, policies and failure rates, every history produced by the
// full certifier must be view serializable (exact oracle on small runs,
// commit-order-graph criterion on all runs), while the naive agent under
// failures must eventually produce distortions.

#include "workload/driver.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>

#include "common/str.h"
#include "consensus/decision.h"
#include "workload/generator.h"

namespace hermes::workload {
namespace {

WorkloadConfig SmallConfig(uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_sites = 3;
  config.rows_per_table = 12;  // high contention
  config.global_clients = 4;
  config.local_clients_per_site = 1;
  config.target_global_txns = 30;
  config.cmds_per_global_txn = 3;
  config.sites_per_global_txn = 2;
  config.global_write_fraction = 0.7;
  config.local_write_fraction = 0.5;
  return config;
}

TEST(Driver, FailureFreeRunCommitsEverythingAndIsSerializable) {
  WorkloadConfig config = SmallConfig(1);
  const RunResult result = Driver::Run(config);

  EXPECT_EQ(result.metrics.global_committed + result.metrics.global_aborted,
            config.target_global_txns);
  // Failure-free: the certifier never aborts anything (the paper's
  // restrictiveness claim). DML aborts can still occur via lock timeouts
  // under contention, but certification refusals must be zero.
  EXPECT_EQ(result.metrics.refuse_interval, 0);
  EXPECT_EQ(result.metrics.refuse_extension, 0);
  EXPECT_EQ(result.metrics.refuse_dead, 0);
  EXPECT_EQ(result.metrics.resubmissions, 0);
  EXPECT_TRUE(result.commit_graph_acyclic);
  EXPECT_TRUE(result.replay_consistent) << result.replay_error;
  EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
      << result.verdict_detail;
  EXPECT_GT(result.metrics.global_committed, 0);
}

// The event budget (sim::EventLoop::set_max_events, exercised with a tiny
// budget in sim_test) stops a livelocked run instead of killing the
// process; Driver::Run reports it, and a run cut short fails the gate.
TEST(Driver, ExhaustedEventBudgetFailsTheGate) {
  RunResult result = Driver::Run(SmallConfig(1));
  EXPECT_FALSE(result.event_budget_exhausted);
  EXPECT_TRUE(result.GuaranteesHold());
  EXPECT_EQ(result.Summary().find("EVENT-BUDGET-EXHAUSTED"),
            std::string::npos);
  result.event_budget_exhausted = true;
  EXPECT_FALSE(result.GuaranteesHold());
  EXPECT_NE(result.Summary().find("EVENT-BUDGET-EXHAUSTED"),
            std::string::npos);
}

// Driver::Run's slicing stops a livelock at the loop's event budget and
// reports it, instead of running on to the end of virtual time.
TEST(Driver, RunInSlicesStopsAtAnExhaustedEventBudget) {
  sim::EventLoop loop;
  loop.set_max_events(50);
  std::function<void()> forever = [&] {
    loop.ScheduleAfter(sim::kMillisecond, forever);
  };
  loop.ScheduleAfter(0, forever);
  int slices = 0;
  EXPECT_FALSE(Driver::RunInSlices(
      loop, 10 * sim::kSecond, []() { return false; }, [&] { ++slices; }));
  EXPECT_TRUE(loop.budget_exhausted());
  EXPECT_EQ(loop.events_processed(), 50u);
  EXPECT_EQ(slices, 1);  // the budget ran out inside the first slice
  EXPECT_EQ(loop.Now(), 100 * sim::kMillisecond);
}

TEST(Driver, CgmRunsTheSameWorkload) {
  WorkloadConfig config = SmallConfig(2);
  config.system = System::kCGM;
  config.cgm_granularity = cgm::Granularity::kSite;
  const RunResult result = Driver::Run(config);
  EXPECT_GT(result.metrics.global_committed, 0);
  EXPECT_TRUE(result.replay_consistent) << result.replay_error;
  EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
      << result.verdict_detail;
}

struct SweepParam {
  uint64_t seed;
  double p_fail;
  core::CertPolicy policy;
};

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = core::CertPolicyName(info.param.policy);
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return StrCat(name, "_pfail", static_cast<int>(info.param.p_fail * 100),
                "_seed", info.param.seed);
}

class SerializabilitySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SerializabilitySweep, FullCertifierAlwaysViewSerializable) {
  const SweepParam& param = GetParam();
  WorkloadConfig config = SmallConfig(param.seed);
  config.policy = param.policy;
  config.p_prepared_abort = param.p_fail;
  const RunResult result = Driver::Run(config);

  EXPECT_GT(result.metrics.global_committed, 0);
  EXPECT_TRUE(result.replay_consistent) << result.replay_error;
  if (param.policy == core::CertPolicy::kFull) {
    // The paper's guarantee: view serializable overall histories in the
    // presence of unilateral aborts.
    EXPECT_TRUE(result.commit_graph_acyclic);
    EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
        << result.verdict_detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAndFailureGrid, SerializabilitySweep,
    ::testing::Values(
        SweepParam{11, 0.0, core::CertPolicy::kFull},
        SweepParam{12, 0.1, core::CertPolicy::kFull},
        SweepParam{13, 0.3, core::CertPolicy::kFull},
        SweepParam{14, 0.5, core::CertPolicy::kFull},
        SweepParam{15, 0.3, core::CertPolicy::kFull},
        SweepParam{16, 0.3, core::CertPolicy::kFull},
        SweepParam{17, 0.1, core::CertPolicy::kPrepareExtended},
        SweepParam{18, 0.3, core::CertPolicy::kPrepareExtended},
        SweepParam{19, 0.1, core::CertPolicy::kPrepareOnly},
        SweepParam{20, 0.3, core::CertPolicy::kNone},
        SweepParam{21, 0.5, core::CertPolicy::kNone}),
    SweepName);

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, FullCertifierUnderHeavyFailures) {
  WorkloadConfig config = SmallConfig(GetParam());
  config.policy = core::CertPolicy::kFull;
  config.p_prepared_abort = 0.4;
  config.target_global_txns = 25;
  const RunResult result = Driver::Run(config);
  EXPECT_TRUE(result.commit_graph_acyclic);
  EXPECT_TRUE(result.replay_consistent) << result.replay_error;
  EXPECT_NE(result.verdict, history::Verdict::kNotSerializable)
      << result.verdict_detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range(uint64_t{100}, uint64_t{120}));

// Shaped like the chaos_paxos_16site benchmark workload: Paxos Commit,
// 1% message loss, hot keys and unilateral aborts of prepared
// subtransactions. Its histories are too large for the exhaustive search,
// so a run that no fast certificate settles is kUnknown; these seeds must
// all be proven view serializable. Two DLU bugs once left six of seeds
// 1-8 kUnknown, each with a transaction reading one item from two
// versions.
class ChaosSweep : public ::testing::TestWithParam<uint64_t> {
 protected:
  static WorkloadConfig ChaosConfig(uint64_t seed) {
    WorkloadConfig config;
    config.seed = seed;
    config.num_sites = 16;
    config.rows_per_table = 64;
    config.zipf_theta = 0.9;
    config.global_write_fraction = 0.2;
    config.local_write_fraction = 0.2;
    config.global_clients = 32;
    config.local_clients_per_site = 1;
    config.p_prepared_abort = 0.1;
    config.net_loss_prob = 0.01;
    config.protocol = consensus::ProtocolKind::kPaxosCommit;
    config.paxos_f = 1;
    config.drain_grace = 2 * sim::kSecond;
    config.lock_wait_timeout = 100 * sim::kMillisecond;
    config.record_history = true;
    config.target_global_txns = 1000;
    return config;
  }

  static void ExpectProvenViewSerializable(const RunResult& result) {
    EXPECT_FALSE(result.event_budget_exhausted);
    EXPECT_TRUE(result.commit_graph_acyclic);
    EXPECT_TRUE(result.replay_consistent) << result.replay_error;
    EXPECT_TRUE(result.order_invariant_ok) << result.order_invariant_error;
    EXPECT_TRUE(result.atomicity_ok) << result.atomicity_error;
    EXPECT_EQ(result.verdict, history::Verdict::kSerializable)
        << result.verdict_detail;
  }
};

TEST_P(ChaosSweep, EveryRunIsProvenViewSerializable) {
  ExpectProvenViewSerializable(Driver::Run(ChaosConfig(GetParam())));
}

// The same shape under 2PC with CSN certification (Validate refuses CSN
// with Paxos Commit). A resubmission is never certified again, under CSN
// as under SN; these runs resubmit and must still be proven view
// serializable.
TEST_P(ChaosSweep, CsnResubmissionsStayProvenViewSerializable) {
  WorkloadConfig config = ChaosConfig(GetParam());
  config.protocol = consensus::ProtocolKind::k2PC;
  config.certifier = cert::CertifierKind::kCsn;
  const RunResult result = Driver::Run(config);
  ASSERT_TRUE(result.config_error.empty()) << result.config_error;
  EXPECT_GT(result.metrics.resubmissions, 0);
  ExpectProvenViewSerializable(result);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

TEST(Driver, NaiveAgentEventuallyViolatesSerializability) {
  // Without certification, unilateral aborts must eventually produce a
  // cyclic commit order graph or a non-view-serializable history across a
  // batch of seeds. (Any single seed may get lucky; the batch must not.)
  int violations = 0;
  for (uint64_t seed = 200; seed < 212; ++seed) {
    WorkloadConfig config = SmallConfig(seed);
    config.policy = core::CertPolicy::kNone;
    config.dlu_binding = false;  // drop DLU too: fully naive
    config.p_prepared_abort = 0.5;
    config.rows_per_table = 6;  // very hot keys
    config.local_clients_per_site = 2;
    const RunResult result = Driver::Run(config);
    if (!result.commit_graph_acyclic ||
        result.verdict == history::Verdict::kNotSerializable ||
        !result.replay_consistent) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0);
}

TEST(Driver, DeterministicAcrossRuns) {
  WorkloadConfig config = SmallConfig(42);
  config.p_prepared_abort = 0.2;
  const RunResult a = Driver::Run(config);
  const RunResult b = Driver::Run(config);
  EXPECT_EQ(a.metrics.global_committed, b.metrics.global_committed);
  EXPECT_EQ(a.metrics.global_aborted, b.metrics.global_aborted);
  EXPECT_EQ(a.metrics.resubmissions, b.metrics.resubmissions);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.history_ops, b.history_ops);
}

// The workload's LTMs break a deadlock inside one site by aborting a
// victim. In this oracle_4site-shaped run (seed found by search) a global
// subtransaction and a local transaction deadlock at site 3; timeout-only
// resolution waits out the 500 ms lock-wait timeout while every global
// client queues behind the cycle, and the run is half again as long.
TEST(Driver, LocalDeadlockEndsInAVictimAbortNotALockTimeout) {
  WorkloadConfig config;
  config.seed = 4000013;
  config.num_sites = 4;
  config.rows_per_table = 128;
  config.global_clients = 8;
  config.local_clients_per_site = 1;
  config.cmds_per_global_txn = 4;
  config.sites_per_global_txn = 2;
  config.global_write_fraction = 0.5;
  config.p_prepared_abort = 0.05;
  config.record_history = false;
  config.target_global_txns = 1000;
  const RunResult detected = Driver::Run(config);
  EXPECT_EQ(detected.metrics.global_committed, 1000);
  EXPECT_EQ(detected.ltm.deadlock_victim_aborts, 1);
  EXPECT_EQ(detected.ltm.lock_timeout_aborts, 0);
  EXPECT_LT(detected.end_time, 1 * sim::kSecond);

  config.deadlock_detection = false;
  const RunResult timed_out = Driver::Run(config);
  EXPECT_EQ(timed_out.metrics.global_committed, 1000);
  EXPECT_EQ(timed_out.ltm.deadlock_victim_aborts, 0);
  EXPECT_EQ(timed_out.ltm.lock_timeout_aborts, 1);
  EXPECT_GT(timed_out.end_time, detected.end_time + 300 * sim::kMillisecond);
}

TEST(Generator, GlobalTxnsRespectSiteAndCommandCounts) {
  WorkloadConfig config = SmallConfig(7);
  config.num_sites = 5;
  config.sites_per_global_txn = 3;
  config.cmds_per_global_txn = 6;
  Generator gen(config, 7);
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const core::GlobalTxnSpec spec = gen.NextGlobal(rng);
    EXPECT_EQ(spec.steps.size(), 6u);
    std::set<SiteId> sites;
    for (const auto& step : spec.steps) {
      ASSERT_GE(step.site, 0);
      ASSERT_LT(step.site, 5);
      sites.insert(step.site);
    }
    EXPECT_EQ(sites.size(), 3u);
  }
}

}  // namespace
}  // namespace hermes::workload
