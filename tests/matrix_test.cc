// Cross-dimension property sweeps: the serializability and liveness
// invariants must hold across topology (site count), access skew, clock
// skew, failure rate and system (2CM / CGM). Each parameterized case runs a
// full randomized workload and checks the oracle verdicts plus basic
// sanity (all submitted transactions complete, throughput positive). Knob
// combinations that do not compose are refused, before anything runs, at
// every entry point: WorkloadConfig::Validate, Driver::Run and
// runner::RunAll.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/str.h"
#include "runner/runner.h"
#include "workload/driver.h"

namespace hermes::workload {
namespace {

// --- topology sweep ------------------------------------------------------

class TopologySweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TopologySweep, InvariantsHoldAcrossSitesAndSpan) {
  const auto [sites, span] = GetParam();
  WorkloadConfig config;
  config.seed = 7000 + static_cast<uint64_t>(sites * 10 + span);
  config.num_sites = sites;
  config.sites_per_global_txn = span;
  config.cmds_per_global_txn = std::max(2, span);
  config.rows_per_table = 32;
  config.global_clients = 4;
  config.target_global_txns = 24;
  config.p_prepared_abort = 0.15;
  const RunResult r = Driver::Run(config);

  EXPECT_EQ(r.metrics.global_committed + r.metrics.global_aborted,
            config.target_global_txns);
  EXPECT_GT(r.metrics.global_committed, 0);
  EXPECT_TRUE(r.commit_graph_acyclic);
  EXPECT_TRUE(r.replay_consistent) << r.replay_error;
  EXPECT_TRUE(r.order_invariant_ok) << r.order_invariant_error;
  EXPECT_NE(r.verdict, history::Verdict::kNotSerializable)
      << r.verdict_detail;
}

INSTANTIATE_TEST_SUITE_P(
    SitesBySpan, TopologySweep,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 1),
                      std::make_tuple(2, 2), std::make_tuple(4, 2),
                      std::make_tuple(4, 3), std::make_tuple(6, 2),
                      std::make_tuple(8, 2), std::make_tuple(8, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return StrCat("sites", std::get<0>(info.param), "_span",
                    std::get<1>(info.param));
    });

// --- skew sweep -----------------------------------------------------------

class SkewSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkewSweep, ClockSkewNeverBreaksCorrectness) {
  // The paper's section 5.2 claim as a property: any clock skew costs
  // throughput only, never correctness.
  WorkloadConfig config;
  config.seed = 7500 + static_cast<uint64_t>(GetParam());
  config.num_sites = 4;
  config.rows_per_table = 24;
  config.global_clients = 6;
  config.target_global_txns = 24;
  config.p_prepared_abort = 0.2;
  config.clock_skew = GetParam() * sim::kMillisecond;
  const RunResult r = Driver::Run(config);
  EXPECT_TRUE(r.commit_graph_acyclic);
  EXPECT_TRUE(r.replay_consistent) << r.replay_error;
  EXPECT_NE(r.verdict, history::Verdict::kNotSerializable)
      << r.verdict_detail;
}

INSTANTIATE_TEST_SUITE_P(SkewMs, SkewSweep,
                         ::testing::Values(0, 1, 3, 10, 50, 250));

// --- access-skew sweep -------------------------------------------------------

class ZipfSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZipfSweep, HotKeysStaySerializable) {
  WorkloadConfig config;
  config.seed = 7700 + static_cast<uint64_t>(GetParam());
  config.num_sites = 3;
  config.rows_per_table = 64;
  config.zipf_theta = GetParam() / 100.0;
  config.global_clients = 5;
  config.local_clients_per_site = 1;
  config.target_global_txns = 24;
  config.p_prepared_abort = 0.25;
  const RunResult r = Driver::Run(config);
  EXPECT_TRUE(r.commit_graph_acyclic);
  EXPECT_TRUE(r.replay_consistent) << r.replay_error;
  EXPECT_NE(r.verdict, history::Verdict::kNotSerializable)
      << r.verdict_detail;
}

INSTANTIATE_TEST_SUITE_P(ThetaPercent, ZipfSweep,
                         ::testing::Values(0, 50, 90, 120));

// --- CGM sweep ----------------------------------------------------------------

class CgmSweep : public ::testing::TestWithParam<cgm::Granularity> {};

TEST_P(CgmSweep, CgmStaysCorrectUnderFailures) {
  WorkloadConfig config;
  config.seed = 7900;
  config.system = System::kCGM;
  config.cgm_granularity = GetParam();
  config.num_sites = 3;
  config.rows_per_table = 32;
  config.global_clients = 4;
  config.local_clients_per_site = 1;
  config.target_global_txns = 20;
  config.p_prepared_abort = 0.15;
  const RunResult r = Driver::Run(config);
  EXPECT_EQ(r.metrics.global_committed + r.metrics.global_aborted,
            config.target_global_txns);
  EXPECT_TRUE(r.replay_consistent) << r.replay_error;
  EXPECT_NE(r.verdict, history::Verdict::kNotSerializable)
      << r.verdict_detail;
}

INSTANTIATE_TEST_SUITE_P(Granularities, CgmSweep,
                         ::testing::Values(cgm::Granularity::kSite,
                                           cgm::Granularity::kTable,
                                           cgm::Granularity::kItem),
                         [](const auto& info) {
                           return cgm::GranularityName(info.param);
                         });

// --- non-rigorous LDBS (negative property) --------------------------------------

TEST(NonRigorousLdbs, CertifierAssumptionIsLoadBearing) {
  // The certifier's soundness rests on SRS. With a non-rigorous LDBS the
  // conflict-detection basis collapses: across a batch of contended runs
  // with failures, violations (or dirty-read replay inconsistencies) must
  // appear even with the full certifier — demonstrating the assumption is
  // necessary, not decorative.
  // Commit certification keeps CG acyclic even here, so the violations are
  // only visible to the *exact* oracle — which needs small histories: many
  // tiny, highly contended runs.
  int violations = 0;
  for (uint64_t seed = 600; seed < 640; ++seed) {
    WorkloadConfig config;
    config.seed = seed;
    config.rigorous_ltm = false;
    config.num_sites = 2;
    config.rows_per_table = 3;
    config.global_clients = 4;
    config.target_global_txns = 6;
    config.cmds_per_global_txn = 3;
    config.global_write_fraction = 0.5;
    config.p_prepared_abort = 0.2;
    const RunResult r = Driver::Run(config);
    if (!r.replay_consistent || !r.commit_graph_acyclic ||
        r.verdict == history::Verdict::kNotSerializable) {
      ++violations;
    }
  }
  EXPECT_GT(violations, 0);
}

// --- refused knob combinations ---------------------------------------------

WorkloadConfig ComposableConfig() {
  WorkloadConfig config;
  config.num_sites = 4;
  config.rows_per_table = 32;
  config.global_clients = 2;
  config.target_global_txns = 10;
  return config;
}

fault::FaultPlan OneEvent(fault::FaultKind kind) {
  fault::FaultEvent ev;
  ev.kind = kind;
  ev.site = 1;
  ev.peer = 2;
  ev.at = 5 * sim::kMillisecond;
  ev.duration = 10 * sim::kMillisecond;
  fault::FaultPlan plan;
  plan.events.push_back(ev);
  return plan;
}

struct Refusal {
  const char* name;
  std::function<void(WorkloadConfig&)> set;
  // Substrings the refusal must contain: the conflicting knobs.
  std::vector<std::string> knobs;
};

void UsePaxosCommit(WorkloadConfig& c) {
  c.protocol = consensus::ProtocolKind::kPaxosCommit;
}

const std::vector<Refusal>& Refusals() {
  static const std::vector<Refusal> refusals = {
      {"PaxosWithCsn",
       [](WorkloadConfig& c) {
         UsePaxosCommit(c);
         c.certifier = cert::CertifierKind::kCsn;
       },
       {"protocol=paxos-commit", "certifier=csn"}},
      {"PaxosWithShortCommit",
       [](WorkloadConfig& c) {
         UsePaxosCommit(c);
         c.short_commit = true;
       },
       {"protocol=paxos-commit", "short_commit"}},
      {"PaxosWithTooFewSites",
       [](WorkloadConfig& c) {
         UsePaxosCommit(c);
         c.paxos_f = 2;  // 5 acceptors on 4 sites
       },
       {"paxos_f=2", "num_sites=4"}},
      {"PaxosWithNegativeF",
       [](WorkloadConfig& c) {
         UsePaxosCommit(c);
         c.paxos_f = -1;
       },
       {"paxos_f=-1"}},
      {"CgmWithFaultPlan",
       [](WorkloadConfig& c) {
         c.system = System::kCGM;
         c.fault_plan = OneEvent(fault::FaultKind::kPartition);
       },
       {"system=CGM", "fault plan"}},
      {"CgmWithShards",
       [](WorkloadConfig& c) {
         c.system = System::kCGM;
         c.num_shards = 8;
       },
       {"system=CGM", "num_shards"}},
      {"CgmWithShortCommit",
       [](WorkloadConfig& c) {
         c.system = System::kCGM;
         c.short_commit = true;
       },
       {"system=CGM", "short_commit"}},
      {"CgmWithCsn",
       [](WorkloadConfig& c) {
         c.system = System::kCGM;
         c.certifier = cert::CertifierKind::kCsn;
       },
       {"system=CGM", "certifier=csn"}},
      {"CgmWithPaxos",
       [](WorkloadConfig& c) {
         c.system = System::kCGM;
         UsePaxosCommit(c);
       },
       {"system=CGM", "protocol=paxos-commit"}},
      {"CrashWithoutOrphanTimeout",
       [](WorkloadConfig& c) {
         c.fault_plan = OneEvent(fault::FaultKind::kCrashSite);
       },
       {"site crashes", "orphan_abort_timeout"}},
      {"NoSites", [](WorkloadConfig& c) { c.num_sites = 0; }, {"num_sites=0"}},
      {"NegativeShards",
       [](WorkloadConfig& c) { c.num_shards = -1; },
       {"num_shards=-1"}},
      {"MaxSitesBelowNumSites",
       [](WorkloadConfig& c) {
         c.num_shards = 8;
         c.max_sites = 2;
       },
       {"max_sites=2", "num_sites=4"}},
  };
  return refusals;
}

class RefusedCombination : public ::testing::TestWithParam<size_t> {
 protected:
  const Refusal& refusal() const { return Refusals()[GetParam()]; }
  WorkloadConfig Config() const {
    WorkloadConfig config = ComposableConfig();
    refusal().set(config);
    return config;
  }
  void ExpectNamesKnobs(const std::string& message) const {
    for (const std::string& knob : refusal().knobs) {
      EXPECT_NE(message.find(knob), std::string::npos)
          << "\"" << message << "\" does not name " << knob;
    }
  }
};

TEST_P(RefusedCombination, ValidateRefusesIt) {
  const Status status = Config().Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  ExpectNamesKnobs(status.message());
}

TEST_P(RefusedCombination, DriverRunsNothing) {
  const RunResult r = Driver::Run(Config());
  ExpectNamesKnobs(r.config_error);
  EXPECT_EQ(r.events, 0u);
  EXPECT_EQ(r.metrics.global_committed + r.metrics.global_aborted, 0);
  EXPECT_FALSE(r.history_checked);
  EXPECT_FALSE(r.GuaranteesHold());
}

TEST_P(RefusedCombination, RunAllStartsNoRun) {
  // A composable spec first: the refusal must come before any run starts,
  // so its flush hook never fires.
  int flushes = 0;
  runner::RunSpec ok;
  ok.cell = "composable";
  ok.config = ComposableConfig();
  ok.config.flush_interval = 1 * sim::kMillisecond;
  ok.config.flush_hook = [&flushes](const FlushSnapshot&) { ++flushes; };
  runner::RunSpec refused;
  refused.cell = StrCat("refused/", refusal().name);
  refused.config = Config();
  const auto outputs = runner::RunAll({ok, refused}, runner::SweepOptions{});
  ASSERT_FALSE(outputs.ok());
  EXPECT_EQ(outputs.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(outputs.status().message().find(refused.cell), std::string::npos)
      << outputs.status();
  ExpectNamesKnobs(outputs.status().message());
  EXPECT_EQ(flushes, 0);
}

INSTANTIATE_TEST_SUITE_P(Knobs, RefusedCombination,
                         ::testing::Range<size_t>(0, Refusals().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::string(Refusals()[info.param].name);
                         });

TEST(ComposedCombination, EveryCombinationACallerUsesValidates) {
  WorkloadConfig paxos = ComposableConfig();
  UsePaxosCommit(paxos);
  paxos.paxos_f = 1;  // 3 acceptors on 4 sites
  paxos.num_shards = 8;
  paxos.max_sites = 6;
  WorkloadConfig csn_short = ComposableConfig();
  csn_short.certifier = cert::CertifierKind::kCsn;
  csn_short.short_commit = true;
  WorkloadConfig cgm = ComposableConfig();
  cgm.system = System::kCGM;
  cgm.paxos_f = 3;  // ignored under 2PC
  WorkloadConfig crashes = ComposableConfig();
  crashes.fault_plan = OneEvent(fault::FaultKind::kCrashSite);
  crashes.orphan_abort_timeout = 800 * sim::kMillisecond;
  for (const WorkloadConfig& config : {paxos, csn_short, cgm, crashes}) {
    EXPECT_TRUE(config.Validate().ok()) << config.ToString();
  }
}

}  // namespace
}  // namespace hermes::workload
