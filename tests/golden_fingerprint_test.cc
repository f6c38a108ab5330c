// Golden fingerprints: small runs shaped like the three benchmark workloads
// (perfbench/workloads.cc), plus runs through what none of them reaches
// (CSN crash recovery, a shard handoff, 2PC retransmission over a lossy
// network, CGM's coordinator hooks), seeds 1-3, must reproduce pinned
// digests of runner::Fingerprint. A refactor or a speed-up
// that claims to keep behaviour keeps every value here. A change that
// alters behaviour on purpose updates the values and says why in
// CHANGES.md.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "cert/certifier.h"
#include "cgm/global_locks.h"
#include "consensus/decision.h"
#include "fault/fault_plan.h"
#include "runner/runner.h"
#include "workload/config.h"

namespace hermes {
namespace {

using runner::RunSpec;

// FNV-1a, 64 bit, as hex.
std::string Digest(const std::string& text) {
  uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

// oracle_4site: 4 sites, local transactions, unilateral aborts, history on.
RunSpec Oracle4Site(uint64_t seed) {
  RunSpec spec;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 4;
  c.rows_per_table = 128;
  c.global_clients = 8;
  c.local_clients_per_site = 1;
  c.cmds_per_global_txn = 4;
  c.sites_per_global_txn = 2;
  c.global_write_fraction = 0.5;
  c.p_prepared_abort = 0.05;
  c.record_history = true;
  c.target_global_txns = 200;
  return spec;
}

// wide_256site: 256 sites, failure-free, history off.
RunSpec Wide256Site(uint64_t seed) {
  RunSpec spec;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 256;
  c.rows_per_table = 128;
  c.global_clients = 512;
  c.local_clients_per_site = 0;
  c.sites_per_global_txn = 2;
  c.record_history = false;
  c.target_global_txns = 1000;
  c.lock_wait_timeout = 100 * sim::kMillisecond;
  return spec;
}

// chaos_paxos_16site: Paxos Commit, 1% loss, hot keys, unilateral aborts,
// history on and a binary trace capture.
RunSpec ChaosPaxos16Site(uint64_t seed) {
  RunSpec spec;
  spec.capture_trace = true;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 16;
  c.rows_per_table = 64;
  c.zipf_theta = 0.9;
  c.global_write_fraction = 0.2;
  c.local_write_fraction = 0.2;
  c.global_clients = 32;
  c.local_clients_per_site = 1;
  c.p_prepared_abort = 0.1;
  c.net_loss_prob = 0.01;
  c.protocol = consensus::ProtocolKind::kPaxosCommit;
  c.paxos_f = 1;
  c.drain_grace = 2 * sim::kSecond;
  c.lock_wait_timeout = 100 * sim::kMillisecond;
  c.record_history = true;
  c.target_global_txns = 200;
  return spec;
}

// csn_2pc_crash: not a benchmark workload. CSN certification with the
// short-commit fast paths, unilateral aborts, and a crash of site 1 right
// after its 12th prepare, so that recovery re-enters in-doubt
// subtransactions (1, 3 and 3 of them for seeds 1-3) and learns their
// CSNs again.
RunSpec CsnCrash4Site(uint64_t seed) {
  RunSpec spec;
  spec.capture_trace = true;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 4;
  c.rows_per_table = 64;
  c.global_clients = 8;
  c.local_clients_per_site = 1;
  c.single_site_fraction = 0.2;
  c.read_only_fraction = 0.2;
  c.p_prepared_abort = 0.1;
  c.certifier = cert::CertifierKind::kCsn;
  c.short_commit = true;
  c.orphan_abort_timeout = 200 * sim::kMillisecond;
  c.drain_grace = 2 * sim::kSecond;
  fault::FaultEvent crash;
  crash.trigger = fault::TriggerKind::kOnPrepared;
  crash.watch_site = 1;
  crash.nth = 12;
  crash.site = 1;
  crash.duration = 100 * sim::kMillisecond;
  c.fault_plan.events.push_back(crash);
  c.record_history = true;
  c.target_global_txns = 150;
  return spec;
}

// reconfig_add_2pc: not a benchmark workload. E19's add/2pc/sn cell
// (ReconfigSpec in bench/sweep_reconfig.cpp): a site joins a sharded
// 4-site federation at 150 ms. The forced handoff aborts active
// subtransactions and extracts prepared residue, stale-epoch messages are
// refused, and commands for keys whose shard moved are refused.
RunSpec ReconfigAdd2pc(uint64_t seed) {
  RunSpec spec;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 4;
  c.num_shards = 16;
  c.max_sites = 6;
  c.rows_per_table = 64;
  c.global_clients = 4;
  c.target_global_txns = 120;
  c.drain_grace = 1 * sim::kSecond;
  fault::FaultEvent add;
  add.kind = fault::FaultKind::kAddSite;
  add.at = 150 * sim::kMillisecond;
  c.fault_plan.events.push_back(add);
  return spec;
}

// lossy_2pc: not a benchmark workload. E13's loss=0.05 cell
// (bench/sweep_network_faults.cpp): 2PC over a network that loses,
// duplicates and reorders 5% of the messages each, so the coordinator
// retransmits steps, PREPAREs and decisions, and the agents absorb
// duplicates.
RunSpec Lossy2pc(uint64_t seed) {
  RunSpec spec;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 4;
  c.rows_per_table = 64;
  c.global_clients = 8;
  c.net_loss_prob = 0.05;
  c.net_dup_prob = 0.05;
  c.net_reorder_prob = 0.05;
  c.target_global_txns = 120;
  return spec;
}

// cgm_item: not a benchmark workload. The CGM baseline at item
// granularity, global transactions only: the coordinator's hooks take
// global locks before each step, wait in commit-graph admission before
// PREPARE and release at the end.
RunSpec CgmItem(uint64_t seed) {
  RunSpec spec;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 4;
  c.rows_per_table = 64;
  c.global_clients = 8;
  c.local_clients_per_site = 0;
  c.system = workload::System::kCGM;
  c.cgm_granularity = cgm::Granularity::kItem;
  c.target_global_txns = 120;
  return spec;
}

// paxos_crash: not a benchmark workload. E16's paxos F=1 cell (PaxosSpec
// in bench/sweep_paxos.cpp) with the plan seed equal to the workload seed:
// crash-only chaos on 5 sites kills coordinators mid-decision, so
// prepared agents escalate into elections, resolvers finish transactions
// at ballots above 0, and crashed sites rebuild their acceptors from the
// log.
RunSpec PaxosCrash(uint64_t seed) {
  RunSpec spec;
  spec.capture_trace = true;
  workload::WorkloadConfig& c = spec.config;
  c.seed = seed;
  c.num_sites = 5;
  c.rows_per_table = 64;
  c.global_clients = 4;
  c.target_global_txns = 60;
  c.net_loss_prob = 0.01;
  c.protocol = consensus::ProtocolKind::kPaxosCommit;
  c.paxos_f = 1;
  c.decision_inquiry_timeout = 40 * sim::kMillisecond;
  c.inquiry_retry_initial = 20 * sim::kMillisecond;
  c.inquiry_retry_max = 160 * sim::kMillisecond;
  c.orphan_abort_timeout = 800 * sim::kMillisecond;
  c.drain_grace = 2 * sim::kSecond;
  fault::ChaosOptions opts;
  opts.num_sites = c.num_sites;
  opts.horizon = 5 * sim::kSecond;
  opts.crashes = 3;
  opts.partitions = 0;
  opts.loss_bursts = 0;
  opts.min_downtime = 300 * sim::kMillisecond;
  opts.max_downtime = 800 * sim::kMillisecond;
  opts.triggered_fraction = 0.5;
  c.fault_plan = fault::GenerateChaosPlan(seed, opts);
  return spec;
}

// Recorded before the tombstone-free event heap, the inline event callbacks
// and the flat lock table went in; none of them changed a digest. The
// counted DLU bindings and the DLU back-out that keeps an earlier
// command's lock changed chaos_paxos_16site seeds 1 and 3. csn_2pc_crash
// was recorded with the CSN certifier's XID -> CSN log still in place;
// deleting it changed no digest. Every digest changed when commit
// certification stopped polling on a 5 ms timer and began committing a
// waiter at the instant its blocker leaves. Refusing, instead of delaying,
// a local update of bound data changed every digest of the three workloads
// with local transactions; wide_256site has none. Running the alive check
// on the UAN (a prepared subtransaction resubmits at the instant of its
// unilateral abort, not at the next 25 ms poll) changed oracle_4site seed
// 3, chaos_paxos_16site seeds 1-3 and csn_2pc_crash seeds 1-2. Reporting
// a global transaction to its client at the decision instead of at the
// last ACK changed every digest: each closed-loop client submits its next
// transaction one round trip sooner. Turning on the LTMs' wait-for-graph
// deadlock detection in every workload (a 10 ms search while a lock
// request waits) changed every digest again: each wait adds the search
// events, and a cycle inside one site ends in a victim abort instead of
// the 500 ms lock-wait timeout. reconfig_add_2pc was recorded before the
// agent became one state machine (one state per subtransaction, a
// transition table); that refactor changed no digest. lossy_2pc and
// cgm_item were recorded before the coordinator became one state machine
// (one state per global transaction, one send path per state). paxos_crash
// was recorded before Paxos Commit's leader and resolver became one state
// machine (one record per transaction, a transition table).
struct Golden {
  const char* workload;
  RunSpec (*make)(uint64_t seed);
  // Digests for seeds 1, 2 and 3.
  const char* digests[3];
};

const Golden kGolden[] = {
    {"oracle_4site",
     Oracle4Site,
     {"46a9146b7279c1ee", "7dd3010cadae1bcf", "332bb616d1567370"}},
    {"wide_256site",
     Wide256Site,
     {"35f9c63fa444ffc6", "6715f583b41822ef", "abd1be564f70ccb3"}},
    {"chaos_paxos_16site",
     ChaosPaxos16Site,
     {"f6f1dc7b637bd637", "1c6aef85a945323d", "e12b7f60dcd62a10"}},
    {"csn_2pc_crash",
     CsnCrash4Site,
     {"ae6713deea48418d", "7531c5417c11635a", "1c2ea84d227e9945"}},
    {"reconfig_add_2pc",
     ReconfigAdd2pc,
     {"0ddc7f66ad335592", "785e3e51165e352a", "18a51e0e271d93e1"}},
    {"lossy_2pc",
     Lossy2pc,
     {"f9eb6ea4e6c2bb66", "4a264a31dc74105a", "910d217211a85cbc"}},
    {"cgm_item",
     CgmItem,
     {"d91ffdbd44ec5ad5", "4087d8246204e965", "38a52748a01c9407"}},
    {"paxos_crash",
     PaxosCrash,
     {"7aa7f92a51505550", "fecb798f4c8f1333", "17f30231d4a9fe3b"}},
};

TEST(GoldenFingerprint, BenchmarkShapedRunsMatchPinnedDigests) {
  std::vector<RunSpec> specs;
  for (const Golden& g : kGolden) {
    for (uint64_t seed = 1; seed <= 3; ++seed) specs.push_back(g.make(seed));
  }
  Result<std::vector<runner::RunOutput>> outputs =
      runner::RunAll(specs, {.workers = 1});
  ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
  size_t i = 0;
  for (const Golden& g : kGolden) {
    for (int seed = 1; seed <= 3; ++seed, ++i) {
      const runner::RunOutput& out = (*outputs)[i];
      EXPECT_FALSE(out.result.event_budget_exhausted) << g.workload;
      EXPECT_EQ(Digest(runner::Fingerprint(out)), g.digests[seed - 1])
          << g.workload << " seed " << seed;
    }
  }
  // The entries that pin a path no benchmark workload takes reach it in
  // some seed: the forced handoff aborts an active subtransaction and a
  // stale-epoch message is refused; a 2PC coordinator retransmits; a CGM
  // commit waits in commit-graph admission; a Paxos Commit coordinator
  // crashes, a prepared agent escalates into an election, and a resolver
  // decides.
  const auto any_seed = [&](const char* workload, auto reached) {
    size_t j = 0;
    for (const Golden& g : kGolden) {
      for (int seed = 1; seed <= 3; ++seed, ++j) {
        if (std::string(g.workload) == workload &&
            reached((*outputs)[j].result.metrics)) {
          return true;
        }
      }
    }
    return false;
  };
  EXPECT_TRUE(any_seed("reconfig_add_2pc", [](const core::Metrics& m) {
    return m.reconfig_forced_aborts > 0;
  }));
  EXPECT_TRUE(any_seed("reconfig_add_2pc", [](const core::Metrics& m) {
    return m.epoch_refusals > 0;
  }));
  EXPECT_TRUE(any_seed("lossy_2pc", [](const core::Metrics& m) {
    return m.retransmits > 0;
  }));
  EXPECT_TRUE(any_seed("cgm_item", [](const core::Metrics& m) {
    return m.cgm_graph_rejections > 0;
  }));
  EXPECT_TRUE(any_seed("paxos_crash", [](const core::Metrics& m) {
    return m.paxos_elections > 0 && m.paxos_decided_resolved > 0 &&
           m.coordinator_crashes > 0;
  }));
}

}  // namespace
}  // namespace hermes
