// E16 — non-blocking commit: 2PC vs Paxos Commit under coordinator-crash
// chaos plans.
//
// Every cell runs the same seeded crash-heavy fault plans (half of the
// crashes triggered on the prepared state — the classic lost-decision
// window) against one decision protocol: plain 2PC, then Paxos Commit at
// F ∈ {0, 1, 2} (1, 3 and 5 acceptors on a 5-site federation). The paired
// grids expose the paper's trade: Paxos Commit pays more messages and
// acceptor force-writes per transaction but keeps the prepared blocking
// window short when the coordinator dies mid-decision, because any agent
// escalates its INQUIRY into an election and an acceptor-quorum read
// instead of waiting for the coordinator to come back. Every run is
// checked by the atomicity and view-serializability oracles, and a
// determinism sub-grid re-executes one traced run per cell serially and
// on 2 workers (fingerprints must match byte for byte).

#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "fault/fault_plan.h"
#include "runner/runner.h"

namespace hermes::bench {

namespace {

struct ProtocolVariant {
  const char* cell;
  consensus::ProtocolKind protocol;
  int f;  // acceptors = 2F+1; ignored under 2PC
};

// One spec of the paired grid: protocol variant x workload seed x plan.
runner::RunSpec PaxosSpec(const ProtocolVariant& v, uint64_t seed,
                          uint64_t plan_seed, int txns) {
  runner::RunSpec spec;
  spec.cell = v.cell;
  spec.config.seed = seed;
  spec.config.num_sites = 5;  // room for 2F+1 = 5 acceptors at F=2
  spec.config.rows_per_table = 64;
  spec.config.global_clients = 4;
  spec.config.target_global_txns = txns;
  spec.config.net_loss_prob = 0.01;
  spec.config.protocol = v.protocol;
  spec.config.paxos_f = v.f;
  // A tight inquiry schedule so prepared agents notice a dead coordinator
  // quickly; identical for both protocols (under 2PC faster probing
  // cannot unblock anyone — the answer is down with the coordinator).
  spec.config.decision_inquiry_timeout = 40 * sim::kMillisecond;
  spec.config.inquiry_retry_initial = 20 * sim::kMillisecond;
  spec.config.inquiry_retry_max = 160 * sim::kMillisecond;
  // As in E15: orphaned active subtransactions abort unilaterally,
  // prepared ones keep probing; generous drain so post-crash resolution
  // settles before the oracles judge the history.
  spec.config.orphan_abort_timeout = 800 * sim::kMillisecond;
  spec.config.drain_grace = 2 * sim::kSecond;

  // Crash-only chaos: long downtimes dominated by the prepared-state
  // trigger, the window where 2PC must block.
  fault::ChaosOptions opts;
  opts.num_sites = spec.config.num_sites;
  opts.horizon = 5 * sim::kSecond;
  opts.crashes = 3;
  opts.partitions = 0;
  opts.loss_bursts = 0;
  opts.min_downtime = 300 * sim::kMillisecond;
  opts.max_downtime = 800 * sim::kMillisecond;
  opts.triggered_fraction = 0.5;
  spec.config.fault_plan = fault::GenerateChaosPlan(plan_seed, opts);
  return spec;
}

}  // namespace

int RunPaxosSweep(const SweepArgs& args) {
  const int num_seeds = args.quick ? 2 : 6;
  const int num_plans = args.quick ? 3 : 6;
  const int txns = args.quick ? 50 : 100;
  const std::vector<ProtocolVariant> variants = {
      {"2pc", consensus::ProtocolKind::k2PC, 0},
      {"paxos F=0", consensus::ProtocolKind::kPaxosCommit, 0},
      {"paxos F=1", consensus::ProtocolKind::kPaxosCommit, 1},
      {"paxos F=2", consensus::ProtocolKind::kPaxosCommit, 2},
  };
  std::printf(
      "E16 — non-blocking commit: 2PC vs Paxos Commit under coordinator "
      "crashes\n(5 sites, 4 global clients, crash-only chaos plans, %d "
      "seeds x %d plans per cell, atomicity + serializability checked per "
      "run%s)\n\n",
      num_seeds, num_plans, args.quick ? ", quick" : "");

  std::vector<runner::RunSpec> specs;
  std::string base_config;
  for (const ProtocolVariant& v : variants) {
    for (int s = 0; s < num_seeds; ++s) {
      for (int p = 0; p < num_plans; ++p) {
        const uint64_t seed = 8200 + static_cast<uint64_t>(s);
        // Same plan seeds across variants: every protocol faces the
        // identical crash schedule, so the cells compare like for like.
        const uint64_t plan_seed =
            500 + 10 * static_cast<uint64_t>(p) + static_cast<uint64_t>(s);
        specs.push_back(PaxosSpec(v, seed, plan_seed, txns));
        // Trace the first plan variant of every (protocol, seed) point for
        // the per-cell phase and blocking-window stats.
        specs.back().capture_trace = p == 0;
        if (base_config.empty()) base_config = specs.back().config.ToString();
      }
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"protocol", "committed", "aborted", "crash abrt",
                      "msgs/txn", "forced wr", "elections", "resolved",
                      "fast", "cons us", "blk win", "blk p95 ms",
                      "blk max ms", "p95 ms", "history"});
  bool all_ok = true;
  double blocked_p95_2pc = 0.0;
  double blocked_p95_paxos_worst = 0.0;
  for (size_t c = 0; c < agg.cells().size(); ++c) {
    const runner::CellAggregate& cell = agg.cells()[c];
    const int64_t committed = static_cast<int64_t>(cell.Sum("committed"));
    const int64_t aborted = static_cast<int64_t>(cell.Sum("aborted"));
    bool ok = true;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].cell != cell.cell) continue;
      const workload::RunResult& r = (*outputs)[i].result;
      ok = ok && r.GuaranteesHold();
    }
    // Termination: every submitted transaction reached a decision even
    // with its coordinating site crashing mid-protocol.
    ok = ok && committed + aborted ==
                   static_cast<int64_t>(num_seeds) * num_plans * txns;
    all_ok = all_ok && ok;
    const double blocked_p95_ms = cell.Mean("blocked_p95_us") / 1000.0;
    if (variants[c].protocol == consensus::ProtocolKind::k2PC) {
      blocked_p95_2pc = blocked_p95_ms;
    } else if (variants[c].f >= 1 &&
               blocked_p95_ms > blocked_p95_paxos_worst) {
      blocked_p95_paxos_worst = blocked_p95_ms;
    }
    table.AddRow(
        cell.cell, committed, aborted,
        static_cast<int64_t>(cell.Sum("aborted_crash")),
        Fixed2(cell.Sum("messages") /
               static_cast<double>(committed + aborted > 0 ? committed + aborted
                                                           : 1)),
        static_cast<int64_t>(cell.Sum("paxos_forced_writes")),
        static_cast<int64_t>(cell.Sum("paxos_elections")),
        static_cast<int64_t>(cell.Sum("paxos_decided_resolved")),
        static_cast<int64_t>(cell.Sum("paxos_decided_fast")),
        cell.Mean("phase_consensus_us"),
        static_cast<int64_t>(cell.Sum("blocked_windows")), blocked_p95_ms,
        cell.Mean("blocked_max_us") / 1000.0, cell.latency.PercentileMs(95),
        ok ? "ATOMIC+VSR" : "VIOLATED");
  }

  // The paper's headline: with F >= 1 the prepared blocking window's tail
  // must shrink strictly below 2PC's under the same crash schedule.
  const bool non_blocking =
      blocked_p95_paxos_worst > 0.0 && blocked_p95_2pc > 0.0 &&
      blocked_p95_paxos_worst < blocked_p95_2pc;
  all_ok = all_ok && non_blocking;

  // Determinism sub-grid: the first run of every cell, traced, serially
  // and on 2 workers — fingerprints must match byte for byte.
  std::vector<runner::RunSpec> det;
  for (size_t c = 0; c < variants.size(); ++c) {
    runner::RunSpec spec = specs[c * static_cast<size_t>(num_seeds) *
                                 static_cast<size_t>(num_plans)];
    spec.capture_trace = true;
    det.push_back(std::move(spec));
  }
  Result<DeterminismRuns> det_runs = RunDeterminismGrid(det, "paxos");
  if (!det_runs.ok()) return 2;
  all_ok = all_ok && det_runs->identical;

  // Export the F=1 traced run for tmstat / Perfetto (consensus spans).
  const size_t pick = det.size() > 2 ? 2 : det.size() - 1;
  const bool exported =
      args.trace_out.empty() ||
      WriteTraceArtifacts(args.trace_out, det_runs->serial[pick]);

  const int rc =
      FinishSweep("E16_paxos", base_config, 8200, args.workers, table, agg);
  std::printf(
      "\nExpected shape: Paxos Commit pays more messages and forced writes\n"
      "per transaction (acceptor broadcast + 2b quorum), but with F >= 1\n"
      "the prepared blocking window's p95 stays well below 2PC's — an\n"
      "elected resolver reads the acceptor quorum instead of waiting out\n"
      "the coordinator's downtime. Non-blocking check (p95 paxos F>=1 "
      "%.2fms < 2pc %.2fms): %s.\n"
      "Determinism sub-grid: serial == 2 workers, %s.\n",
      blocked_p95_paxos_worst, blocked_p95_2pc,
      non_blocking ? "HOLDS" : "VIOLATED",
      det_runs->identical ? "byte-identical" : "DIVERGED");
  if (!all_ok || !exported) return 1;
  return rc;
}

}  // namespace hermes::bench
