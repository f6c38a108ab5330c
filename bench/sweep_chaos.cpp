// E15 — chaos sweep: randomized declarative fault plans against the full
// crash-recovery stack.
//
// Sweeps crash intensity (crashes per plan) over a grid of workload seeds
// and generated plan variants: every run injects a seeded FaultPlan — site
// crashes (timed and triggered on the prepared state), partitions and loss
// bursts — on top of a mildly lossy network. Every run is then checked
// post hoc by the global-atomicity oracle and the view-serializability
// checker; a small sub-grid is re-executed serially and on 2 workers to
// prove the fault machinery keeps runs byte-for-byte deterministic
// (runner::Fingerprint, trace included).

#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "fault/fault_plan.h"
#include "runner/runner.h"

namespace hermes::bench {

namespace {

// One spec of the chaos grid: workload seed x plan variant x intensity.
runner::RunSpec ChaosSpec(uint64_t seed, uint64_t plan_seed, int crashes,
                          int txns) {
  runner::RunSpec spec;
  spec.cell = StrCat("crashes=", crashes);
  spec.config.seed = seed;
  spec.config.num_sites = 3;
  spec.config.rows_per_table = 64;
  spec.config.global_clients = 4;
  spec.config.target_global_txns = txns;
  spec.config.net_loss_prob = 0.02;
  // Transactions orphaned while their coordinating site is down abort
  // unilaterally instead of pinning locks forever; prepared ones keep
  // probing (blocking is the protocol's obligation, not the workload's).
  spec.config.orphan_abort_timeout = 800 * sim::kMillisecond;
  // Let post-crash redeliveries, resubmissions and inquiries settle
  // before the oracles judge the history.
  spec.config.drain_grace = 2 * sim::kSecond;

  fault::ChaosOptions opts;
  opts.num_sites = spec.config.num_sites;
  opts.horizon = 5 * sim::kSecond;
  opts.crashes = crashes;
  opts.partitions = 1;
  opts.loss_bursts = 1;
  spec.config.fault_plan = fault::GenerateChaosPlan(plan_seed, opts);
  return spec;
}

}  // namespace

int RunChaosSweep(const SweepArgs& args) {
  const int num_seeds = args.quick ? 2 : 8;
  const int num_plans = args.quick ? 4 : 7;
  const int txns = args.quick ? 60 : 120;
  const std::vector<int> intensities =
      args.quick ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 4};
  std::printf(
      "E15 — chaos sweep: randomized fault plans vs crash intensity\n"
      "(3 sites, 4 global clients, loss=2%%, %d seeds x %d plans per cell, "
      "atomicity + serializability checked per run%s)\n\n",
      num_seeds, num_plans, args.quick ? ", quick" : "");

  std::vector<runner::RunSpec> specs;
  std::string base_config;
  for (int crashes : intensities) {
    for (int s = 0; s < num_seeds; ++s) {
      for (int p = 0; p < num_plans; ++p) {
        const uint64_t seed = 7000 + static_cast<uint64_t>(s);
        const uint64_t plan_seed = 100 * static_cast<uint64_t>(crashes) +
                                   10 * static_cast<uint64_t>(p) +
                                   static_cast<uint64_t>(s);
        specs.push_back(ChaosSpec(seed, plan_seed, crashes, txns));
        // Trace the first plan variant of every (intensity, seed) point:
        // enough coverage for per-cell phase/blocking stats and the merged
        // time series without holding all few-hundred traces in memory.
        specs.back().capture_trace = p == 0;
        if (base_config.empty()) base_config = specs.back().config.ToString();
      }
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"crashes/plan", "committed", "aborted", "crash abrt",
                      "site crashes", "redelivered", "inquiries",
                      "presumed abrt", "resub", "dec us", "blk win",
                      "blk max ms", "tput/s", "p95 ms", "history"});
  bool all_ok = true;
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
    table.AddRow(intensities[c], committed, aborted,
                 static_cast<int64_t>(cell.Sum("aborted_crash")),
                 static_cast<int64_t>(cell.Sum("coordinator_crashes")),
                 static_cast<int64_t>(cell.Sum("redelivered_decisions")),
                 static_cast<int64_t>(cell.Sum("inquiries")),
                 static_cast<int64_t>(cell.Sum("inquiries_presumed_abort")),
                 static_cast<int64_t>(cell.Sum("resubmissions")),
                 cell.Mean("phase_decision_us"),
                 static_cast<int64_t>(cell.Sum("blocked_windows")),
                 cell.Mean("blocked_max_us") / 1000.0,
                 cell.Mean("tput"), cell.latency.PercentileMs(95),
                 ok ? "ATOMIC+VSR" : "VIOLATED");
  }

  // Determinism sub-grid: the first run of every cell, traced, serially
  // and on 2 workers — fingerprints must match byte for byte.
  std::vector<runner::RunSpec> det;
  for (size_t c = 0; c < intensities.size(); ++c) {
    runner::RunSpec spec = specs[c * static_cast<size_t>(num_seeds) *
                                 static_cast<size_t>(num_plans)];
    spec.capture_trace = true;
    det.push_back(std::move(spec));
  }
  Result<DeterminismRuns> det_runs = RunDeterminismGrid(det, "chaos");
  if (!det_runs.ok()) return 2;
  all_ok = all_ok && det_runs->identical;

  // Export the highest-intensity traced run for tmstat / Perfetto.
  const bool exported =
      args.trace_out.empty() ||
      WriteTraceArtifacts(args.trace_out, det_runs->serial.back());

  const int rc =
      FinishSweep("E15_chaos", base_config, 7000, args.workers, table, agg);
  std::printf(
      "\nExpected shape: crash aborts, redelivered decisions and inquiry\n"
      "traffic grow with the crash intensity while the history column\n"
      "never reports a violation — the force-written decision log plus the\n"
      "presumed-abort inquiry path keep every decided transaction atomic.\n"
      "Determinism sub-grid: serial == 2 workers, %s.\n",
      det_runs->identical ? "byte-identical" : "DIVERGED");
  if (!all_ok || !exported) return 1;
  return rc;
}

}  // namespace hermes::bench
