// E20 — trace overhead sweep: {off, binary, binary + 1/16 sampling} x
// workload sizes.
//
// The claim behind the Tracer's binary ring is that always-on tracing is
// affordable: at the largest workload cell the traced run must cost < 5%
// of the untraced run's wall-clock time.
// Wall time is measured with std::chrono::steady_clock around
// Driver::Run only — the export (ToBinary) is timed separately
// and reported in its own column, because a live deployment serializes
// once per run, not per event. The timing grid always executes
// serially (workers would contend for cores and poison the clock);
// --workers only affects the determinism sub-grid.
//
// Correctness gates, all modes:
//  * every run passes the atomicity / order-invariant / serializability
//    oracles;
//  * committed and aborted counts are identical across all three modes
//    for every (size, seed) — tracing, whatever the sampling rate, must
//    never perturb the simulation;
//  * the critical-path report folded live from the tracer and the one
//    from its decoded binary export are byte-identical — the export
//    carries every event the analyses read;
//  * a serial and a 2-worker RunAll over binary-traced specs produce
//    byte-identical fingerprints and byte-identical MergeBinaryTraces
//    outputs;
//  * with 1/16 sampling, sampled_out > 0 and the tracer invariant
//    emitted == stored + sampled_out + dropped holds.
//
// The < 5% overhead gate is enforced only in full mode (--quick cells
// are too small for stable wall-clock ratios); quick mode still prints
// the measured overhead. The gate reads paired runs, not the grid: for
// each seed and repeat of the largest cell an untraced and a traced run
// go back to back (alternating which goes first), and the gate is the
// median of their wall-time ratios, so host drift between two blocks of
// runs does not decide it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"
#include "trace/binary.h"
#include "trace/critical_path.h"
#include "trace/span.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes::bench {

namespace {

struct OverheadMode {
  const char* name;
  bool traced;
  trace::TracerOptions options;
};

workload::WorkloadConfig OverheadConfig(uint64_t seed, int txns) {
  workload::WorkloadConfig config;
  config.seed = seed;
  config.num_sites = 4;
  config.rows_per_table = 128;
  config.global_clients = 8;
  config.target_global_txns = txns;
  config.sites_per_global_txn = 2;
  return config;
}

struct TimedRun {
  workload::RunResult result;
  trace::TracerStats stats;   // tracer counters (traced modes)
  std::string capture;        // export bytes (traced modes)
  double wall_ms = 0.0;       // best-of-repeats Driver::Run wall time
  double export_ms = 0.0;     // best-of-repeats ToBinary time
};

double Ms(std::chrono::steady_clock::duration d) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(d)
                 .count()) /
         1e6;
}

// Runs the config `repeats` times under `mode`'s tracer and keeps the
// fastest wall time (the repeats are byte-identical by determinism, so
// min is a noise filter, not a choice of result).
TimedRun RunTimed(const OverheadMode& mode,
                  const workload::WorkloadConfig& base, int repeats) {
  TimedRun out;
  for (int r = 0; r < repeats; ++r) {
    workload::WorkloadConfig config = base;
    std::optional<trace::Tracer> tracer;
    if (mode.traced) {
      tracer.emplace(mode.options);
      config.tracer = &*tracer;
    }
    const auto start = std::chrono::steady_clock::now();
    workload::RunResult result = workload::Driver::Run(config);
    const auto ran = std::chrono::steady_clock::now();
    std::string capture;
    if (tracer.has_value()) capture = tracer->ToBinary();
    const auto exported = std::chrono::steady_clock::now();
    const double wall = Ms(ran - start);
    if (r == 0 || wall < out.wall_ms) {
      out.wall_ms = wall;
      out.export_ms = Ms(exported - ran);
      out.result = std::move(result);
      if (tracer.has_value()) out.stats = tracer->stats();
      out.capture = std::move(capture);
    }
  }
  return out;
}

// Median over seeds x repeats of traced/untraced wall time, each pair run
// back to back, as a percentage overhead.
double PairedOverheadPct(const OverheadMode& off, const OverheadMode& traced,
                         int txns, int num_seeds, int repeats) {
  std::vector<double> ratios;
  for (int s = 0; s < num_seeds; ++s) {
    const workload::WorkloadConfig config =
        OverheadConfig(7100 + static_cast<uint64_t>(s), txns);
    for (int r = 0; r < repeats; ++r) {
      const bool off_first = (s * repeats + r) % 2 == 0;
      double off_ms = 0.0;
      double traced_ms = 0.0;
      for (int side = 0; side < 2; ++side) {
        if ((side == 0) == off_first) {
          off_ms = RunTimed(off, config, 1).wall_ms;
        } else {
          traced_ms = RunTimed(traced, config, 1).wall_ms;
        }
      }
      if (off_ms > 0.0) ratios.push_back(traced_ms / off_ms);
    }
  }
  if (ratios.empty()) return 0.0;
  std::sort(ratios.begin(), ratios.end());
  const size_t n = ratios.size();
  const double median = n % 2 == 1
                            ? ratios[n / 2]
                            : (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0;
  return (median - 1.0) * 100.0;
}

}  // namespace

int RunTraceOverheadSweep(const SweepArgs& args) {
  const std::vector<int> sizes =
      args.quick ? std::vector<int>{120} : std::vector<int>{200, 800, 3000};
  const int num_seeds = args.quick ? 2 : 3;
  const int repeats = args.quick ? 1 : 3;

  const trace::TracerOptions binary_opts;
  trace::TracerOptions sampled_opts = binary_opts;
  sampled_opts.sample_period = 16;
  sampled_opts.sample_seed = 0xE20;
  const std::vector<OverheadMode> modes = {
      {"off", false, {}},
      {"binary", true, binary_opts},
      {"binary_s16", true, sampled_opts},
  };

  std::printf(
      "E20 — trace overhead: {off, binary, binary+1/16-sampling} x "
      "workload size\n(4 sites, 8 global clients, %d seeds per cell, "
      "best-of-%d wall timing around Driver::Run only, timing grid always "
      "serial%s)\n\n",
      num_seeds, repeats, args.quick ? ", quick" : "");

  runner::Aggregator agg;
  std::string base_config;
  bool all_ok = true;

  // wall/export totals per (size, mode index), summed over seeds.
  std::map<std::pair<int, size_t>, double> wall_ms;
  std::map<std::pair<int, size_t>, double> export_ms;

  for (int txns : sizes) {
    // Per-seed decided counts of the off cell, the reference the traced
    // modes must reproduce exactly.
    std::vector<int64_t> ref_committed(static_cast<size_t>(num_seeds), -1);
    std::vector<int64_t> ref_aborted(static_cast<size_t>(num_seeds), -1);
    for (size_t m = 0; m < modes.size(); ++m) {
      const OverheadMode& mode = modes[m];
      const std::string cell = StrCat(mode.name, "/", txns);
      for (int s = 0; s < num_seeds; ++s) {
        const workload::WorkloadConfig config =
            OverheadConfig(7100 + static_cast<uint64_t>(s), txns);
        if (base_config.empty()) base_config = config.ToString();
        TimedRun run = RunTimed(mode, config, repeats);
        wall_ms[{txns, m}] += run.wall_ms;
        export_ms[{txns, m}] += run.export_ms;

        bool ok = run.result.GuaranteesHold();
        if (!ok) {
          std::fprintf(stderr, "oracle: %s seed=%d violated (%s%s%s)\n",
                       cell.c_str(), s, run.result.atomicity_error.c_str(),
                       run.result.order_invariant_error.c_str(),
                       run.result.verdict_detail.c_str());
        }
        const int64_t committed = run.result.metrics.global_committed;
        const int64_t aborted = run.result.metrics.global_aborted;
        if (m == 0) {
          ref_committed[static_cast<size_t>(s)] = committed;
          ref_aborted[static_cast<size_t>(s)] = aborted;
        } else if (committed != ref_committed[static_cast<size_t>(s)] ||
                   aborted != ref_aborted[static_cast<size_t>(s)]) {
          ok = false;
          std::fprintf(stderr,
                       "perturbation: %s seed=%d decided %lld/%lld, off "
                       "decided %lld/%lld — tracing changed the run\n",
                       cell.c_str(), s,
                       static_cast<long long>(committed),
                       static_cast<long long>(aborted),
                       static_cast<long long>(
                           ref_committed[static_cast<size_t>(s)]),
                       static_cast<long long>(
                           ref_aborted[static_cast<size_t>(s)]));
        }
        if (mode.traced) {
          // Tracer accounting invariant: every emitted event is stored,
          // sampled out, or dropped by the ring.
          const int64_t stored = run.stats.emitted -
                                 run.stats.sampled_out - run.stats.dropped;
          if (stored < 0 ||
              run.result.metrics.trace_events_emitted !=
                  run.stats.emitted ||
              run.result.metrics.trace_sampled_out !=
                  run.stats.sampled_out) {
            ok = false;
            std::fprintf(stderr,
                         "accounting: %s seed=%d emitted=%lld "
                         "sampled_out=%lld dropped=%lld\n",
                         cell.c_str(), s,
                         static_cast<long long>(run.stats.emitted),
                         static_cast<long long>(run.stats.sampled_out),
                         static_cast<long long>(run.stats.dropped));
          }
          if (mode.options.sample_period > 1 &&
              run.stats.sampled_out == 0) {
            ok = false;
            std::fprintf(stderr,
                         "sampling: %s seed=%d sampled nothing out\n",
                         cell.c_str(), s);
          }
        }
        all_ok = all_ok && ok;

        agg.AddRun(cell, config.seed, run.result);
        runner::CellAggregate& aggregate = agg.Cell(cell);
        aggregate.Add("wall_ms", run.wall_ms);
        aggregate.Add("export_ms", run.export_ms);
        aggregate.Add("trace_bytes",
                      static_cast<double>(run.capture.size()));
      }
    }
  }

  // Export round trip: for the first seed of every size, the
  // critical-path report folded live from the tracer must be
  // byte-identical to the one from its decoded binary export.
  bool export_agrees = true;
  for (int txns : sizes) {
    workload::WorkloadConfig config = OverheadConfig(7100, txns);
    trace::Tracer tracer;
    config.tracer = &tracer;
    workload::Driver::Run(config);
    Result<std::vector<trace::Event>> decoded =
        trace::ParseBinary(tracer.ToBinary());
    if (!decoded.ok()) {
      std::fprintf(stderr, "export parse (%d txns): %s\n", txns,
                   decoded.status().ToString().c_str());
      export_agrees = false;
      continue;
    }
    const std::string live =
        trace::AnalyzeCriticalPath(trace::BuildSpanForest(tracer)).ToString();
    const std::string from_export =
        trace::AnalyzeCriticalPath(trace::BuildSpanForest(*decoded))
            .ToString();
    if (live != from_export) {
      export_agrees = false;
      std::fprintf(stderr,
                   "export divergence (%d txns): critical-path report "
                   "differs between the live tracer and its binary "
                   "export\n",
                   txns);
    }
  }
  all_ok = all_ok && export_agrees;

  // Determinism sub-grid: binary-traced specs through RunAll serially and
  // on 2 workers — per-run fingerprints and the deterministic multi-run
  // merge must be byte-identical.
  std::vector<runner::RunSpec> det;
  for (int s = 0; s < num_seeds; ++s) {
    runner::RunSpec spec;
    spec.cell = "det";
    spec.config = OverheadConfig(7100 + static_cast<uint64_t>(s),
                                 sizes.front());
    spec.capture_trace = true;
    spec.trace_options = binary_opts;
    det.push_back(spec);
  }
  det.back().trace_options = sampled_opts;
  Result<DeterminismRuns> det_runs = RunDeterminismGrid(det, "binary-traced");
  if (!det_runs.ok()) return 2;
  bool deterministic = det_runs->identical;
  Result<std::string> merged_serial =
      runner::MergeBinaryTraces(det_runs->serial);
  Result<std::string> merged_parallel =
      runner::MergeBinaryTraces(det_runs->parallel);
  if (!merged_serial.ok() || !merged_parallel.ok()) {
    std::fprintf(stderr, "harness: MergeBinaryTraces failed: %s\n",
                 (merged_serial.ok() ? merged_parallel : merged_serial)
                     .status()
                     .ToString()
                     .c_str());
    return 2;
  }
  if (*merged_serial != *merged_parallel) {
    deterministic = false;
    std::fprintf(stderr,
                 "determinism: merged binary trace differs between serial "
                 "and 2-worker sweeps\n");
  }
  all_ok = all_ok && deterministic;

  // Table + the headline overhead gate.
  TablePrinter table({"cell", "committed", "aborted", "events",
                      "sampled out", "trace KB", "wall ms", "export ms",
                      "overhead %", "status"});
  const int largest = sizes.back();
  for (int txns : sizes) {
    const double off_wall = wall_ms[{txns, 0}];
    for (size_t m = 0; m < modes.size(); ++m) {
      const std::string cell = StrCat(modes[m].name, "/", txns);
      runner::CellAggregate& aggregate = agg.Cell(cell);
      const double wall = wall_ms[{txns, m}];
      const double overhead_pct =
          m == 0 || off_wall <= 0.0
              ? 0.0
              : (wall - off_wall) / off_wall * 100.0;
      aggregate.Add("overhead_pct", overhead_pct);
      table.AddRow(
          cell, static_cast<int64_t>(aggregate.Sum("committed")),
          static_cast<int64_t>(aggregate.Sum("aborted")),
          static_cast<int64_t>(aggregate.Sum("trace_emitted")),
          static_cast<int64_t>(aggregate.Sum("trace_sampled_out")),
          Fixed2(aggregate.Sum("trace_bytes") / 1024.0), Fixed2(wall),
          Fixed2(export_ms[{txns, m}]), Fixed2(overhead_pct),
          all_ok ? "OK" : "VIOLATED");
    }
  }

  // The acceptance gate: at the largest cell the binary tracer costs
  // < 5% of the untraced run, as the median of paired ratios. Quick cells
  // are milliseconds long, so the ratio is noise there — report it but
  // only gate the full sweep.
  const double binary_overhead_at_largest =
      PairedOverheadPct(modes[0], modes[1], largest, num_seeds, repeats);
  agg.Cell(StrCat(modes[1].name, "/", largest))
      .Add("paired_overhead_pct", binary_overhead_at_largest);
  const bool overhead_ok = binary_overhead_at_largest < 5.0;
  if (!args.quick && !overhead_ok) {
    std::fprintf(stderr,
                 "overhead gate: binary tracing cost %.2f%% at the %d-txn "
                 "cell (budget 5%%)\n",
                 binary_overhead_at_largest, largest);
    all_ok = false;
  }

  // Export the merged binary trace (tmstat reads it directly) and the
  // first determinism run's Prometheus metrics; a failed write fails the
  // sweep.
  bool exported = true;
  if (!args.trace_out.empty()) {
    exported = WriteFile(args.trace_out, *merged_serial) &&
               WriteFile(StrCat(args.trace_out, ".prom"),
                         det_runs->serial[0].result.PrometheusText());
    if (!exported) {
      std::fprintf(stderr, "trace export: could not write %s\n",
                   args.trace_out.c_str());
    } else {
      std::printf("trace: %s (binary)\nmetrics: %s.prom\n",
                  args.trace_out.c_str(), args.trace_out.c_str());
    }
  }

  const int rc = FinishSweep("E20_trace_overhead", base_config, 7100,
                             args.workers, table, agg);
  std::printf(
      "\nExpected shape: all three modes decide the same transactions on "
      "every\nseed (tracing never perturbs the run), the live tracer and "
      "its binary\nexport yield byte-identical critical-path reports, and "
      "at the largest\ncell the binary tracer costs %.2f%% wall time "
      "(median of paired runs;\nbudget 5%%%s). Determinism sub-grid incl. "
      "merged binary trace: %s.\n",
      binary_overhead_at_largest,
      args.quick ? ", gated in full mode only" : ", gated",
      deterministic ? "byte-identical" : "DIVERGED");
  if (!all_ok || !exported) return 1;
  return rc;
}

}  // namespace hermes::bench
