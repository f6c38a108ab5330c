// E5 — commit/abort behavior under unilateral aborts (paper sections 1, 4).
//
// Sweeps the probability that an LDBS unilaterally aborts a prepared
// subtransaction; several seeds per probability are fanned out through the
// runner and aggregated per cell. The paper's guarantee: the history
// column must never show a violation for the full certifier.

#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

namespace hermes::bench {

int RunFailureSweep(const SweepArgs& args) {
  const int num_seeds = args.quick ? 1 : 3;
  const int txns = args.quick ? 60 : 120;
  std::printf(
      "E5 — commit/abort behavior vs unilateral-abort probability\n"
      "(4 sites, 8 global clients, 1 local client/site, full certifier%s)\n\n",
      args.quick ? ", quick" : "");

  const double probs[] = {0.0, 0.05, 0.1, 0.2, 0.35, 0.5};
  std::vector<runner::RunSpec> specs;
  std::string base_config;
  for (double p : probs) {
    for (int s = 0; s < num_seeds; ++s) {
      runner::RunSpec spec;
      spec.cell = StrCat("p_fail=", Fixed2(p));
      spec.config.seed = 42 + static_cast<uint64_t>(p * 100) +
                         static_cast<uint64_t>(s) * 1000;
      spec.config.num_sites = 4;
      spec.config.rows_per_table = 64;
      spec.config.global_clients = 8;
      spec.config.local_clients_per_site = 1;
      spec.config.target_global_txns = txns;
      spec.config.p_prepared_abort = p;
      // Every run is traced: the cells carry critical-path phase stats
      // and the merged virtual-time series.
      spec.capture_trace = true;
      if (base_config.empty()) base_config = spec.config.ToString();
      specs.push_back(std::move(spec));
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"p_fail", "committed", "aborted", "resub",
                      "refuse ivl", "refuse ext", "refuse dead",
                      "commit retries", "dml us", "prep us", "cert us",
                      "dec us", "tput/s", "p50 ms", "p95 ms",
                      "p99 ms", "history"});
  bool all_ok = true;
  for (size_t c = 0; c < agg.cells().size(); ++c) {
    const runner::CellAggregate& cell = agg.cells()[c];
    const bool ok = cell.Sum("violations") == 0;
    all_ok = all_ok && ok;
    table.AddRow(probs[c], static_cast<int64_t>(cell.Sum("committed")),
                 static_cast<int64_t>(cell.Sum("aborted")),
                 static_cast<int64_t>(cell.Sum("resubmissions")),
                 static_cast<int64_t>(cell.Sum("refuse_interval")),
                 static_cast<int64_t>(cell.Sum("refuse_extension")),
                 static_cast<int64_t>(cell.Sum("refuse_dead")),
                 static_cast<int64_t>(cell.Sum("commit_cert_retries")),
                 cell.Mean("phase_dml_us"), cell.Mean("phase_prepare_us"),
                 cell.Mean("phase_certify_us"),
                 cell.Mean("phase_decision_us"),
                 cell.Mean("tput"), cell.latency.PercentileMs(50),
                 cell.latency.PercentileMs(95),
                 cell.latency.PercentileMs(99), ok ? "VSR" : "VIOLATED");
  }

  // Export, for tmstat, the run with the most certification refusals,
  // the latest (highest p_fail) on a tie: its trace shows a REFUSE.
  const auto refusals = [](const runner::RunOutput& out) {
    const core::Metrics& m = out.result.metrics;
    return m.refuse_interval + m.refuse_extension + m.refuse_dead;
  };
  const runner::RunOutput* most_refused = &outputs->front();
  for (const runner::RunOutput& out : *outputs) {
    if (refusals(out) >= refusals(*most_refused)) most_refused = &out;
  }
  const bool exported =
      args.trace_out.empty() ||
      WriteTraceArtifacts(args.trace_out, *most_refused);

  const int rc =
      FinishSweep("failure_sweep", base_config, 42,
                  args.workers, table, agg);
  std::printf(
      "\nExpected shape: resubmissions and interval-refusals grow with the\n"
      "failure rate; throughput degrades gracefully; the history column\n"
      "never reports a violation (CG acyclic / view serializable).\n");
  if (!all_ok || !exported) return 1;
  return rc;
}

}  // namespace hermes::bench
