// E7 — clock drift and serial numbers (paper section 5.2).
//
// Site clocks are skewed by ±skew (alternating per site); the table
// reports extension refusals (the paper's "unnecessary aborts") and the
// oracle verdict, which must stay serializable at every skew.

#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

namespace hermes::bench {

int RunClockDriftSweep(const SweepArgs& args) {
  const int txns = args.quick ? 60 : 120;
  std::printf(
      "E7 — unnecessary aborts vs clock skew (message latency 1 ms,\n"
      "so 4 message exchanges = 4 ms; skew alternates +/- per site%s)\n\n",
      args.quick ? "; quick" : "");

  const sim::Duration skews[] = {
      sim::Duration{0},      1 * sim::kMillisecond,  2 * sim::kMillisecond,
      4 * sim::kMillisecond, 16 * sim::kMillisecond, 64 * sim::kMillisecond};
  std::vector<runner::RunSpec> specs;
  for (sim::Duration skew : skews) {
    runner::RunSpec spec;
    spec.cell = StrCat("skew=", skew / sim::kMillisecond, "ms");
    spec.config.seed = 505;
    spec.config.num_sites = 4;
    spec.config.rows_per_table = 64;
    spec.config.global_clients = 8;
    spec.config.target_global_txns = txns;
    spec.config.clock_skew = skew;
    spec.config.p_prepared_abort = 0.05;  // some failures exercise recovery
    specs.push_back(std::move(spec));
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"skew ms", "skew/latency", "committed", "aborted",
                      "refuse ext", "commit retries", "tput/s", "history"});
  bool all_ok = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    const workload::RunResult& r = (*outputs)[i].result;
    // One cell per skew, in spec order.
    all_ok = all_ok && agg.cells()[i].Sum("violations") == 0;
    table.AddRow(static_cast<double>(skews[i]) / 1000.0,
                 static_cast<double>(skews[i]) / 1000.0,
                 r.metrics.global_committed, r.metrics.global_aborted,
                 r.metrics.refuse_extension, r.metrics.commit_cert_retries,
                 r.CommitsPerSecond(), VerdictCell(r));
  }

  const int rc = FinishSweep("clock_drift",
                             "4 sites, 8 global clients, p_fail=0.05, "
                             "alternating +/- skew",
                             505, args.workers, table, agg);
  std::printf(
      "\nExpected shape: correctness (history column) is unaffected by any\n"
      "skew; extension refusals and commit-certification retries rise once\n"
      "the skew exceeds a few message exchanges, costing only throughput.\n");
  if (!all_ok) return 1;
  return rc;
}

}  // namespace hermes::bench
