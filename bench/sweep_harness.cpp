// E14 — the harness itself: parallel speedup and determinism.
//
// Runs the same multi-seed grid serially and with increasing worker
// counts, timing each sweep (wall clock) and verifying that every run's
// fingerprint — the full binary trace capture plus all metrics and oracle
// verdicts — is byte-identical to the serial execution. Simulated runs
// are pure functions of their config, so worker count must never change
// a single byte of output; this sweep is the executable proof.
//
// Here `--workers=N` sets the largest worker count tried: N if N > 1,
// else 8. Gate: every parallel execution matches the serial one.

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

namespace hermes::bench {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::vector<runner::RunSpec> BuildGrid(int seed_count, int txns) {
  std::vector<runner::RunSpec> specs;
  for (int s = 0; s < seed_count; ++s) {
    runner::RunSpec spec;
    spec.cell = "grid";
    spec.capture_trace = true;
    spec.config.seed = 4242 + static_cast<uint64_t>(s);
    spec.config.num_sites = 4;
    spec.config.rows_per_table = 64;
    spec.config.global_clients = 8;
    spec.config.local_clients_per_site = 1;
    spec.config.target_global_txns = txns;
    spec.config.p_prepared_abort = 0.1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

int RunHarnessSweep(const SweepArgs& args) {
  const int seed_count = args.quick ? 8 : 32;
  const int txns = args.quick ? 40 : 120;
  const int max_workers = args.workers > 1 ? args.workers : 8;

  std::printf(
      "E14 — harness speedup and determinism (%d seeds, %d txns/run,\n"
      "4 sites, 8 global clients, p_fail=0.10, traces captured;\n"
      "hardware threads: %u)\n\n",
      seed_count, txns, std::thread::hardware_concurrency());

  const std::vector<runner::RunSpec> specs = BuildGrid(seed_count, txns);

  const Clock::time_point serial_start = Clock::now();
  Result<std::vector<runner::RunOutput>> serial =
      runner::RunAll(specs, {.workers = 1});
  const double serial_ms = ElapsedMs(serial_start);
  if (!serial.ok()) {
    std::fprintf(stderr, "harness: %s\n", serial.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> expected;
  for (const runner::RunOutput& out : *serial) {
    expected.push_back(runner::Fingerprint(out));
  }

  TablePrinter table({"workers", "wall ms", "speedup", "identical"});
  table.AddRow(1, serial_ms, 1.0, "yes");

  bool all_identical = true;
  for (int workers = 2; workers <= max_workers; workers *= 2) {
    const Clock::time_point start = Clock::now();
    Result<std::vector<runner::RunOutput>> parallel =
        runner::RunAll(specs, {.workers = workers});
    const double ms = ElapsedMs(start);
    if (!parallel.ok()) {
      std::fprintf(stderr, "harness: %s\n",
                   parallel.status().ToString().c_str());
      return 2;
    }
    bool identical = parallel->size() == expected.size();
    for (size_t i = 0; identical && i < expected.size(); ++i) {
      identical = runner::Fingerprint((*parallel)[i]) == expected[i];
    }
    all_identical = all_identical && identical;
    table.AddRow(workers, ms, ms > 0 ? serial_ms / ms : 0.0,
                 identical ? "yes" : "NO");
  }

  runner::Aggregator agg;
  for (size_t i = 0; i < specs.size(); ++i) {
    agg.AddRun(specs[i].cell, specs[i].config.seed, (*serial)[i].result);
  }
  const int rc = FinishSweep(
      "harness", StrCat(seed_count, " seeds, ", specs[0].config.ToString()),
      4242, args.workers, table, agg);

  std::printf(
      "\nExpected shape: speedup approaches the worker count until it hits\n"
      "the hardware thread count; the identical column must always say\n"
      "yes (bit-for-bit deterministic runs regardless of scheduling).\n");
  if (!all_identical) {
    std::fprintf(stderr, "E14: DETERMINISM VIOLATION\n");
    return 1;
  }
  return rc;
}

}  // namespace hermes::bench
