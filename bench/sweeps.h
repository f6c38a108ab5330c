// The sweep experiments of EXPERIMENTS.md (E5 ... E20), ported
// onto the parallel runner harness: every (config, seed) point of a grid
// becomes one runner::RunSpec, the whole grid fans out across worker
// threads, and per-cell aggregates feed both the printed table and the
// consolidated BENCH_<name>.json artifact (schema in docs/FORMATS.md).
//
// Each sweep is a function; bench_suite is the one binary that runs them
// (all, or a subset picked with --only).

#ifndef HERMES_BENCH_SWEEPS_H_
#define HERMES_BENCH_SWEEPS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "runner/aggregate.h"
#include "runner/runner.h"

namespace hermes::bench {

// SweepArgs / ParseSweepArgs live in bench/bench_util.h (included above)
// so non-sweep binaries share the same flag handling.

// Folds one traced run into the cell's critical-path phase stats
// (`phase_*_us`: mean virtual µs per committed transaction, including
// `phase_consensus_us` for Paxos Commit acceptor rounds) and prepared
// blocking-window stats (`blocked_windows` / `blocked_mean_us` /
// `blocked_p95_us` / `blocked_max_us`). `trace_binary` is the run's
// RunOutput::trace_binary, decoded with the strict trace::ParseBinary.
// No-op on an empty capture (an untraced run); returns false, after
// printing why, when the capture does not decode (the caller exits 2: the
// harness captured a broken trace). Stat names are documented in
// docs/FORMATS.md.
bool AddPhaseStats(runner::CellAggregate& cell,
                   const std::string& trace_binary);

// The determinism sub-grid every sweep with traced runs checks: `specs`
// run serially and on 2 workers, and each run's fingerprint must match
// byte for byte.
struct DeterminismRuns {
  std::vector<runner::RunOutput> serial;
  std::vector<runner::RunOutput> parallel;
  bool identical = true;  // every run's fingerprints matched
};
// Runs the sub-grid and reports each diverging run as "determinism:
// <what> run <i> (cell <cell>) diverged ...". An error means the harness
// itself failed (the caller exits 2); it is printed here.
Result<DeterminismRuns> RunDeterminismGrid(
    const std::vector<runner::RunSpec>& specs, const char* what);

// The --trace-out export of one traced run: decodes its binary capture
// and writes it to `path` as JSONL (one Event::AppendJson line per event),
// and the run's Prometheus metrics text to `<path>.prom`; prints the
// paths. Returns false, after printing why, when the capture does not
// decode or a file cannot be written — the sweep then exits 1, as for an
// unwritable BENCH_*.json.
bool WriteTraceArtifacts(const std::string& path,
                         const runner::RunOutput& run);

// `v` with two decimals, matching the table cell formatting.
std::string Fixed2(double v);

// Prints the table, writes the consolidated artifact (table rows plus the
// per-cell aggregates collected by `agg`) and returns 0, or 1 when the
// artifact could not be written.
int FinishSweep(const std::string& name, const std::string& config,
                uint64_t seed, int workers, const TablePrinter& table,
                const runner::Aggregator& agg);

// Each sweep prints its table, writes BENCH_<name>.json and returns a
// process exit code: 0 on success, 1 when a correctness guarantee was
// violated or an artifact (BENCH_*.json, --trace-out) could not be
// written, 2 when the harness itself failed.
int RunFailureSweep(const SweepArgs& args);        // E5
int RunScalingSweep(const SweepArgs& args);        // E6
int RunClockDriftSweep(const SweepArgs& args);     // E7
int RunCorrectnessSweep(const SweepArgs& args);    // E9
int RunNetworkFaultsSweep(const SweepArgs& args);  // E13
int RunChaosSweep(const SweepArgs& args);          // E15
int RunPaxosSweep(const SweepArgs& args);          // E16
int RunAblationMatrixSweep(const SweepArgs& args);  // E18
int RunReconfigSweep(const SweepArgs& args);        // E19
int RunTraceOverheadSweep(const SweepArgs& args);   // E20

// The sweep table bench_suite runs, in order. `exports_trace` marks the
// sweeps that write a representative trace to --trace-out; the others
// refuse the flag.
struct SweepEntry {
  const char* id;
  const char* name;
  int (*run)(const SweepArgs&);
  bool exports_trace;
};
inline constexpr SweepEntry kSweeps[] = {
    {"E5", "failure_sweep", RunFailureSweep, true},
    {"E6", "scaling", RunScalingSweep, false},
    {"E7", "clock_drift", RunClockDriftSweep, false},
    {"E9", "correctness_sweep", RunCorrectnessSweep, false},
    {"E13", "network_faults", RunNetworkFaultsSweep, false},
    {"E15", "chaos", RunChaosSweep, true},
    {"E16", "paxos", RunPaxosSweep, true},
    {"E18", "ablation_matrix", RunAblationMatrixSweep, true},
    {"E19", "reconfig", RunReconfigSweep, true},
    {"E20", "trace_overhead", RunTraceOverheadSweep, true},
};

// The usage error for a --trace-out that `who` cannot honour: prints it,
// naming the sweeps that do export a trace, and returns exit code 2.
int RefuseTraceOut(const std::string& who);

}  // namespace hermes::bench

#endif  // HERMES_BENCH_SWEEPS_H_
