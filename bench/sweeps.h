// The experiments of EXPERIMENTS.md (E1 ... E20), one function each. The
// workload sweeps run on the parallel runner harness: every (config,
// seed) point of a grid becomes one runner::RunSpec, the whole grid fans
// out across worker threads, and per-cell aggregates feed both the
// printed table and the consolidated BENCH_<name>.json artifact (schema in
// docs/FORMATS.md). The scripted experiments (E1/E2, E12) drive a
// core::Mdbs directly and write the same artifact, with no cells.
//
// bench_suite is the one binary that runs them (all, or a subset picked
// with --only), and each gates its own claim through its exit code.

#ifndef HERMES_BENCH_SWEEPS_H_
#define HERMES_BENCH_SWEEPS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/status.h"
#include "core/cert_policy.h"
#include "history/view_checker.h"
#include "runner/aggregate.h"
#include "runner/runner.h"

namespace hermes::bench {

// The options bench_suite hands every sweep.
struct SweepArgs {
  // Worker threads for the run fan-out; <= 0 means hardware concurrency.
  int workers = 1;
  // Reduced grid (fewer seeds / shorter runs) for CI smoke jobs.
  bool quick = false;
  // When non-empty, the sweep writes one representative run's binary
  // trace here (the run's capture as is; E20 writes its merged multi-run
  // trace) plus a Prometheus dump at `<trace_out>.prom`, ready for
  // `tmstat <trace_out>`. Only the sweeps marked `exports_trace` in
  // kSweeps accept it.
  std::string trace_out;
};

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

// Runs `specs` on `workers` threads and folds every run into `agg` under
// its cell, with AddPhaseStats for a traced run. An error means the
// harness itself failed (the caller exits 2); it is printed here.
Result<std::vector<runner::RunOutput>> RunGrid(
    const std::vector<runner::RunSpec>& specs, int workers,
    runner::Aggregator& agg);

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

// Writes `bytes` to `path`; false when the file cannot be written.
bool WriteFile(const std::string& path, const std::string& bytes);

// The --trace-out export of one traced run: writes its binary capture to
// `path` byte for byte, and the run's Prometheus metrics text to
// `<path>.prom`; prints the paths. Returns false, after printing why, when
// the capture does not decode under the strict trace::ParseBinary or a
// file cannot be written — the sweep then exits 1, as for an unwritable
// BENCH_*.json.
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

// One run of the paper's history H1 (section 3, the global view
// distortion) or H2 (section 5.1, the local view distortion) through the
// live stack under one certification policy: what E1/E2's table shows
// and tests/scenario_test.cc asserts. T1 is the transaction whose prepared
// subtransaction at site a (0) dies; the intruder is T2 in H1 and T3 in
// H2; the local transaction L4 runs in H2 only.
struct HistoryRun {
  // Global outcomes, empty while the transaction has not finished.
  std::optional<Status> t1_status;
  std::optional<Status> intruder_status;
  bool intruder_refused = false;  // its GlobalTxnResult::certification_refused
  // L4's outcome: the status of its first failed command, else of its
  // commit; empty in H1 and while L4 has not finished.
  std::optional<Status> local_status;
  int64_t resubmissions = 0;
  int64_t refuse_interval = 0;
  int64_t refusals = 0;  // interval + extension + dead refusals
  bool y_exists = false;          // site a holds an entry for Y, live or not
  std::optional<int64_t> y_at_a;  // Y's value at site a; empty unless live
  // History positions of T1's and the intruder's local commits at sites a
  // and b (-1: no local commit there).
  std::array<int64_t, 2> t1_commit_seq{-1, -1};
  std::array<int64_t, 2> intruder_commit_seq{-1, -1};
  bool cg_acyclic = true;
  history::Verdict verdict = history::Verdict::kUnknown;
  std::string verdict_reason;  // history::ViewCheckResult::reason
  // history::VerifyReplayMatchesRecorded on the committed projection.
  std::string replay_error;
  bool budget_exhausted = false;  // the run was cut at its event budget
};
HistoryRun RunH1(core::CertPolicy policy);
HistoryRun RunH2(core::CertPolicy policy);

// E19's committed-throughput shape around an epoch change, from one
// traced run: the fence..final-install window, the commit-rate dip inside
// it relative to the pre-fence rate (0 for a window of no length, which
// loses no commit), and the delay from the final install to the next
// commit (how long the re-routed workload takes to resume). `valid` is
// false when the capture holds no membership change or no commit.
struct ReconfigTimeline {
  double window_ms = 0;
  double dip_pct = 0;
  double recovery_ms = 0;
  bool valid = false;
};
ReconfigTimeline AnalyzeTimeline(const std::string& trace_binary);

// Each sweep prints its table, writes BENCH_<name>.json and returns a
// process exit code: 0 on success, 1 when its claim or a correctness
// guarantee was violated or an artifact (BENCH_*.json, --trace-out) could
// not be written, 2 when the harness itself failed.
int RunFig2HistoriesSweep(const SweepArgs& args);    // E1, E2
int RunRestrictivenessSweep(const SweepArgs& args);  // E3, E4
int RunFailureSweep(const SweepArgs& args);          // E5
int RunScalingSweep(const SweepArgs& args);          // E6
int RunClockDriftSweep(const SweepArgs& args);       // E7
int RunCorrectnessSweep(const SweepArgs& args);      // E9
int RunAblationOrderSweep(const SweepArgs& args);    // E10
int RunDeadlockSweep(const SweepArgs& args);         // E11
int RunRecoverySweep(const SweepArgs& args);         // E12
int RunNetworkFaultsSweep(const SweepArgs& args);    // E13
int RunHarnessSweep(const SweepArgs& args);          // E14
int RunChaosSweep(const SweepArgs& args);            // E15
int RunPaxosSweep(const SweepArgs& args);            // E16
int RunAblationMatrixSweep(const SweepArgs& args);   // E18
int RunReconfigSweep(const SweepArgs& args);         // E19
int RunTraceOverheadSweep(const SweepArgs& args);    // E20

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
    {"E1/E2", "fig2_histories", RunFig2HistoriesSweep, false},
    {"E3/E4", "restrictiveness", RunRestrictivenessSweep, false},
    {"E5", "failure_sweep", RunFailureSweep, true},
    {"E6", "scaling", RunScalingSweep, false},
    {"E7", "clock_drift", RunClockDriftSweep, false},
    {"E9", "correctness_sweep", RunCorrectnessSweep, false},
    {"E10", "ablation_order", RunAblationOrderSweep, false},
    {"E11", "deadlock", RunDeadlockSweep, false},
    {"E12", "recovery", RunRecoverySweep, false},
    {"E13", "network_faults", RunNetworkFaultsSweep, false},
    {"E14", "harness", RunHarnessSweep, false},
    {"E15", "chaos", RunChaosSweep, true},
    {"E16", "paxos", RunPaxosSweep, true},
    {"E18", "ablation_matrix", RunAblationMatrixSweep, true},
    {"E19", "reconfig", RunReconfigSweep, true},
    {"E20", "trace_overhead", RunTraceOverheadSweep, true},
};

}  // namespace hermes::bench

#endif  // HERMES_BENCH_SWEEPS_H_
