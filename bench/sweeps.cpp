#include "bench/sweeps.h"

#include <cstdio>

#include "trace/binary.h"
#include "trace/critical_path.h"
#include "trace/span.h"
#include "trace/trace.h"

namespace hermes::bench {

bool AddPhaseStats(runner::CellAggregate& cell,
                   const std::string& trace_binary) {
  if (trace_binary.empty()) return true;
  const Result<std::vector<trace::Event>> events =
      trace::ParseBinary(trace_binary);
  if (!events.ok()) {
    std::fprintf(stderr,
                 "harness: cell %s captured a trace that does not decode: "
                 "%s\n",
                 cell.cell.c_str(), events.status().message().c_str());
    return false;
  }
  if (events->empty()) return true;
  const trace::SpanForest forest = trace::BuildSpanForest(*events);
  const trace::CriticalPathReport cp = trace::AnalyzeCriticalPath(forest);
  if (cp.committed_txns > 0) {
    const double n = static_cast<double>(cp.committed_txns);
    const trace::PhaseBreakdown& t = cp.committed_total;
    cell.Add("phase_dml_us", static_cast<double>(t.dml) / n);
    cell.Add("phase_prepare_us", static_cast<double>(t.prepare) / n);
    cell.Add("phase_certify_us", static_cast<double>(t.certify) / n);
    cell.Add("phase_consensus_us", static_cast<double>(t.consensus) / n);
    cell.Add("phase_decision_us", static_cast<double>(t.decision) / n);
    cell.Add("phase_blocked_us", static_cast<double>(t.blocked) / n);
    cell.Add("phase_retx_us", static_cast<double>(t.retx_wait) / n);
    cell.Add("phase_other_us", static_cast<double>(t.other) / n);
  }
  cell.Add("blocked_windows", static_cast<double>(cp.blocking.windows));
  cell.Add("blocked_mean_us", static_cast<double>(cp.blocking.MeanUs()));
  cell.Add("blocked_p95_us",
           static_cast<double>(cp.blocking.hist.Percentile(95)));
  cell.Add("blocked_max_us", static_cast<double>(cp.blocking.max_us));
  return true;
}

Result<std::vector<runner::RunOutput>> RunGrid(
    const std::vector<runner::RunSpec>& specs, int workers,
    runner::Aggregator& agg) {
  Result<std::vector<runner::RunOutput>> outputs =
      runner::RunAll(specs, {.workers = workers});
  if (!outputs.ok()) {
    std::fprintf(stderr, "harness: %s\n",
                 outputs.status().ToString().c_str());
    return outputs;
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    agg.AddRun(specs[i].cell, specs[i].config.seed, (*outputs)[i].result);
    if (!AddPhaseStats(agg.Cell(specs[i].cell), (*outputs)[i].trace_binary)) {
      return Status::Internal("a traced run does not decode");
    }
  }
  return outputs;
}

Result<DeterminismRuns> RunDeterminismGrid(
    const std::vector<runner::RunSpec>& specs, const char* what) {
  Result<std::vector<runner::RunOutput>> serial =
      runner::RunAll(specs, {.workers = 1});
  Result<std::vector<runner::RunOutput>> parallel =
      runner::RunAll(specs, {.workers = 2});
  if (!serial.ok() || !parallel.ok()) {
    const Status& s = serial.ok() ? parallel.status() : serial.status();
    std::fprintf(stderr, "harness: determinism sub-grid failed: %s\n",
                 s.ToString().c_str());
    return s;
  }
  DeterminismRuns runs{std::move(*serial), std::move(*parallel)};
  for (size_t i = 0; i < specs.size(); ++i) {
    if (runner::Fingerprint(runs.serial[i]) !=
        runner::Fingerprint(runs.parallel[i])) {
      runs.identical = false;
      std::fprintf(stderr,
                   "determinism: %s run %zu (cell %s) diverged between "
                   "serial and 2-worker execution\n",
                   what, i, specs[i].cell.c_str());
    }
  }
  return runs;
}

bool WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  return std::fclose(f) == 0 && written == bytes.size();
}

bool WriteTraceArtifacts(const std::string& path,
                         const runner::RunOutput& run) {
  const Result<std::vector<trace::Event>> events =
      trace::ParseBinary(run.trace_binary);
  if (!events.ok()) {
    std::fprintf(stderr, "trace export: capture does not decode: %s\n",
                 events.status().message().c_str());
    return false;
  }
  const std::string prom_path = StrCat(path, ".prom");
  if (!WriteFile(path, run.trace_binary) ||
      !WriteFile(prom_path, run.result.PrometheusText())) {
    std::fprintf(stderr, "trace export: could not write %s or %s\n",
                 path.c_str(), prom_path.c_str());
    return false;
  }
  std::printf("trace: %s\nmetrics: %s\n", path.c_str(), prom_path.c_str());
  return true;
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

int FinishSweep(const std::string& name, const std::string& config,
                uint64_t seed, int workers, const TablePrinter& table,
                const runner::Aggregator& agg) {
  table.Print();
  runner::BenchArtifact artifact;
  artifact.bench = name;
  artifact.config = config;
  artifact.seed = seed;
  artifact.workers = runner::EffectiveWorkers(workers);
  artifact.headers = table.headers();
  artifact.rows = table.rows();
  artifact.cells = agg.cells();
  if (!runner::WriteBenchArtifactFile(artifact)) {
    std::fprintf(stderr, "warning: could not write BENCH_%s.json\n",
                 name.c_str());
    return 1;
  }
  return 0;
}

}  // namespace hermes::bench
