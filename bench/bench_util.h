// Shared helpers for the experiment harnesses: aligned table printing and
// run shortcuts. Each bench binary reproduces one experiment of
// EXPERIMENTS.md and prints its rows to stdout.

#ifndef HERMES_BENCH_BENCH_UTIL_H_
#define HERMES_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/str.h"
#include "runner/aggregate.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes::bench {

// Command-line options shared by every experiment binary.
struct SweepArgs {
  // Worker threads for the run fan-out; <= 0 means hardware concurrency.
  int workers = 1;
  // Reduced grid (fewer seeds / shorter runs) for CI smoke jobs.
  bool quick = false;
  // When non-empty, the sweep writes one representative run's trace here
  // plus a Prometheus dump at `<trace_out>.prom`, ready for
  // `tmstat <trace_out>`. The file is JSONL decoded from the run's binary
  // capture (E20 writes its merged binary trace as is). Only the sweeps
  // marked `exports_trace` in bench/sweeps.h accept it; every other
  // binary refuses it with exit code 2.
  std::string trace_out;
};

// Parses `--workers=N` (or `-jN`), `--quick` and `--trace-out=PATH`; an
// unknown argument, a worker count that is not a whole int or an empty
// PATH prints a usage message and terminates the process with exit
// code 2.
inline SweepArgs ParseSweepArgs(int argc, char** argv) {
  SweepArgs args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    bool ok = true;
    if (std::strcmp(a, "--quick") == 0) {
      args.quick = true;
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      ok = json::ParseInt(a + 10, args.workers);
    } else if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
      ok = json::ParseInt(a + 2, args.workers);
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      args.trace_out = a + 12;
      ok = !args.trace_out.empty();
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad argument: %s\nusage: %s [--quick] [--workers=N]"
                   " [--trace-out=PATH]\n",
                   a, argv[0]);
      std::exit(2);
    }
  }
  return args;
}

// Fixed-width text table.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  template <typename... Args>
  void AddRow(const Args&... args) {
    std::vector<std::string> row;
    (row.push_back(ToCell(args)), ...);
    rows_.push_back(std::move(row));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) {
      widths[i] = headers_[i].size();
    }
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    }
    PrintRow(headers_, widths);
    std::string sep;
    for (size_t i = 0; i < widths.size(); ++i) {
      if (i > 0) sep += "-+-";
      sep += std::string(widths[i], '-');
    }
    std::printf("%s\n", sep.c_str());
    for (const auto& row : rows_) PrintRow(row, widths);
  }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  static std::string ToCell(const std::string& s) { return s; }
  static std::string ToCell(const char* s) { return s; }
  static std::string ToCell(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
  }
  template <typename T>
  static std::string ToCell(const T& v) {
    return StrCat(v);
  }

  static void PrintRow(const std::vector<std::string>& row,
                       const std::vector<size_t>& widths) {
    std::string line;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) line += " | ";
      line += row[i];
      if (i < widths.size() && row[i].size() < widths[i]) {
        line += std::string(widths[i] - row[i].size(), ' ');
      }
    }
    std::printf("%s\n", line.c_str());
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Machine-readable companion of a printed table: writes
// `BENCH_<name>.json` next to the binary with the experiment name, the
// free-form config description (typically WorkloadConfig::ToString of the
// base configuration), the seed and every table row keyed by its header.
// Delegates to the schema-versioned artifact writer (docs/FORMATS.md), so
// single-run benchmarks emit the same consolidated format as the sweeps
// (with an empty cells array). Returns false on I/O failure (the textual
// table is the source of truth; callers only warn).
inline bool WriteBenchArtifact(const std::string& name,
                               const std::string& config, uint64_t seed,
                               const TablePrinter& table) {
  runner::BenchArtifact artifact;
  artifact.bench = name;
  artifact.config = config;
  artifact.seed = seed;
  artifact.headers = table.headers();
  artifact.rows = table.rows();
  return runner::WriteBenchArtifactFile(artifact);
}

inline const char* VerdictCell(const workload::RunResult& r) {
  if (!r.history_checked) return "-";
  if (!r.replay_consistent) return "VIOLATED";
  switch (r.verdict) {
    case history::Verdict::kSerializable:
      return "VSR";
    case history::Verdict::kNotSerializable:
      return "NOT-VSR";
    case history::Verdict::kUnknown:
      return r.commit_graph_acyclic ? "CG-acyclic" : "CG-CYCLIC";
  }
  return "?";
}

}  // namespace hermes::bench

#endif  // HERMES_BENCH_BENCH_UTIL_H_
