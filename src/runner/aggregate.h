// Cross-seed aggregation and the consolidated benchmark artifact.
//
// A sweep groups its runs into *cells* (one per config point); each cell
// accumulates named scalar statistics (count/sum/min/max, mean derived)
// and merges the per-run latency histograms bucket-by-bucket, so
// percentiles across seeds are computed from the union of all samples
// rather than averaged per run. Stat and histogram merging are commutative
// and associative — aggregate order cannot change the result.
//
// The consolidated `BENCH_<name>.json` artifact (schema_version 2) carries
// the printed table plus the full per-cell aggregates. It is write-only:
// no program reads it back (CI loads every artifact with Python's json
// module). The schema is documented in docs/FORMATS.md.

#ifndef HERMES_RUNNER_AGGREGATE_H_
#define HERMES_RUNNER_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/histogram.h"
#include "workload/driver.h"

namespace hermes::runner {

// Running scalar statistic over the runs of one cell.
struct Stat {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;

  void Add(double v);
  void Merge(const Stat& other);
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

// Aggregate of all runs sharing one cell label.
struct CellAggregate {
  std::string cell;
  std::vector<uint64_t> seeds;  // in aggregation order
  // Merged latency buckets of every run in the cell (microseconds).
  trace::Histogram latency;
  // Virtual-time metrics series merged across the cell's traced runs
  // (counters sum, gauges max per window — order-independent). Empty when
  // no run in the cell carried a series.
  trace::TimeSeries series;
  // Named statistics in first-insertion order (deterministic export).
  std::vector<std::pair<std::string, Stat>> stats;

  // Adds one sample to the named stat (created on first use).
  void Add(const std::string& name, double value);
  // Adds the standard metric set of one finished run and merges its
  // latency histogram. The stat names are listed in docs/FORMATS.md.
  void AddRun(uint64_t seed, const workload::RunResult& r);

  const Stat* FindStat(const std::string& name) const;
  double Mean(const std::string& name) const;
  double Sum(const std::string& name) const;
};

// Collects cells in first-appearance order.
class Aggregator {
 public:
  CellAggregate& Cell(const std::string& name);
  void AddRun(const std::string& cell, uint64_t seed,
              const workload::RunResult& r);

  const std::vector<CellAggregate>& cells() const { return cells_; }

 private:
  std::vector<CellAggregate> cells_;
};

// The consolidated, schema-versioned benchmark artifact.
struct BenchArtifact {
  static constexpr int kSchemaVersion = 2;

  int schema_version = kSchemaVersion;
  std::string bench;   // experiment name; file is BENCH_<bench>.json
  std::string config;  // free-form base-configuration description
  uint64_t seed = 0;   // base seed of the sweep
  int workers = 1;     // worker threads the sweep ran with
  // The printed result table (headers + stringified rows).
  std::vector<std::string> headers;
  std::vector<std::vector<std::string>> rows;
  // Per-cell cross-seed aggregates (empty for single-run benchmarks).
  std::vector<CellAggregate> cells;
};

// Deterministic JSON encoding (fixed field order, shortest round-tripping
// double representation).
std::string EncodeBenchArtifact(const BenchArtifact& artifact);

// Writes `BENCH_<bench>.json` into the current directory and prints the
// artifact path. Returns false on I/O failure.
bool WriteBenchArtifactFile(const BenchArtifact& artifact);

}  // namespace hermes::runner

#endif  // HERMES_RUNNER_AGGREGATE_H_
