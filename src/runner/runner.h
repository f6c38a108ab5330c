// Parallel multi-seed experiment harness.
//
// Every simulation in this repository is a pure function of its
// WorkloadConfig: Driver::Run builds a private EventLoop, Mdbs, Generator
// and Rng, touches no global mutable state, and returns all results by
// value (the simulation-stack audit backing this claim is recorded in
// DESIGN.md §7). Independent runs are therefore embarrassingly parallel,
// and a seed×config sweep can fan out across all cores while remaining
// bit-for-bit deterministic: the harness guarantees that each run's trace
// and metrics are byte-identical whether the sweep executes serially or on
// N worker threads.
//
// Concurrency model: a fixed pool of std::threads pulls task indices from
// one atomic counter; results land in a pre-sized vector slot per task, so
// no ordering decision ever depends on thread scheduling. A task that
// throws stops the pool from claiming further tasks and fails the whole
// sweep with the first error; in-flight tasks drain before RunAll returns.

#ifndef HERMES_RUNNER_RUNNER_H_
#define HERMES_RUNNER_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/driver.h"

namespace hermes::runner {

// Number of worker threads a sweep will actually use: `workers` if > 0,
// otherwise the hardware concurrency (at least 1).
int EffectiveWorkers(int workers);

// Runs fn(0), ..., fn(n-1) across `workers` threads (serially when the
// effective worker count is 1). Tasks must be independent. If any call
// throws, no further tasks are started and the first exception is returned
// as an Internal status after all in-flight tasks finished.
Status ParallelFor(size_t n, int workers,
                   const std::function<void(size_t)>& fn);

// One simulation in a sweep: the cell groups runs that differ only by seed
// (aggregation key); the config carries the seed itself.
struct RunSpec {
  std::string cell;
  workload::WorkloadConfig config;
  // Collect the run's structured trace and return its binary export.
  bool capture_trace = false;
  // Options of the private tracer the harness gives a capture_trace run
  // (ring bound, sampling).
  trace::TracerOptions trace_options;
};

struct RunOutput {
  workload::RunResult result;
  // Binary export ("HTRB", docs/FORMATS.md) of the run's trace; empty
  // unless capture_trace. Decode it with trace::ParseBinary.
  std::string trace_binary;
};

struct SweepOptions {
  // Worker threads; <= 0 means hardware concurrency.
  int workers = 1;
};

// Runs every spec and returns the outputs in spec order. A spec whose
// config WorkloadConfig::Validate refuses fails the sweep before any run
// starts, with InvalidArgument naming its cell. Any tracer already
// set on a spec's config is ignored: sharing one tracer across workers
// would interleave events nondeterministically, so the harness instead
// gives each capture_trace run a private tracer whose export it returns.
Result<std::vector<RunOutput>> RunAll(const std::vector<RunSpec>& specs,
                                      const SweepOptions& options);

// Canonical textual digest of one run — every metric and verdict plus the
// binary trace capture, verbatim — used to assert byte-identical
// serial/parallel execution.
std::string Fingerprint(const RunOutput& out);

// Merges the binary trace captures of a sweep into one binary trace,
// deterministically: events are stable-sorted by (virtual time, site, seq,
// run index) and re-encoded with a fresh dictionary; header drop/sample
// counts sum. The result is independent of worker count or completion
// order — the multi-run analogue of one run's byte-identical trace. Fails
// if any capture is damaged or missing.
Result<std::string> MergeBinaryTraces(const std::vector<RunOutput>& outputs);

}  // namespace hermes::runner

#endif  // HERMES_RUNNER_RUNNER_H_
