// The one entry point of the sweep experiments (E5, E6, E7, E9, E13, E15,
// E16, E18, E19, E20): runs them through the parallel runner in a single
// process — the regeneration path for the EXPERIMENTS.md sweep tables and
// their BENCH_<name>.json artifacts.
//
//   bench_suite [--only=NAME[,NAME...]] [--quick] [--workers=N]
//               [--trace-out=PATH]
//
// NAME is a sweep name from the table in main (failure_sweep, scaling,
// clock_drift, correctness_sweep, network_faults, chaos, paxos,
// ablation_matrix, reconfig, trace_overhead); without --only every sweep
// runs, in table order. `--trace-out` needs --only naming exactly one
// sweep that exports a trace (`exports_trace` in kSweeps,
// bench/sweeps.h), since each such sweep exports its own representative
// trace. `--workers=0` uses all hardware threads.
//
// Exit code: 2 on a usage error, including a --trace-out the chosen sweep
// cannot honour; 1 if any sweep reported a violation, the harness failed,
// or an artifact (a BENCH_<name>.json, or the --trace-out file and its
// .prom) could not be written; 0 otherwise.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

int main(int argc, char** argv) {
  using namespace hermes::bench;  // NOLINT
  // --only is this binary's own flag; the rest go to the shared parser.
  const char* only = nullptr;
  std::vector<char*> shared_argv = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--only=", 7) == 0) {
      only = argv[i] + 7;
    } else {
      shared_argv.push_back(argv[i]);
    }
  }
  const SweepArgs args =
      ParseSweepArgs(static_cast<int>(shared_argv.size()), shared_argv.data());

  std::vector<bool> chosen(std::size(kSweeps), only == nullptr);
  std::istringstream names(only != nullptr ? only : "");
  for (std::string name; std::getline(names, name, ',');) {
    const auto it =
        std::find_if(std::begin(kSweeps), std::end(kSweeps),
                     [&](const SweepEntry& e) { return name == e.name; });
    if (it == std::end(kSweeps)) {
      std::fprintf(stderr, "bench_suite: unknown sweep '%s'; known:",
                   name.c_str());
      for (const SweepEntry& e : kSweeps) std::fprintf(stderr, " %s", e.name);
      std::fprintf(stderr, "\n");
      return 2;
    }
    chosen[static_cast<size_t>(it - std::begin(kSweeps))] = true;
  }
  const auto num_chosen = std::count(chosen.begin(), chosen.end(), true);
  if (num_chosen == 0) {
    std::fprintf(stderr, "bench_suite: --only names no sweep\n");
    return 2;
  }
  if (!args.trace_out.empty()) {
    if (num_chosen != 1) {
      std::fprintf(stderr,
                   "bench_suite: --trace-out needs --only naming exactly one "
                   "sweep\n");
      return 2;
    }
    const SweepEntry& e =
        kSweeps[std::find(chosen.begin(), chosen.end(), true) -
                chosen.begin()];
    if (!e.exports_trace) {
      return RefuseTraceOut(std::string("bench_suite: sweep ") + e.name);
    }
  }

  std::printf("bench_suite: %d worker(s)%s\n\n",
              hermes::runner::EffectiveWorkers(args.workers),
              args.quick ? ", quick grid" : "");
  int rc = 0;
  for (size_t k = 0; k < std::size(kSweeps); ++k) {
    if (!chosen[k]) continue;
    const SweepEntry& e = kSweeps[k];
    std::printf("==== %s %s ====\n", e.id, e.name);
    const int one = e.run(args);
    if (one != 0) {
      std::fprintf(stderr, "bench_suite: %s %s failed (exit %d)\n", e.id,
                   e.name, one);
      rc = 1;
    }
    std::printf("\n");
  }
  if (rc == 0) std::printf("bench_suite: all sweeps passed\n");
  return rc;
}
