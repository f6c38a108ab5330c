// The one entry point of the experiments of EXPERIMENTS.md (E1 ... E20):
// runs them in a single process — the regeneration path for their tables
// and BENCH_<name>.json artifacts. Each experiment gates its own claim.
//
//   bench_suite [--only=NAME[,NAME...]] [--quick] [--workers=N]
//               [--trace-out=PATH]
//
// NAME is a sweep name from kSweeps (bench/sweeps.h); without --only every
// sweep runs, in kSweeps order. `--trace-out` needs --only naming exactly
// one sweep that exports a trace (`exports_trace` in kSweeps), since each
// such sweep exports its own representative trace. `--workers=N` (or
// `-jN`) sets the worker threads of each run fan-out, and 0 uses all
// hardware threads; `harness` (E14) instead reads it as the largest worker
// count whose speedup it measures: N if N > 1, else 8.
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
#include "common/json.h"
#include "runner/runner.h"

namespace {

using hermes::bench::kSweeps;
using hermes::bench::SweepEntry;

void PrintSweepNames(bool trace_exporters_only) {
  for (const SweepEntry& e : kSweeps) {
    if (e.exports_trace || !trace_exporters_only) {
      std::fprintf(stderr, " %s", e.name);
    }
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  hermes::bench::SweepArgs args;
  const char* only = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    bool ok = true;
    if (std::strcmp(a, "--quick") == 0) {
      args.quick = true;
    } else if (std::strncmp(a, "--only=", 7) == 0) {
      only = a + 7;
    } else if (std::strncmp(a, "--workers=", 10) == 0) {
      ok = hermes::json::ParseInt(a + 10, args.workers);
    } else if (std::strncmp(a, "-j", 2) == 0 && a[2] != '\0') {
      ok = hermes::json::ParseInt(a + 2, args.workers);
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      args.trace_out = a + 12;
      ok = !args.trace_out.empty();
    } else {
      ok = false;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bad argument: %s\nusage: %s [--only=NAME[,NAME...]]"
                   " [--quick] [--workers=N] [--trace-out=PATH]\n",
                   a, argv[0]);
      return 2;
    }
  }

  std::vector<bool> chosen(std::size(kSweeps), only == nullptr);
  std::istringstream names(only != nullptr ? only : "");
  for (std::string name; std::getline(names, name, ',');) {
    const auto it =
        std::find_if(std::begin(kSweeps), std::end(kSweeps),
                     [&](const SweepEntry& e) { return name == e.name; });
    if (it == std::end(kSweeps)) {
      std::fprintf(stderr, "bench_suite: unknown sweep '%s'; known:",
                   name.c_str());
      PrintSweepNames(false);
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
      std::fprintf(stderr,
                   "bench_suite: sweep %s exports no trace, so --trace-out "
                   "is refused; these sweeps export one:",
                   e.name);
      PrintSweepNames(true);
      return 2;
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
