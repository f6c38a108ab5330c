// E3 + E4 — restrictiveness of 2CM vs CGM (paper section 6).
//
// The paper claims: "If we assume that neither checking the order of the
// arriving PREPARE messages, nor too long a time between alive time checks
// ever cause aborts, 2CM is less restrictive than CGM: in a failure-free
// situation it does not abort any transactions", while CGM rejects
// histories because of the site-level granularity of its commit graph and
// its coarse global locks.
//
// E3 sweeps the multiprogramming level with zero failures and reports
// certification-caused aborts (2CM: refusals; CGM: admissions that found
// a commit-graph loop, which wait for it to clear and never abort, and
// under site granules never occur: two transactions sharing a site are
// already serialized by its global lock). Every CGM abort here is a lock
// or DML abort. E4 sweeps contention (rows per table, skew) at fixed load
// across CGM granularities.
//
// Gate: 2CM's certification refusals are 0 at every MPL (E3). E4's
// granularity ordering is a shape claim: printed, not gated.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

namespace hermes::bench {

namespace {

using workload::System;
using workload::WorkloadConfig;

WorkloadConfig Base(uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.num_sites = 4;
  config.rows_per_table = 64;
  config.global_clients = 8;
  config.target_global_txns = 150;
  config.cmds_per_global_txn = 4;
  config.sites_per_global_txn = 2;
  config.global_write_fraction = 0.6;
  config.p_prepared_abort = 0.0;
  config.record_history = false;  // throughput-oriented sweep
  return config;
}

int64_t Refusals(const workload::RunResult& r) {
  return r.metrics.refuse_interval + r.metrics.refuse_extension +
         r.metrics.refuse_dead;
}

int RunE3(int workers) {
  std::printf(
      "E3 — failure-free certification aborts vs multiprogramming level\n"
      "(4 sites, 64 rows/table, uniform access)\n\n");
  std::vector<runner::RunSpec> specs;
  for (int mpl : {1, 2, 4, 8, 16}) {
    for (int sys = 0; sys < 2; ++sys) {
      runner::RunSpec spec;
      spec.config = Base(1000 + static_cast<uint64_t>(mpl));
      spec.config.global_clients = mpl;
      spec.config.system = sys == 0 ? System::k2CM : System::kCGM;
      spec.config.cgm_granularity = cgm::Granularity::kSite;
      spec.cell = StrCat(sys == 0 ? "2CM" : "CGM/site", "/mpl=", mpl);
      specs.push_back(std::move(spec));
    }
  }
  runner::Aggregator agg;
  const Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"system", "MPL", "committed", "aborted", "cert aborts",
                      "lock/dml aborts", "tput/s", "mean lat ms"});
  bool zero_refusals = true;
  for (size_t i = 0; i < specs.size(); ++i) {
    const WorkloadConfig& config = specs[i].config;
    const workload::RunResult& r = (*outputs)[i].result;
    const bool is_2cm = config.system == System::k2CM;
    const int64_t cert_aborts =
        is_2cm ? Refusals(r) : r.metrics.cgm_graph_rejections;
    if (is_2cm && cert_aborts != 0) {
      std::fprintf(stderr,
                   "E3: 2CM refused %lld certifications failure-free at "
                   "MPL %d\n",
                   static_cast<long long>(cert_aborts),
                   config.global_clients);
      zero_refusals = false;
    }
    table.AddRow(is_2cm ? "2CM" : "CGM/site", config.global_clients,
                 r.metrics.global_committed, r.metrics.global_aborted,
                 cert_aborts, r.metrics.global_aborted_dml,
                 r.CommitsPerSecond(), r.metrics.MeanLatencyMs());
  }
  const int rc = FinishSweep("restrictiveness_e3",
                             "4 sites, 64 rows/table, uniform access", 1000,
                             workers, table, agg);
  std::printf(
      "\nExpected shape: the 2CM cert-abort column is identically 0 (the\n"
      "paper's failure-free claim); CGM serializes same-site-pair\n"
      "transactions and loses throughput as MPL grows.\n\n");
  return zero_refusals ? rc : 1;
}

int RunE4(int workers) {
  std::printf(
      "E4 — acceptance rate vs contention, CGM granularities (MPL 8)\n\n");
  struct Point {
    int64_t rows;
    double zipf;
  };
  struct Variant {
    const char* name;
    System system;
    cgm::Granularity granularity;
  };
  const Variant variants[] = {
      {"2CM", System::k2CM, cgm::Granularity::kSite},
      {"CGM/site", System::kCGM, cgm::Granularity::kSite},
      {"CGM/table", System::kCGM, cgm::Granularity::kTable},
      {"CGM/item", System::kCGM, cgm::Granularity::kItem},
  };
  const Point points[] = {{16, 0.0}, {64, 0.0}, {256, 0.0}, {64, 0.99}};
  std::vector<runner::RunSpec> specs;
  for (const Point& p : points) {
    for (const Variant& v : variants) {
      runner::RunSpec spec;
      spec.config = Base(2000 + static_cast<uint64_t>(p.rows));
      spec.config.rows_per_table = p.rows;
      spec.config.zipf_theta = p.zipf;
      // Several tables per site so the table granularity is meaningfully
      // finer than the site granularity.
      spec.config.tables_per_site = 4;
      spec.config.system = v.system;
      spec.config.cgm_granularity = v.granularity;
      spec.cell = StrCat(v.name, "/rows=", p.rows, "/zipf=", Fixed2(p.zipf));
      specs.push_back(std::move(spec));
    }
  }
  runner::Aggregator agg;
  const Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"system", "rows/table", "zipf", "committed", "aborted",
                      "tput/s", "mean lat ms"});
  for (size_t i = 0; i < specs.size(); ++i) {
    const WorkloadConfig& config = specs[i].config;
    const workload::RunResult& r = (*outputs)[i].result;
    table.AddRow(variants[i % std::size(variants)].name,
                 config.rows_per_table, config.zipf_theta,
                 r.metrics.global_committed, r.metrics.global_aborted,
                 r.CommitsPerSecond(), r.metrics.MeanLatencyMs());
  }
  const int rc = FinishSweep("restrictiveness_e4",
                             "MPL 8, 4 tables/site, CGM granularity sweep",
                             2000, workers, table, agg);
  std::printf(
      "\nExpected shape: 2CM throughput tracks item-level contention only;\n"
      "CGM improves with finer granules but stays behind 2CM because the\n"
      "commit graph still serializes at site granularity.\n");
  return rc;
}

}  // namespace

int RunRestrictivenessSweep(const SweepArgs& args) {
  const int e3 = RunE3(args.workers);
  const int e4 = RunE4(args.workers);
  return std::max(e3, e4);
}

}  // namespace hermes::bench
