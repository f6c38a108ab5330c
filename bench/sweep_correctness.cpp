// E9 — correctness sweep: the paper's guarantee, measured.
//
// Many short randomized runs per (policy, DLU, failure rate) cell; each
// recorded history is judged by the oracle. The full certifier must never
// violate; ablated policies show which distortion each missing mechanism
// admits. Every run of the grid is independent, so the whole sweep fans
// out through the runner.

#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

namespace hermes::bench {

namespace {

struct PolicyRow {
  const char* policy;
  core::CertPolicy value;
  bool dlu;
};

}  // namespace

int RunCorrectnessSweep(const SweepArgs& args) {
  const int runs_per_cell = args.quick ? 3 : 12;
  std::printf(
      "E9 — serializability violations over %d randomized runs per cell\n"
      "(3 sites, 6 rows/table, 4 global + 6 local clients, hot keys%s)\n\n",
      runs_per_cell, args.quick ? "; quick" : "");

  const PolicyRow policy_rows[] = {
      {"none", core::CertPolicy::kNone, false},
      {"none", core::CertPolicy::kNone, true},
      {"prepare-only", core::CertPolicy::kPrepareOnly, true},
      {"prepare-extended", core::CertPolicy::kPrepareExtended, true},
      {"full", core::CertPolicy::kFull, true},
  };
  const double probs[] = {0.2, 0.5};

  std::vector<runner::RunSpec> specs;
  for (const PolicyRow& row : policy_rows) {
    for (double p : probs) {
      for (int run = 0; run < runs_per_cell; ++run) {
        runner::RunSpec spec;
        spec.cell = StrCat("policy=", row.policy, " dlu=",
                           row.dlu ? "on" : "off", " p_fail=", Fixed2(p));
        spec.config.seed = 9000 + static_cast<uint64_t>(run) +
                           static_cast<uint64_t>(p * 1000);
        spec.config.num_sites = 3;
        spec.config.rows_per_table = 6;
        spec.config.global_clients = 4;
        spec.config.local_clients_per_site = 2;
        spec.config.target_global_txns = 25;
        spec.config.cmds_per_global_txn = 3;
        spec.config.global_write_fraction = 0.7;
        spec.config.p_prepared_abort = p;
        spec.config.policy = row.value;
        spec.config.dlu_binding = row.dlu;
        specs.push_back(std::move(spec));
      }
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"policy", "DLU", "p_fail", "runs", "violations",
                      "CG cycles", "refusals", "resub"});
  int full_violations = 0;
  size_t spec_index = 0;
  for (const PolicyRow& row : policy_rows) {
    for (double p : probs) {
      int violations = 0, cg_cycles = 0;
      int64_t refusals = 0, resub = 0;
      for (int run = 0; run < runs_per_cell; ++run, ++spec_index) {
        const workload::RunResult& r = (*outputs)[spec_index].result;
        if (!r.commit_graph_acyclic) ++cg_cycles;
        if (!r.replay_consistent ||
            r.verdict == history::Verdict::kNotSerializable ||
            !r.commit_graph_acyclic) {
          ++violations;
        }
        refusals += r.metrics.refuse_interval + r.metrics.refuse_extension +
                    r.metrics.refuse_dead;
        resub += r.metrics.resubmissions;
      }
      if (row.value == core::CertPolicy::kFull) full_violations += violations;
      table.AddRow(row.policy, row.dlu ? "on" : "off", p, runs_per_cell,
                   violations, cg_cycles, refusals, resub);
    }
  }

  const int rc = FinishSweep(
      "correctness_sweep",
      StrCat("3 sites, 6 rows/table, 4 global + 6 local clients, ",
             runs_per_cell, " runs/cell"),
      9000, args.workers, table, agg);
  std::printf(
      "\nExpected shape: the full certifier row shows 0 violations at every\n"
      "failure rate; the naive agent accumulates violations; partial\n"
      "policies sit in between (commit certification missing -> CG\n"
      "cycles possible).\n");
  if (full_violations > 0) return 1;
  return rc;
}

}  // namespace hermes::bench
