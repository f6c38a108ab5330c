// E13 — robustness on an unreliable network.
//
// Sweeps the message loss rate (with fixed duplication and reordering
// probabilities) and shows that the coordinator's timeout/retransmission
// machinery plus the duplicate-safe agent handlers keep every run
// terminating with a view-serializable committed projection — at the cost
// of retransmissions and latency, which the table quantifies.

#include <cstdio>
#include <vector>

#include "bench/sweeps.h"
#include "runner/runner.h"

namespace hermes::bench {

int RunNetworkFaultsSweep(const SweepArgs& args) {
  const int num_seeds = args.quick ? 1 : 3;
  const int txns = args.quick ? 80 : 200;
  std::printf(
      "E13 — 2PC termination and serializability vs message loss\n"
      "(4 sites, 8 global clients, dup=5%%, reorder=5%%, full certifier%s)\n\n",
      args.quick ? ", quick" : "");

  const double losses[] = {0.0, 0.02, 0.05, 0.10};
  std::vector<runner::RunSpec> specs;
  std::string base_config;
  for (double loss : losses) {
    for (int s = 0; s < num_seeds; ++s) {
      runner::RunSpec spec;
      spec.cell = StrCat("loss=", Fixed2(loss));
      spec.config.seed = 42 + static_cast<uint64_t>(loss * 1000) +
                         static_cast<uint64_t>(s) * 1000;
      spec.config.num_sites = 4;
      spec.config.rows_per_table = 64;
      spec.config.global_clients = 8;
      spec.config.target_global_txns = txns;
      spec.config.net_loss_prob = loss;
      spec.config.net_dup_prob = 0.05;
      spec.config.net_reorder_prob = 0.05;
      if (base_config.empty()) base_config = spec.config.ToString();
      specs.push_back(std::move(spec));
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  TablePrinter table({"loss", "committed", "aborted", "abrt timeout",
                      "retransmit", "dropped", "dup deliv", "dup absorbed",
                      "tput/s", "p50 ms", "p95 ms", "history"});
  bool all_ok = true;
  for (size_t c = 0; c < agg.cells().size(); ++c) {
    const runner::CellAggregate& cell = agg.cells()[c];
    const int64_t committed = static_cast<int64_t>(cell.Sum("committed"));
    const int64_t aborted = static_cast<int64_t>(cell.Sum("aborted"));
    // Every run keeps the guarantees and decides every transaction.
    const bool ok =
        cell.Sum("violations") == 0 &&
        committed + aborted == static_cast<int64_t>(num_seeds) * txns;
    all_ok = all_ok && ok;
    table.AddRow(losses[c], committed, aborted,
                 static_cast<int64_t>(cell.Sum("aborted_timeout")),
                 static_cast<int64_t>(cell.Sum("retransmits")),
                 static_cast<int64_t>(cell.Sum("dropped")),
                 static_cast<int64_t>(cell.Sum("duplicated")),
                 static_cast<int64_t>(cell.Sum("dup_absorbed")),
                 cell.Mean("tput"), cell.latency.PercentileMs(50),
                 cell.latency.PercentileMs(95), ok ? "VSR" : "VIOLATED");
  }

  const int rc = FinishSweep("network_faults", base_config, 42,
                             args.workers, table, agg);
  std::printf(
      "\nExpected shape: retransmissions and dropped messages grow with the\n"
      "loss rate while every run still decides all transactions; the\n"
      "history column never reports a violation. Latency degrades as\n"
      "retransmission timeouts stretch the 2PC rounds.\n");
  if (!all_ok) return 1;
  return rc;
}

}  // namespace hermes::bench
