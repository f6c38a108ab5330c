// Runs one complete simulated workload against the 2CM system or the CGM
// baseline, injecting unilateral aborts and validating the resulting history
// against the serializability oracle. Every benchmark and most integration
// tests are built on top of this driver.

#ifndef HERMES_WORKLOAD_DRIVER_H_
#define HERMES_WORKLOAD_DRIVER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "history/view_checker.h"
#include "ltm/ltm.h"
#include "sim/event_loop.h"
#include "trace/timeseries.h"
#include "workload/config.h"

namespace hermes::workload {

struct RunResult {
  // Why WorkloadConfig::Validate refused the config; nothing ran then, and
  // GuaranteesHold() fails because the history was not checked.
  std::string config_error;
  core::Metrics metrics;
  // Per-site metrics snapshots, indexed by site id (ascending, hence
  // deterministic); metrics above is their merge (plus scheduler extras).
  std::vector<core::Metrics> site_metrics;
  // Virtual-time metrics series bucketed from the trace; empty when the
  // run had no tracer attached.
  trace::TimeSeries series;
  // LTM stats aggregated over all sites.
  ltm::LtmStats ltm;
  int64_t messages = 0;
  // Network fault-injection tallies (zero on a reliable network).
  int64_t msgs_dropped = 0;
  int64_t msgs_duplicated = 0;
  int64_t msgs_reordered = 0;
  sim::Time end_time = 0;
  uint64_t events = 0;
  // The run hit the event loop's event budget (a livelock guard) and was
  // cut short: a failed gate.
  bool event_budget_exhausted = false;
  // Mid-run observability flushes delivered to config.flush_hook.
  int64_t flushes = 0;
  // History validation (when record_history).
  bool history_checked = false;
  bool commit_graph_acyclic = true;
  history::Verdict verdict = history::Verdict::kUnknown;
  std::string verdict_detail;
  bool replay_consistent = true;
  std::string replay_error;
  // Paper's order invariant (1): P^i_k < C_k < C^s_k.
  bool order_invariant_ok = true;
  std::string order_invariant_error;
  // Global atomicity under crashes: decided transactions must not split
  // into per-site commit and rollback (history::CheckGlobalAtomicity).
  bool atomicity_ok = true;
  std::string atomicity_error;
  size_t history_ops = 0;

  // The paper's guarantees held: the run finished within its event
  // budget, the history was checked, and it is globally atomic, replays
  // consistently, keeps order invariant (1), is not refuted as view
  // serializable and has an acyclic CG(C(H)). Pass `require_acyclic_cg` =
  // false where commit certification, which the acyclic CG depends on, is
  // off.
  bool GuaranteesHold(bool require_acyclic_cg = true) const {
    return !event_budget_exhausted && history_checked && atomicity_ok &&
           replay_consistent && order_invariant_ok &&
           (commit_graph_acyclic || !require_acyclic_cg) &&
           verdict != history::Verdict::kNotSerializable;
  }

  double CommitsPerSecond() const {
    return end_time == 0 ? 0.0
                         : static_cast<double>(metrics.global_committed) *
                               sim::kSecond / static_cast<double>(end_time);
  }

  std::string Summary() const;
  // Prometheus text exposition of the run's metrics (totals + per-site).
  std::string PrometheusText() const {
    return core::MetricsPrometheusText(metrics, site_metrics);
  }
};

class Driver {
 public:
  // Runs the workload to completion (or max_sim_time) and returns the
  // collected metrics and oracle verdicts. A config that Validate refuses
  // does not run: the result carries only config_error.
  static RunResult Run(const WorkloadConfig& config);

  // Runs `loop` in 100 ms slices of virtual time up to `until`, calling
  // `after_slice` after each, and stops early once `done()` holds, the
  // loop is empty or its event budget (set_max_events) has run out.
  // Returns false iff the budget ran out. Run() drives a workload, and
  // then its drain grace, this way.
  static bool RunInSlices(sim::EventLoop& loop, sim::Time until,
                          const std::function<bool()>& done,
                          const std::function<void()>& after_slice);
};

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_DRIVER_H_
