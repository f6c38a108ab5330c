// Counters collected across one multidatabase run; shared by the agents,
// coordinators and the workload driver, and printed by the benchmarks.

#ifndef HERMES_CORE_METRICS_H_
#define HERMES_CORE_METRICS_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "trace/histogram.h"

namespace hermes::core {

struct Metrics {
  // Global transaction outcomes (coordinator view).
  int64_t global_committed = 0;
  int64_t global_aborted = 0;
  int64_t global_aborted_cert = 0;      // aborted due to certification REFUSE
  int64_t global_aborted_dml = 0;       // aborted due to a failed command
  int64_t global_aborted_timeout = 0;   // aborted after retransmissions ran out

  // Unreliable-network robustness (coordinator + agent view).
  int64_t retransmits = 0;        // protocol messages re-sent after a timeout
  int64_t dup_msgs_absorbed = 0;  // duplicate messages handled idempotently

  // Crash recovery (coordinator log + agent inquiry machinery).
  int64_t coordinator_crashes = 0;   // coordinator role lost volatile state
  int64_t coordinator_redelivered_decisions = 0;  // re-driven from the log
  int64_t global_aborted_crash = 0;  // undecided txns failed by a coord crash
  int64_t inquiries_sent = 0;        // InquiryMsg probes from prepared agents
  int64_t inquiries_answered_presumed_abort = 0;  // unknown-txn replies

  // Certifier activity (agent view).
  int64_t prepares_received = 0;
  int64_t refuse_extension = 0;   // extended prepare certification failures
  int64_t refuse_interval = 0;    // basic (alive-interval) failures
  int64_t refuse_snapshot = 0;    // always 0 (the CSN snapshot check is gone)
  int64_t refuse_dead = 0;        // transaction not alive at prepare
  // Commit attempts that commit certification blocked. Each blocked
  // attempt counts once: the waiting subtransaction commits when it heads
  // the SN order, with no further attempt counted.
  int64_t commit_cert_retries = 0;
  int64_t alive_checks = 0;       // always 0 (the alive check runs on UAN)
  int64_t resubmissions = 0;
  int64_t resubmission_failures = 0;  // a resubmission attempt itself died

  // Short-commit fast paths and the CSN certifier (ablation matrix).
  int64_t short_commits_1pc = 0;       // single-site 1PC commits at the agent
  int64_t short_commits_readonly = 0;  // write-free early commits at prepare
  int64_t csn_assigned = 0;            // decision-time CSNs drawn
  int64_t single_site_committed = 0;   // committed txns with one participant
  sim::Duration single_site_latency_total = 0;  // their summed latency (us)

  // Local transactions driven through the workload.
  int64_t local_committed = 0;
  int64_t local_aborted = 0;

  // Latency of committed global transactions (virtual time). The histogram
  // provides p50/p95/p99 beyond the running mean/max.
  int64_t latency_samples = 0;
  sim::Duration latency_total = 0;
  sim::Duration latency_max = 0;
  trace::Histogram latency_hist;

  // CGM baseline specifics.
  // Commit-graph admissions that found a loop and waited for it to clear
  // (the name predates the wait; none is refused).
  int64_t cgm_graph_rejections = 0;
  int64_t cgm_lock_timeouts = 0;      // global lock waits that timed out

  // Paxos Commit (consensus subsystem).
  int64_t paxos_forced_writes = 0;     // acceptor-log force-writes
  int64_t paxos_votes_accepted = 0;    // ballot-0 RM votes accepted
  int64_t paxos_resolutions = 0;       // resolution rounds started
  int64_t paxos_elections = 0;         // inquiry escalations (leader elect)
  int64_t paxos_decided_fast = 0;      // ballot-0 fast-path decisions
  int64_t paxos_decided_resolved = 0;  // decisions via a resolution round

  // Sharding + online reconfiguration (shard subsystem, epoch fencing).
  int64_t epoch_refusals = 0;        // messages refused for a stale epoch
  int64_t epoch_map_refreshes = 0;   // coordinator shard-map re-fetches
  int64_t reconfig_started = 0;      // reconfigurations fenced (epoch bump 1)
  int64_t reconfig_completed = 0;    // reconfigurations committed (bump 2)
  int64_t reconfig_rows_moved = 0;   // committed rows transferred in handoffs
  int64_t reconfig_residue_adopted = 0;  // prepared subtxns migrated + adopted
  int64_t reconfig_forced_aborts = 0;    // active subtxns aborted at deadline
  int64_t commits_stale_epoch = 0;   // tripwire: local commit on a shard the
                                     // site no longer owned (must stay 0)

  // Tracing self-observability (workload driver, from TracerStats).
  // emitted == stored + sampled_out + dropped, so a consumer can tell how
  // complete a captured trace is without opening it.
  int64_t trace_events_emitted = 0;  // Record calls on the run's tracer
  int64_t trace_events_dropped = 0;  // records evicted by ring overflow
  int64_t trace_sampled_out = 0;     // events dropped by the gtid sampler

  void AddLatency(sim::Duration d) {
    ++latency_samples;
    latency_total += d;
    if (d > latency_max) latency_max = d;
    latency_hist.Add(d);
  }
  double MeanLatencyMs() const {
    return latency_samples == 0
               ? 0.0
               : static_cast<double>(latency_total) /
                     static_cast<double>(latency_samples) / 1000.0;
  }

  // Folds `o` into this: counters and latency sums add, latency_max maxes,
  // histograms merge. Commutative and associative, so per-site snapshots
  // merge into exactly the totals a single shared object would have held.
  void Merge(const Metrics& o);

  // All scalar counters as (name, value) pairs in a fixed declaration
  // order. One list feeds the Prometheus export, the run fingerprints and
  // the per-site breakdown, so the three can never disagree on naming.
  std::vector<std::pair<const char*, int64_t>> CounterEntries() const;

  std::string ToString() const;
};

// One scalar counter of Metrics: its export name and the field holding it.
struct MetricsCounter {
  const char* name;
  int64_t Metrics::*field;
};

// Every scalar counter, in declaration order. Merge and CounterEntries
// both walk this one table, so a counter is named and merged in one place.
std::span<const MetricsCounter> MetricsCounters();

// Prometheus text exposition of a run's metrics: every counter as
// `hermes_<name>`, the same counter per site as `hermes_<name>{site="s"}`
// (sites in ascending id order), and the commit latency histogram as a
// cumulative `hermes_latency_us` histogram with _sum and _count. Output is
// deterministic; `per_site` may be empty.
std::string MetricsPrometheusText(const Metrics& total,
                                  const std::vector<Metrics>& per_site);

}  // namespace hermes::core

#endif  // HERMES_CORE_METRICS_H_
