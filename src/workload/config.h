// Configuration of one simulated multidatabase run.

#ifndef HERMES_WORKLOAD_CONFIG_H_
#define HERMES_WORKLOAD_CONFIG_H_

#include <cstdint>
#include <functional>
#include <string>

#include "cgm/cgm_mdbs.h"
#include "core/agent.h"
#include "core/mdbs.h"
#include "fault/fault_plan.h"
#include "trace/timeseries.h"

namespace hermes::workload {

enum class System { k2CM, kCGM };

const char* SystemName(System s);

// One periodic mid-run observability flush: a consistent snapshot of the
// run's metrics (as Prometheus text exposition) and the windowed
// virtual-time series built so far. Delivered to WorkloadConfig::flush_hook
// every flush_interval of simulated time — a scrape endpoint for a live
// run, without waiting for the run to finish.
struct FlushSnapshot {
  sim::Time at = 0;             // virtual time of the flush
  int64_t index = 0;            // 0-based flush number within the run
  std::string prometheus;       // metrics so far, Prometheus text format
  trace::TimeSeries series;     // windowed series so far (needs a tracer)
};

struct WorkloadConfig {
  uint64_t seed = 42;

  // --- topology & data -----------------------------------------------------
  int num_sites = 4;
  int tables_per_site = 1;
  int64_t rows_per_table = 128;
  double zipf_theta = 0.0;  // 0 = uniform access
  // E19 sharded mode (2CM only, see Validate): > 0 partitions the key space into this
  // many shards owned by sites via a versioned shard::Directory; the
  // generator routes every command to its key's owner, LoadData loads each
  // key only at its owner, and StartReconfig can move shards mid-run.
  // 0 keeps the legacy unsharded topology (byte-identical traces).
  int num_shards = 0;
  // Site-id headroom for add/replace reconfigurations (0 = num_sites).
  int max_sites = 0;

  // --- load -----------------------------------------------------------------
  int global_clients = 8;
  int local_clients_per_site = 0;
  // DML commands per global transaction, spread over `sites_per_global_txn`
  // distinct sites round-robin.
  int cmds_per_global_txn = 4;
  int sites_per_global_txn = 2;
  double global_write_fraction = 0.5;
  double local_write_fraction = 0.5;
  // E18 ablation shaping: fraction of global transactions confined to one
  // site (short-commit 1PC candidates) and fraction that issue only reads
  // (read-only fast-path candidates). Both draw extra randoms only when
  // non-zero, so existing seeds replay byte-identically at the defaults.
  double single_site_fraction = 0.0;
  double read_only_fraction = 0.0;
  sim::Duration think_time = 0;

  // --- failures ---------------------------------------------------------------
  // Probability that a subtransaction entering the prepared state is
  // unilaterally aborted by its LDBS while prepared.
  double p_prepared_abort = 0.0;
  sim::Duration prepared_abort_max_delay = 30 * sim::kMillisecond;
  // Network fault injection (see net::NetworkConfig): per-message loss,
  // duplicate delivery, and FIFO-breaking reorder probabilities.
  double net_loss_prob = 0.0;
  double net_dup_prob = 0.0;
  double net_reorder_prob = 0.0;
  // Declarative fault schedule (site crashes, partitions, loss bursts),
  // installed by the driver before the clients start. 2CM only: the CGM
  // baseline's centralized scheduler has no crash-recovery story.
  fault::FaultPlan fault_plan;

  // --- termination --------------------------------------------------------------
  int target_global_txns = 200;
  sim::Time max_sim_time = 600 * sim::kSecond;
  // Extra virtual time granted after the last targeted transaction
  // completes, letting in-flight recovery (re-deliveries, resubmissions,
  // inquiries) drain before the history is judged. Chaos runs set ~2s; 0
  // keeps the legacy stop-at-done behavior.
  sim::Duration drain_grace = 0;

  // --- system under test -----------------------------------------------------
  System system = System::k2CM;
  core::CertPolicy policy = core::CertPolicy::kFull;
  // Commit-decision protocol (2CM only): classic blocking 2PC or
  // non-blocking Paxos Commit with 2*paxos_f+1 acceptors (E16).
  consensus::ProtocolKind protocol = consensus::ProtocolKind::k2PC;
  int paxos_f = 1;
  // Certification scheme and short-commit fast paths (E18; 2CM + 2PC only,
  // refused otherwise — see Validate).
  cert::CertifierKind certifier = cert::CertifierKind::kSn;
  bool short_commit = false;
  cgm::Granularity cgm_granularity = cgm::Granularity::kSite;
  bool record_history = true;
  bool dlu_binding = true;
  bool rigorous_ltm = true;
  // E10 ablation: assign serial numbers at submission (static total order).
  bool sn_at_submit = false;
  // Wait-for-graph deadlock detection in each LTM, searching its graph
  // every 10 ms while a lock request waits: an LDBS breaks a cycle among its
  // own transactions by aborting one, while a deadlock across sites, which
  // no LDBS sees, still ends only by lock-wait timeout (2CM's assumption).
  // False gives timeout-only resolution everywhere (E11 compares the two).
  bool deadlock_detection = true;

  // --- tunables forwarded to the components ------------------------------------
  sim::Duration net_base_latency = 1 * sim::kMillisecond;
  sim::Duration net_jitter = 0;
  // Agent-side recovery timers (see core::AgentConfig).
  sim::Duration decision_inquiry_timeout = 500 * sim::kMillisecond;
  sim::Duration inquiry_retry_initial = 20 * sim::kMillisecond;
  sim::Duration inquiry_retry_max = 320 * sim::kMillisecond;
  sim::Duration orphan_abort_timeout = 0;
  sim::Duration lock_wait_timeout = 500 * sim::kMillisecond;
  // Per-site clock offsets: site s gets offset (s % 2 ? +1 : -1) *
  // clock_skew (section 5.2 drift experiments).
  sim::Duration clock_skew = 0;

  // Optional structured tracer threaded through every component (null =
  // disabled). Not owned; must outlive the run.
  trace::Tracer* tracer = nullptr;

  // --- live observability ----------------------------------------------------
  // Every `flush_interval` of virtual time the driver delivers a
  // FlushSnapshot to `flush_hook` (metrics Prometheus text + the windowed
  // series so far). 0 or an empty hook disables flushing. Flushes happen
  // at slice boundaries, so they never perturb the simulation: traces are
  // byte-identical with and without a hook installed.
  sim::Duration flush_interval = 0;
  std::function<void(const FlushSnapshot&)> flush_hook;

  // InvalidArgument, naming the conflicting knobs, for what
  // core::MdbsConfig (for CGM, cgm::CgmConfig) Validate refuses, a fault
  // plan under CGM, and a site crash while orphan_abort_timeout == 0
  // (orphaned lock holders would stay forever). Driver::Run and
  // runner::RunAll call it before running anything.
  Status Validate() const;

  core::MdbsConfig ToMdbsConfig() const;
  cgm::CgmConfig ToCgmConfig() const;

  std::string ToString() const;
};

}  // namespace hermes::workload

#endif  // HERMES_WORKLOAD_CONFIG_H_
