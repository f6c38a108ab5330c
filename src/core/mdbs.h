// Top-level assembly of the heterogeneous multidatabase system: N sites,
// each with its own storage, LTM and 2PC Agent, a Coordinator at every site,
// a simulated network connecting them, one history recorder and shared
// metrics. This is the main public entry point of the library (see
// examples/quickstart.cc).

#ifndef HERMES_CORE_MDBS_H_
#define HERMES_CORE_MDBS_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "consensus/paxos.h"
#include "core/agent.h"
#include "core/coordinator.h"
#include "core/metrics.h"
#include "db/storage.h"
#include "history/recorder.h"
#include "ltm/ltm.h"
#include "net/network.h"
#include "shard/reconfig.h"
#include "shard/shard_map.h"
#include "sim/event_loop.h"
#include "sim/site_clock.h"

namespace hermes::core {

struct MdbsConfig {
  int num_sites = 2;
  // Per-site templates; the site id field is filled in per site.
  ltm::LtmConfig ltm;
  AgentConfig agent;
  CoordinatorRetryConfig coordinator_retry;
  net::NetworkConfig network;
  // Commit-decision protocol: classic 2PC presumed abort (the paper's
  // machinery), or non-blocking Paxos Commit with 2*paxos_f+1 acceptor
  // state machines on sites 0..2*paxos_f (tolerating paxos_f acceptor
  // crashes; paxos_f = 0 degenerates to 2PC message flow with an external
  // registrar). The certification scheme and the short-commit fast paths
  // are agent.certifier and agent.short_commit; the coordinators follow
  // them (one shared CsnSource under CSN).
  consensus::ProtocolKind protocol = consensus::ProtocolKind::k2PC;
  int paxos_f = 1;
  // --- online reconfiguration (src/shard) --------------------------------
  // Number of shards partitioning the key space across sites; 0 keeps the
  // legacy unsharded mode (no directory, no epoch fencing, StartReconfig
  // rejected). When > 0 every agent and coordinator is wired to the shared
  // shard::Directory and stamps/fences protocol messages by epoch.
  int num_shards = 0;
  // Capacity ceiling on site ids: ProvisionSite hands out ids
  // num_sites..max_sites-1 for add/replace operations. 0 = num_sites (no
  // headroom). Also sets the ballot-number modulus under Paxos Commit so
  // provisioned sites elect with unique ballots.
  int max_sites = 0;
  // Optional per-site clock skew (section 5.2 experiments). Missing entries
  // default to zero.
  std::vector<sim::Duration> clock_offsets;
  bool record_history = true;
  // Optional structured tracer shared by every component (null = disabled).
  // Not owned; must outlive the Mdbs.
  trace::Tracer* tracer = nullptr;

  // The assembly's composition rules, which Mdbs requires: InvalidArgument,
  // naming the conflicting knobs, for num_sites < 1, num_shards < 0,
  // 0 < max_sites < num_sites, Paxos Commit on fewer than 2*paxos_f+1
  // sites, and Paxos Commit with CSN or short commit (both hook into the
  // 2PC decision machinery that the acceptor round replaces).
  Status Validate() const;
};

// A transaction submitted directly at one LDBS's local interface,
// invisible to the DTM.
struct LocalTxnSpec {
  SiteId site = kInvalidSite;
  std::vector<db::Command> commands;
};

struct LocalTxnResult {
  TxnId id;
  Status status;
  std::vector<db::CmdResult> results;
};

using LocalTxnCallback = std::function<void(const LocalTxnResult&)>;

class Mdbs : private shard::HostOps {
 public:
  Mdbs(const MdbsConfig& config, sim::EventLoop* loop);
  ~Mdbs();

  Mdbs(const Mdbs&) = delete;
  Mdbs& operator=(const Mdbs&) = delete;

  // Sites ever built, including retired ones (site ids stay dense).
  int num_sites() const { return static_cast<int>(sites_.size()); }

  // --- schema & data setup -----------------------------------------------

  // Creates a table at one site (ids are per-site).
  Result<db::TableId> CreateTable(SiteId site, const std::string& name);
  // Creates the same-named table at every site; returns the common id
  // (tables are created in lockstep so ids align across sites).
  Result<db::TableId> CreateTableEverywhere(const std::string& name);
  Status LoadRow(SiteId site, db::TableId table, int64_t key, db::Row row);

  // --- transactions --------------------------------------------------------

  // Submits a global transaction through the Coordinator at
  // `coordinator_site` (defaults to the first step's site).
  TxnId Submit(GlobalTxnSpec spec, GlobalTxnCallback cb,
               SiteId coordinator_site = kInvalidSite);

  // Runs a local transaction directly against a site's LTM: commands are
  // executed in order, then committed. On any failure the transaction is
  // rolled back and the callback reports the error.
  TxnId SubmitLocal(LocalTxnSpec spec, LocalTxnCallback cb);

  // --- component access ----------------------------------------------------

  sim::EventLoop* loop() { return loop_; }
  db::Storage* storage(SiteId site) { return sites_[site]->storage.get(); }
  ltm::Ltm* ltm(SiteId site) { return sites_[site]->ltm.get(); }
  TwoPCAgent* agent(SiteId site) { return sites_[site]->agent.get(); }
  Coordinator* coordinator(SiteId site) {
    return sites_[site]->coordinator.get();
  }
  // Null unless the Paxos Commit protocol is selected.
  consensus::PaxosCommit* paxos(SiteId site) {
    return sites_[site]->consensus.get();
  }
  sim::SiteClock* clock(SiteId site) { return sites_[site]->clock.get(); }
  net::Network& network() { return *network_; }
  history::Recorder& recorder() { return *recorder_; }

  // Whole-system metrics: the per-site snapshots plus the scheduler extras
  // merged into one. Counters are integral, so the merged totals equal what
  // a single shared object would have accumulated.
  Metrics metrics() const;
  // Per-site breakdown, indexed by site id: each site's agent, coordinator
  // and local-transaction counters land in its own slot.
  const std::vector<Metrics>& site_metrics() const { return site_metrics_; }
  // Mutable slot for counters with no owning site (the CGM baseline's
  // centralized scheduler); included in the metrics() merge.
  Metrics& scheduler_metrics() { return scheduler_metrics_; }

  // Simulates a crash of one site — BOTH co-located roles fail: the
  // coordinator loses every in-flight global transaction (only its decision
  // log survives), every transaction inside the LTM is collectively
  // (unilaterally) aborted, and all volatile agent state and DLU bindings
  // are lost. Committed data — the database itself — survives. While the
  // site is down its network endpoint is unregistered, so messages to it
  // (including in-flight ones) vanish; prepared remote agents block and
  // probe with inquiries until recovery.
  //
  // `downtime` selects the recovery mode:
  //   0  (default) — recover immediately (legacy crash-and-recover in one
  //                  step; the outage is only the in-flight message loss);
  //   >0           — stay down for `downtime` of virtual time, then recover
  //                  (the measurable blocking window);
  //   <0           — stay down until an explicit RecoverSite().
  // Crashing a site that is already down is a deterministic no-op (Ok);
  // an out-of-range id or a site retired by reconfiguration is
  // kInvalidArgument and nothing happens.
  Status CrashSite(SiteId site, sim::Duration downtime = 0);

  // Recovers a crashed site now: re-registers the endpoint, then replays
  // the agent log (resubmission + inquiries for in-doubt subtransactions)
  // and the coordinator log (epoch bump + COMMIT re-delivery). No-op (Ok)
  // if the site is up; kInvalidArgument for unknown or retired sites.
  Status RecoverSite(SiteId site);

  bool SiteUp(SiteId site) const { return sites_[site]->up; }
  // True once the site was retired by a remove/replace reconfiguration.
  bool SiteRemoved(SiteId site) const { return sites_[site]->removed; }

  // --- online reconfiguration ---------------------------------------------

  // Null unless config.num_shards > 0.
  shard::Directory* directory() { return directory_.get(); }
  const shard::Directory* directory() const { return directory_.get(); }

  // Begins an add/remove/replace of a site (see shard/reconfig.h). Fails
  // with kInvalidArgument when sharding is disabled, the target is unknown,
  // retired, down or protected, or capacity is exhausted; kRejected while
  // another reconfiguration is still running.
  Status StartReconfig(const shard::ReconfigOp& op,
                       std::function<void(Status)> done = {});
  bool reconfiguring() const {
    return controller_ != nullptr && controller_->busy();
  }

  // Applies hooks to every coordinator (CGM interposition).
  void SetCoordinatorHooks(const CoordinatorHooks& hooks);
  // Applies the sn-at-submit ablation to every coordinator.
  void SetSnAtSubmit(bool v);

 private:
  struct Site {
    std::unique_ptr<sim::SiteClock> clock;
    std::unique_ptr<db::Storage> storage;
    std::unique_ptr<ltm::Ltm> ltm;
    std::unique_ptr<TwoPCAgent> agent;
    std::unique_ptr<Coordinator> coordinator;
    // Paxos Commit module (leader + resolver + this site's acceptor state
    // machine); null under plain 2PC.
    std::unique_ptr<consensus::PaxosCommit> consensus;
    bool up = true;
    // Retired by reconfiguration: the endpoint stays registered so late
    // PREPARE/decision traffic can be forwarded to the adopting site, but
    // everything else addressed here is dropped.
    bool removed = false;
  };

  struct LocalRun;  // driver of one SubmitLocal execution

  void RouteMessage(SiteId site, const net::Envelope& env);
  void RecoverSiteNow(SiteId site);
  // Constructs site `s` (clock/storage/LTM/agent/coordinator/consensus) and
  // registers its endpoint. `s` must equal sites_.size().
  void BuildSite(SiteId s);

  // shard::HostOps for the reconfiguration controller.
  SiteId ProvisionSite() override;
  bool SiteUsable(SiteId site) override;
  bool QuiescentForShards(SiteId site, const std::vector<int>& shards,
                          bool and_coordinator) override;
  bool CanForceTransfer(SiteId site, SiteId to,
                        const std::vector<int>& shards,
                        bool and_coordinator) override;
  int64_t TransferShards(SiteId from, SiteId to,
                         const std::vector<int>& shards) override;
  void DeactivateSite(SiteId site) override;
  void Schedule(sim::Time delay, std::function<void()> fn) override;

  MdbsConfig config_;
  sim::EventLoop* loop_;
  // The federation-wide decision-time CSN authority (the GTM role); used
  // only when config_.agent.certifier == kCsn.
  cert::CsnSource csn_source_;
  std::unique_ptr<history::Recorder> recorder_;
  std::unique_ptr<net::Network> network_;
  // Sized once in the constructor, before the sites take pointers into it;
  // never resized afterwards.
  std::vector<Metrics> site_metrics_;
  Metrics scheduler_metrics_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::vector<int64_t> next_local_seq_;
  // Tables created via CreateTableEverywhere, replayed onto provisioned
  // sites so table ids stay aligned across the federation.
  std::vector<std::string> table_names_;
  // Sharded mode only (config.num_shards > 0); otherwise both null.
  std::unique_ptr<shard::Directory> directory_;
  std::unique_ptr<shard::Controller> controller_;
};

}  // namespace hermes::core

#endif  // HERMES_CORE_MDBS_H_
