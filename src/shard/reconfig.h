// Online reconfiguration controller: add/remove/replace a site mid-run.
//
// A reconfiguration is a fence epoch plus one commit epoch per shard move
// around a drain-and-handoff window (the wedge/commit pattern of Bravo,
// "Reconfigurable Atomic Transaction Commit"):
//
//   1. *Fence*: install epoch E+1 with the moving shards wedged. New
//      transactions stop touching them (the generator redraws wedged keys)
//      and any coordinator still on epoch E is refused by every agent.
//   2. *Drain*: poll until the source site is quiescent for the moving
//      shards — no active or prepared subtransactions on them (for
//      remove/replace, also no transactions coordinated there). After
//      kDrainDeadline, force the transfer instead: active
//      subtransactions are unilaterally aborted (the coordinator
//      resubmits), prepared residue is migrated with the shard (unless the
//      destination has a subtransaction of the same transaction).
//   3. *Handoff*: committed rows plus prepared-transaction residue move to
//      the destination in one virtual instant (HostOps::TransferShards),
//      and a new epoch naming the destination as owner (unwedged) is
//      installed in that same instant — the map never shows rows at a site
//      that no longer holds them.
//   4. *Retire*: for remove/replace the drained site is deactivated and a
//      forwarding entry redirects late messages.
//
// The controller is mechanism-only: Mdbs implements HostOps (provisioning,
// quiescence checks, the actual transfer), so the state machine is
// testable against a fake host.

#ifndef HERMES_SHARD_RECONFIG_H_
#define HERMES_SHARD_RECONFIG_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/metrics.h"
#include "shard/shard_map.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::shard {

enum class ReconfigKind : uint8_t {
  kAddSite = 0,
  kRemoveSite = 1,
  kReplaceSite = 2,
};

const char* ReconfigKindName(ReconfigKind kind);

struct ReconfigOp {
  ReconfigKind kind = ReconfigKind::kAddSite;
  // Remove/replace target. Ignored for kAddSite (the host provisions the
  // new site).
  SiteId site = kInvalidSite;
};

// What the controller needs from the hosting system (implemented by
// core::Mdbs; a fake suffices for unit tests).
class HostOps {
 public:
  virtual ~HostOps() = default;

  // Brings a fresh empty site online (storage + LTM + agent + coordinator,
  // network endpoint registered) and returns its id.
  virtual SiteId ProvisionSite() = 0;

  // True while `site` is up and not retired. A handoff only runs when both
  // ends are usable: a crashed site can neither be drained (its prepared
  // residue lives in a log the transfer cannot read coherently) nor adopt;
  // the controller simply keeps polling until recovery.
  virtual bool SiteUsable(SiteId site) = 0;

  // True when `site` has no in-flight subtransaction touching `shards`
  // (and, if `and_coordinator`, no transaction coordinated at `site`).
  virtual bool QuiescentForShards(SiteId site, const std::vector<int>& shards,
                                  bool and_coordinator) = 0;

  // True when a forced transfer from `site` to `to` is possible despite
  // remaining in-flight work: every blocking subtransaction can be
  // unilaterally aborted or migrated as prepared residue (its logged
  // commands all fall inside `shards`, and `to` holds no subtransaction of
  // the same transaction), and the coordinator drain — which cannot be
  // forced — is already complete.
  virtual bool CanForceTransfer(SiteId site, SiteId to,
                                const std::vector<int>& shards,
                                bool and_coordinator) = 0;

  // Moves the committed rows of `shards` plus adoptable prepared residue
  // from `from` to `to`. Returns the number of rows moved.
  virtual int64_t TransferShards(SiteId from, SiteId to,
                                 const std::vector<int>& shards) = 0;

  // Retires a site after its last shard left: unregisters the endpoint and
  // marks it removed (CrashSite/RecoverSite reject it from now on).
  virtual void DeactivateSite(SiteId site) = 0;

  // Deterministic delayed execution on the simulation loop.
  virtual void Schedule(sim::Time delay, std::function<void()> fn) = 0;
};

// Quiescence poll period, and the drain time after which a transfer is forced.
inline constexpr sim::Duration kDrainPoll = 5 * sim::kMillisecond;
inline constexpr sim::Duration kDrainDeadline = 250 * sim::kMillisecond;

class Controller {
 public:
  // `protected_sites` may never be removed or replaced (Paxos Commit
  // acceptors: the acceptor set is fixed at construction).
  Controller(std::vector<SiteId> protected_sites, Directory* directory,
             HostOps* host, core::Metrics* metrics, trace::Tracer* tracer)
      : protected_sites_(std::move(protected_sites)),
        directory_(directory),
        host_(host),
        metrics_(metrics),
        tracer_(tracer) {}

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  // Starts a reconfiguration; `done` (nullable) fires when the final map
  // is installed. At most one reconfiguration runs at a time.
  Status Start(const ReconfigOp& op, std::function<void(Status)> done = {});

  bool busy() const { return busy_; }

 private:
  struct Move {
    SiteId from = kInvalidSite;
    std::vector<int> shards;
    bool done = false;
  };

  // Shards to steal for an add: quota = num_shards / (owners + 1), taken
  // one at a time from the owner with the most shards (ties: smallest
  // SiteId; within an owner, the smallest shard index first).
  std::vector<Move> StealPlan(const ShardMap& map, int quota) const;

  void Fence(const ReconfigOp& op);
  void PollDrain();
  void Finish();

  std::vector<SiteId> protected_sites_;
  Directory* directory_;
  HostOps* host_;
  core::Metrics* metrics_;
  trace::Tracer* tracer_;

  bool busy_ = false;
  ReconfigOp op_;
  SiteId to_ = kInvalidSite;
  std::vector<Move> moves_;
  bool drain_coordinator_ = false;
  sim::Time drained_for_ = 0;  // virtual time spent polling
  std::function<void(Status)> done_;
};

}  // namespace hermes::shard

#endif  // HERMES_SHARD_RECONFIG_H_
