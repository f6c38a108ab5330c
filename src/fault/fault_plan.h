// Declarative fault plans for chaos experiments.
//
// A FaultPlan is a deterministic schedule of fault events — site crashes,
// recoveries, partitions, heals and loss bursts — fired either at a fixed
// virtual time or when a watched protocol state is reached (e.g. "crash the
// coordinator's site right after the first subtransaction there votes
// READY", the classic lost-decision window). Plans are pure data: they can
// be generated from a seed (GenerateChaosPlan), round-tripped through JSONL
// (ToJsonl / ParseFaultPlan) and attached to a workload configuration; the
// injector in fault/injector.h wires a plan into an assembled Mdbs.

#ifndef HERMES_FAULT_FAULT_PLAN_H_
#define HERMES_FAULT_FAULT_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "sim/event_loop.h"

namespace hermes::fault {

enum class FaultKind : uint8_t {
  kCrashSite,    // Mdbs::CrashSite(site, duration): both roles fail;
                 // duration 0 = instant recovery, <0 = until kRecoverSite
  kRecoverSite,  // Mdbs::RecoverSite(site)
  kPartition,    // drop all site<->peer traffic for `duration`
  kHeal,         // end an ongoing site<->peer partition early
  kLossBurst,    // site<->peer loss probability `loss_prob` for `duration`
  // Membership churn: Mdbs::StartReconfig (sharded runs only; dropped
  // best-effort when sharding is off, the controller is busy or the
  // target is invalid). `site` is the remove/replace target; unused
  // for kAddSite.
  kAddSite,
  kRemoveSite,
  kReplaceSite,
};

enum class TriggerKind : uint8_t {
  kAtTime,      // fire at virtual time `at`
  kOnPrepared,  // fire when `watch_site`'s agent reports its `nth`
                // subtransaction entering the prepared state (1-based)
};

struct FaultEvent {
  FaultKind kind = FaultKind::kCrashSite;
  TriggerKind trigger = TriggerKind::kAtTime;
  sim::Time at = 0;                  // kAtTime
  SiteId watch_site = kInvalidSite;  // kOnPrepared
  int32_t nth = 1;                   // kOnPrepared
  SiteId site = kInvalidSite;  // target site / first end of the link
  SiteId peer = kInvalidSite;  // second end (partition / heal / loss burst)
  sim::Duration duration = 0;  // downtime / window length
  double loss_prob = 1.0;      // kLossBurst only

  friend bool operator==(const FaultEvent& a, const FaultEvent& b) = default;

  // One-line JSON object; fixed field order, default fields omitted.
  std::string ToJson() const;
};

struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  friend bool operator==(const FaultPlan& a, const FaultPlan& b) = default;

  // One JSON object per line, in event order (round-trips through
  // ParseFaultPlan).
  std::string ToJsonl() const;
};

const char* FaultKindName(FaultKind kind);
const char* TriggerKindName(TriggerKind kind);

// Parses the ToJsonl encoding. Unknown or repeated keys, a missing kind,
// trigger or trigger key (`at`, or `watch_site` and `nth`), out-of-range
// numbers and a loss_permille outside [0, 1000] are rejected; empty lines
// are skipped.
Result<FaultPlan> ParseFaultPlan(const std::string& text);

// Tuning of the seeded plan generator. The defaults give a mild plan; the
// chaos sweep scales `crashes` as its intensity axis.
struct ChaosOptions {
  int num_sites = 3;
  // Events are drawn uniformly in [0, horizon).
  sim::Time horizon = 5 * sim::kSecond;
  int crashes = 2;
  int partitions = 1;
  int loss_bursts = 1;
  sim::Duration min_downtime = 100 * sim::kMillisecond;
  sim::Duration max_downtime = 800 * sim::kMillisecond;
  // Fraction of crashes converted into kOnPrepared triggers (crash the
  // watched site right after a local prepare — the lost-decision window).
  double triggered_fraction = 0.25;
  // Membership churn (E15/E19): number of add/remove/replace events, drawn
  // uniformly over the three kinds. 0 draws no extra randoms, so existing
  // seeds replay byte-identically.
  int reconfigs = 0;
  // Remove/replace targets are drawn from [reconfig_min_site, num_sites);
  // the default spares site 0, the usual coordinator of scripted
  // scenarios (Paxos acceptors are additionally protected by the
  // controller itself).
  SiteId reconfig_min_site = 1;
};

// Deterministic: the same (seed, options) always yields the same plan.
FaultPlan GenerateChaosPlan(uint64_t seed, const ChaosOptions& opts);

}  // namespace hermes::fault

#endif  // HERMES_FAULT_FAULT_PLAN_H_
