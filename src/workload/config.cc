#include "workload/config.h"

#include "common/str.h"

namespace hermes::workload {

const char* SystemName(System s) {
  switch (s) {
    case System::k2CM:
      return "2CM";
    case System::kCGM:
      return "CGM";
  }
  return "?";
}

Status WorkloadConfig::Validate() const {
  const Status assembly = system == System::kCGM
                              ? ToCgmConfig().Validate()
                              : ToMdbsConfig().Validate();
  if (!assembly.ok()) return assembly;
  if (system == System::kCGM && !fault_plan.empty()) {
    return Status::InvalidArgument(
        "system=CGM does not compose with a fault plan");
  }
  for (const fault::FaultEvent& ev : fault_plan.events) {
    if (ev.kind == fault::FaultKind::kCrashSite && orphan_abort_timeout <= 0) {
      return Status::InvalidArgument(
          "a fault plan with site crashes needs orphan_abort_timeout > 0");
    }
  }
  return Status::Ok();
}

core::MdbsConfig WorkloadConfig::ToMdbsConfig() const {
  core::MdbsConfig config;
  config.num_sites = num_sites;
  config.num_shards = num_shards;
  config.max_sites = max_sites;
  config.record_history = record_history;
  config.tracer = tracer;
  config.network.base_latency = net_base_latency;
  config.network.jitter = net_jitter;
  config.network.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  config.network.loss_prob = net_loss_prob;
  config.network.dup_prob = net_dup_prob;
  config.network.reorder_prob = net_reorder_prob;
  config.ltm.rigorous = rigorous_ltm;
  config.ltm.lock_wait_timeout = lock_wait_timeout;
  config.ltm.deadlock_detection = deadlock_detection;
  config.agent.policy = policy;
  config.agent.bind_bound_data = dlu_binding;
  config.agent.decision_inquiry_timeout = decision_inquiry_timeout;
  config.agent.inquiry_retry_initial = inquiry_retry_initial;
  config.agent.inquiry_retry_max = inquiry_retry_max;
  config.agent.orphan_abort_timeout = orphan_abort_timeout;
  config.protocol = protocol;
  config.paxos_f = paxos_f;
  config.agent.certifier = certifier;
  config.agent.short_commit = short_commit;
  if (clock_skew != 0) {
    config.clock_offsets.resize(static_cast<size_t>(num_sites));
    for (int s = 0; s < num_sites; ++s) {
      config.clock_offsets[static_cast<size_t>(s)] =
          (s % 2 == 0 ? -1 : 1) * clock_skew;
    }
  }
  return config;
}

cgm::CgmConfig WorkloadConfig::ToCgmConfig() const {
  cgm::CgmConfig config;
  config.mdbs = ToMdbsConfig();
  config.granularity = cgm_granularity;
  return config;
}

std::string WorkloadConfig::ToString() const {
  std::string out =
      StrCat(SystemName(system), " sites=", num_sites,
             " rows=", rows_per_table, " zipf=", zipf_theta,
             " gclients=", global_clients,
             " lclients=", local_clients_per_site,
             " p_fail=", p_prepared_abort, " loss=", net_loss_prob,
             " dup=", net_dup_prob, " reorder=", net_reorder_prob,
             " policy=", core::CertPolicyName(policy),
             " target=", target_global_txns, " seed=", seed);
  if (protocol != consensus::ProtocolKind::k2PC) {
    StrAppend(out, " protocol=", consensus::ProtocolKindName(protocol),
              " F=", paxos_f);
  }
  if (certifier != cert::CertifierKind::kSn || short_commit) {
    StrAppend(out, " certifier=", cert::CertifierKindName(certifier),
              " short_commit=", short_commit ? "on" : "off");
  }
  if (single_site_fraction > 0 || read_only_fraction > 0) {
    StrAppend(out, " ss_frac=", single_site_fraction,
              " ro_frac=", read_only_fraction);
  }
  if (num_shards > 0) {
    StrAppend(out, " shards=", num_shards, " max_sites=",
              max_sites > 0 ? max_sites : num_sites);
  }
  if (!fault_plan.empty()) {
    StrAppend(out, " faults=", fault_plan.events.size());
  }
  return out;
}

}  // namespace hermes::workload
