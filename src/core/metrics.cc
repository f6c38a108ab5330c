#include "core/metrics.h"

#include <algorithm>
#include <iterator>

#include "common/str.h"

namespace hermes::core {

namespace {

constexpr MetricsCounter kCounters[] = {
    {"global_committed", &Metrics::global_committed},
    {"global_aborted", &Metrics::global_aborted},
    {"global_aborted_cert", &Metrics::global_aborted_cert},
    {"global_aborted_dml", &Metrics::global_aborted_dml},
    {"global_aborted_timeout", &Metrics::global_aborted_timeout},
    {"retransmits", &Metrics::retransmits},
    {"dup_msgs_absorbed", &Metrics::dup_msgs_absorbed},
    {"coordinator_crashes", &Metrics::coordinator_crashes},
    {"coordinator_redelivered_decisions",
     &Metrics::coordinator_redelivered_decisions},
    {"global_aborted_crash", &Metrics::global_aborted_crash},
    {"inquiries_sent", &Metrics::inquiries_sent},
    {"inquiries_answered_presumed_abort",
     &Metrics::inquiries_answered_presumed_abort},
    {"prepares_received", &Metrics::prepares_received},
    {"refuse_extension", &Metrics::refuse_extension},
    {"refuse_interval", &Metrics::refuse_interval},
    {"refuse_snapshot", &Metrics::refuse_snapshot},
    {"refuse_dead", &Metrics::refuse_dead},
    {"commit_cert_retries", &Metrics::commit_cert_retries},
    {"alive_checks", &Metrics::alive_checks},
    {"resubmissions", &Metrics::resubmissions},
    {"resubmission_failures", &Metrics::resubmission_failures},
    {"short_commits_1pc", &Metrics::short_commits_1pc},
    {"short_commits_readonly", &Metrics::short_commits_readonly},
    {"csn_assigned", &Metrics::csn_assigned},
    {"single_site_committed", &Metrics::single_site_committed},
    {"single_site_latency_total_us", &Metrics::single_site_latency_total},
    {"local_committed", &Metrics::local_committed},
    {"local_aborted", &Metrics::local_aborted},
    {"latency_samples", &Metrics::latency_samples},
    {"latency_total_us", &Metrics::latency_total},
    {"latency_max_us", &Metrics::latency_max},
    {"cgm_graph_rejections", &Metrics::cgm_graph_rejections},
    {"cgm_lock_timeouts", &Metrics::cgm_lock_timeouts},
    {"paxos_forced_writes", &Metrics::paxos_forced_writes},
    {"paxos_votes_accepted", &Metrics::paxos_votes_accepted},
    {"paxos_resolutions", &Metrics::paxos_resolutions},
    {"paxos_elections", &Metrics::paxos_elections},
    {"paxos_decided_fast", &Metrics::paxos_decided_fast},
    {"paxos_decided_resolved", &Metrics::paxos_decided_resolved},
    {"epoch_refusals", &Metrics::epoch_refusals},
    {"epoch_map_refreshes", &Metrics::epoch_map_refreshes},
    {"reconfig_started", &Metrics::reconfig_started},
    {"reconfig_completed", &Metrics::reconfig_completed},
    {"reconfig_rows_moved", &Metrics::reconfig_rows_moved},
    {"reconfig_residue_adopted", &Metrics::reconfig_residue_adopted},
    {"reconfig_forced_aborts", &Metrics::reconfig_forced_aborts},
    {"commits_stale_epoch", &Metrics::commits_stale_epoch},
    {"trace_events_emitted", &Metrics::trace_events_emitted},
    {"trace_events_dropped", &Metrics::trace_events_dropped},
    {"trace_sampled_out", &Metrics::trace_sampled_out},
};

}  // namespace

std::span<const MetricsCounter> MetricsCounters() { return kCounters; }

void Metrics::Merge(const Metrics& o) {
  for (const MetricsCounter& c : kCounters) {
    if (c.field == &Metrics::latency_max) {
      this->*c.field = std::max(this->*c.field, o.*c.field);
    } else {
      this->*c.field += o.*c.field;
    }
  }
  latency_hist.Merge(o.latency_hist);
}

std::vector<std::pair<const char*, int64_t>> Metrics::CounterEntries() const {
  std::vector<std::pair<const char*, int64_t>> out;
  out.reserve(std::size(kCounters));
  for (const MetricsCounter& c : kCounters) {
    out.emplace_back(c.name, this->*c.field);
  }
  return out;
}

std::string MetricsPrometheusText(const Metrics& total,
                                  const std::vector<Metrics>& per_site) {
  std::string out;
  std::vector<std::vector<std::pair<const char*, int64_t>>> site_entries;
  site_entries.reserve(per_site.size());
  for (const Metrics& m : per_site) site_entries.push_back(m.CounterEntries());

  const auto entries = total.CounterEntries();
  for (size_t i = 0; i < entries.size(); ++i) {
    StrAppend(out, "# TYPE hermes_", entries[i].first, " counter\n");
    StrAppend(out, "hermes_", entries[i].first, " ", entries[i].second, "\n");
    for (size_t s = 0; s < site_entries.size(); ++s) {
      StrAppend(out, "hermes_", entries[i].first, "{site=\"", s, "\"} ",
                site_entries[s][i].second, "\n");
    }
  }

  // Commit latency as a cumulative Prometheus histogram (bucket upper
  // bounds are this histogram's power-of-two boundaries, in microseconds).
  StrAppend(out, "# TYPE hermes_latency_us histogram\n");
  int64_t cumulative = 0;
  for (int i = 0; i < trace::Histogram::kBuckets; ++i) {
    cumulative += total.latency_hist.bucket(i);
    if (total.latency_hist.bucket(i) == 0) continue;  // keep the dump short
    const int64_t le = i == 0 ? 0 : (int64_t{1} << i);
    StrAppend(out, "hermes_latency_us_bucket{le=\"", le, "\"} ", cumulative,
              "\n");
  }
  StrAppend(out, "hermes_latency_us_bucket{le=\"+Inf\"} ",
            total.latency_hist.count(), "\n");
  StrAppend(out, "hermes_latency_us_sum ", total.latency_total, "\n");
  StrAppend(out, "hermes_latency_us_count ", total.latency_samples, "\n");
  return out;
}

std::string Metrics::ToString() const {
  std::string out;
  StrAppend(out, "global: committed=", global_committed,
            " aborted=", global_aborted, " (cert=", global_aborted_cert,
            ", dml=", global_aborted_dml,
            ", timeout=", global_aborted_timeout, ")\n");
  StrAppend(out, "network: retransmits=", retransmits,
            " dup_msgs_absorbed=", dup_msgs_absorbed, "\n");
  StrAppend(out, "recovery: coordinator_crashes=", coordinator_crashes,
            " redelivered_decisions=", coordinator_redelivered_decisions,
            " aborted_crash=", global_aborted_crash,
            " inquiries_sent=", inquiries_sent,
            " presumed_abort_replies=", inquiries_answered_presumed_abort,
            "\n");
  StrAppend(out, "certifier: prepares=", prepares_received,
            " refuse[ext=", refuse_extension, " interval=", refuse_interval,
            " snapshot=", refuse_snapshot, " dead=", refuse_dead,
            "] commit_retries=", commit_cert_retries,
            " resubmissions=", resubmissions, "\n");
  if (short_commits_1pc + short_commits_readonly + csn_assigned > 0) {
    StrAppend(out, "short_commit: 1pc=", short_commits_1pc,
              " readonly=", short_commits_readonly,
              " csn_assigned=", csn_assigned,
              " single_site_committed=", single_site_committed, "\n");
  }
  if (reconfig_started + epoch_refusals > 0) {
    StrAppend(out, "reconfig: started=", reconfig_started,
              " completed=", reconfig_completed,
              " rows_moved=", reconfig_rows_moved,
              " residue_adopted=", reconfig_residue_adopted,
              " forced_aborts=", reconfig_forced_aborts,
              " epoch_refusals=", epoch_refusals,
              " map_refreshes=", epoch_map_refreshes,
              " stale_commits=", commits_stale_epoch, "\n");
  }
  if (trace_events_emitted > 0) {
    StrAppend(out, "trace: emitted=", trace_events_emitted,
              " dropped=", trace_events_dropped,
              " sampled_out=", trace_sampled_out, "\n");
  }
  StrAppend(out, "local: committed=", local_committed,
            " aborted=", local_aborted, "\n");
  StrAppend(out, "latency: mean_ms=", MeanLatencyMs(),
            " p50_ms=", latency_hist.PercentileMs(50),
            " p95_ms=", latency_hist.PercentileMs(95),
            " p99_ms=", latency_hist.PercentileMs(99),
            " max_ms=", static_cast<double>(latency_max) / 1000.0, "\n");
  return out;
}

}  // namespace hermes::core
