#include "runner/aggregate.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"
#include "common/str.h"

namespace hermes::runner {

void Stat::Add(double v) {
  if (count == 0 || v < min) min = v;
  if (count == 0 || v > max) max = v;
  sum += v;
  ++count;
}

void Stat::Merge(const Stat& other) {
  if (other.count == 0) return;
  if (count == 0) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
  sum += other.sum;
  count += other.count;
}

void CellAggregate::Add(const std::string& name, double value) {
  for (auto& [n, stat] : stats) {
    if (n == name) {
      stat.Add(value);
      return;
    }
  }
  stats.emplace_back(name, Stat{});
  stats.back().second.Add(value);
}

void CellAggregate::AddRun(uint64_t seed, const workload::RunResult& r) {
  seeds.push_back(seed);
  const core::Metrics& m = r.metrics;
  Add("committed", static_cast<double>(m.global_committed));
  Add("aborted", static_cast<double>(m.global_aborted));
  Add("aborted_cert", static_cast<double>(m.global_aborted_cert));
  Add("aborted_dml", static_cast<double>(m.global_aborted_dml));
  Add("aborted_timeout", static_cast<double>(m.global_aborted_timeout));
  Add("resubmissions", static_cast<double>(m.resubmissions));
  Add("resubmission_failures",
      static_cast<double>(m.resubmission_failures));
  Add("refuse_interval", static_cast<double>(m.refuse_interval));
  Add("refuse_extension", static_cast<double>(m.refuse_extension));
  Add("refuse_dead", static_cast<double>(m.refuse_dead));
  Add("refuse_snapshot", static_cast<double>(m.refuse_snapshot));
  Add("commit_cert_retries", static_cast<double>(m.commit_cert_retries));
  Add("short_commits_1pc", static_cast<double>(m.short_commits_1pc));
  Add("short_commits_readonly",
      static_cast<double>(m.short_commits_readonly));
  Add("csn_assigned", static_cast<double>(m.csn_assigned));
  Add("single_site_committed",
      static_cast<double>(m.single_site_committed));
  Add("single_site_lat_total_us",
      static_cast<double>(m.single_site_latency_total));
  Add("retransmits", static_cast<double>(m.retransmits));
  Add("dup_absorbed", static_cast<double>(m.dup_msgs_absorbed));
  Add("aborted_crash", static_cast<double>(m.global_aborted_crash));
  Add("coordinator_crashes", static_cast<double>(m.coordinator_crashes));
  Add("redelivered_decisions",
      static_cast<double>(m.coordinator_redelivered_decisions));
  Add("inquiries", static_cast<double>(m.inquiries_sent));
  Add("inquiries_presumed_abort",
      static_cast<double>(m.inquiries_answered_presumed_abort));
  Add("local_committed", static_cast<double>(m.local_committed));
  Add("local_aborted", static_cast<double>(m.local_aborted));
  Add("paxos_forced_writes", static_cast<double>(m.paxos_forced_writes));
  Add("paxos_votes_accepted", static_cast<double>(m.paxos_votes_accepted));
  Add("paxos_resolutions", static_cast<double>(m.paxos_resolutions));
  Add("paxos_elections", static_cast<double>(m.paxos_elections));
  Add("paxos_decided_fast", static_cast<double>(m.paxos_decided_fast));
  Add("paxos_decided_resolved",
      static_cast<double>(m.paxos_decided_resolved));
  Add("epoch_refusals", static_cast<double>(m.epoch_refusals));
  Add("epoch_map_refreshes", static_cast<double>(m.epoch_map_refreshes));
  Add("reconfig_started", static_cast<double>(m.reconfig_started));
  Add("reconfig_completed", static_cast<double>(m.reconfig_completed));
  Add("reconfig_rows_moved", static_cast<double>(m.reconfig_rows_moved));
  Add("reconfig_residue_adopted",
      static_cast<double>(m.reconfig_residue_adopted));
  Add("reconfig_forced_aborts",
      static_cast<double>(m.reconfig_forced_aborts));
  Add("commits_stale_epoch", static_cast<double>(m.commits_stale_epoch));
  Add("trace_emitted", static_cast<double>(m.trace_events_emitted));
  Add("trace_dropped", static_cast<double>(m.trace_events_dropped));
  Add("trace_sampled_out", static_cast<double>(m.trace_sampled_out));
  Add("messages", static_cast<double>(r.messages));
  Add("dropped", static_cast<double>(r.msgs_dropped));
  Add("duplicated", static_cast<double>(r.msgs_duplicated));
  Add("reordered", static_cast<double>(r.msgs_reordered));
  Add("events", static_cast<double>(r.events));
  Add("end_time_ms", static_cast<double>(r.end_time) / 1000.0);
  Add("tput", r.CommitsPerSecond());
  Add("mean_lat_ms", m.MeanLatencyMs());
  Add("violations", (r.history_checked && !r.GuaranteesHold()) ? 1.0 : 0.0);
  latency.Merge(m.latency_hist);
  series.Merge(r.series);
}

const Stat* CellAggregate::FindStat(const std::string& name) const {
  for (const auto& [n, stat] : stats) {
    if (n == name) return &stat;
  }
  return nullptr;
}

double CellAggregate::Mean(const std::string& name) const {
  const Stat* s = FindStat(name);
  return s == nullptr ? 0.0 : s->mean();
}

double CellAggregate::Sum(const std::string& name) const {
  const Stat* s = FindStat(name);
  return s == nullptr ? 0.0 : s->sum;
}

CellAggregate& Aggregator::Cell(const std::string& name) {
  for (CellAggregate& c : cells_) {
    if (c.cell == name) return c;
  }
  cells_.emplace_back();
  cells_.back().cell = name;
  return cells_.back();
}

void Aggregator::AddRun(const std::string& cell, uint64_t seed,
                        const workload::RunResult& r) {
  Cell(cell).AddRun(seed, r);
}

namespace {

void AppendStatEntry(std::string& out, const std::string& name,
                     const Stat& s, bool last) {
  out += "        ";
  json::AppendString(out, name);
  StrAppend(out, ": {\"count\": ", s.count, ", \"sum\": ");
  json::AppendDouble(out, s.sum);
  out += ", \"mean\": ";
  json::AppendDouble(out, s.mean());
  out += ", \"min\": ";
  json::AppendDouble(out, s.min);
  out += ", \"max\": ";
  json::AppendDouble(out, s.max);
  out += last ? "}\n" : "},\n";
}

void AppendCell(std::string& out, const CellAggregate& cell) {
  out += "    {\n      \"cell\": ";
  json::AppendString(out, cell.cell);
  StrAppend(out, ",\n      \"runs\": ", cell.seeds.size(),
            ",\n      \"seeds\": [");
  for (size_t i = 0; i < cell.seeds.size(); ++i) {
    if (i > 0) out += ", ";
    StrAppend(out, cell.seeds[i]);
  }
  out += "],\n      \"stats\": {\n";
  for (size_t i = 0; i < cell.stats.size(); ++i) {
    AppendStatEntry(out, cell.stats[i].first, cell.stats[i].second,
                    i + 1 == cell.stats.size());
  }
  out += "      },\n      \"latency_us\": {";
  const trace::Histogram& h = cell.latency;
  StrAppend(out, "\"count\": ", h.count(), ", \"min\": ", h.min(),
            ", \"max\": ", h.max(), ", \"p50\": ", h.Percentile(50),
            ", \"p95\": ", h.Percentile(95),
            ", \"p99\": ", h.Percentile(99), ", \"buckets\": [");
  bool first = true;
  for (int b = 0; b < trace::Histogram::kBuckets; ++b) {
    if (h.bucket(b) == 0) continue;
    if (!first) out += ", ";
    first = false;
    StrAppend(out, "[", b, ", ", h.bucket(b), "]");
  }
  out += "]}";
  // Optional key: only traced cells carry a series, and old artifacts
  // without one still parse (and re-encode byte-identically).
  if (!cell.series.empty()) {
    StrAppend(out, ",\n      \"series\": {\"window_us\": ",
              cell.series.window_us, ", \"windows\": [");
    for (size_t w = 0; w < cell.series.windows.size(); ++w) {
      const trace::TimeSeries::Window& win = cell.series.windows[w];
      if (w > 0) out += ", ";
      StrAppend(out, "[", win.begun, ", ", win.committed, ", ", win.aborted,
                ", ", win.refusals, ", ", win.resubmissions, ", ",
                win.max_in_flight, ", ", win.max_prepared, "]");
    }
    out += "]}";
  }
  out += "\n    }";
}

}  // namespace

std::string EncodeBenchArtifact(const BenchArtifact& a) {
  std::string out = "{\n  \"schema_version\": ";
  StrAppend(out, a.schema_version);
  out += ",\n  \"bench\": ";
  json::AppendString(out, a.bench);
  out += ",\n  \"config\": ";
  json::AppendString(out, a.config);
  StrAppend(out, ",\n  \"seed\": ", a.seed, ",\n  \"workers\": ", a.workers,
            ",\n  \"headers\": [");
  for (size_t i = 0; i < a.headers.size(); ++i) {
    if (i > 0) out += ", ";
    json::AppendString(out, a.headers[i]);
  }
  out += "],\n  \"rows\": [";
  for (size_t r = 0; r < a.rows.size(); ++r) {
    out += r == 0 ? "\n    {" : ",\n    {";
    for (size_t i = 0; i < a.rows[r].size() && i < a.headers.size(); ++i) {
      if (i > 0) out += ", ";
      json::AppendString(out, a.headers[i]);
      out += ": ";
      json::AppendString(out, a.rows[r][i]);
    }
    out += "}";
  }
  out += a.rows.empty() ? "],\n" : "\n  ],\n";
  out += "  \"cells\": [";
  for (size_t c = 0; c < a.cells.size(); ++c) {
    out += c == 0 ? "\n" : ",\n";
    AppendCell(out, a.cells[c]);
  }
  out += a.cells.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

bool WriteBenchArtifactFile(const BenchArtifact& artifact) {
  const std::string out = EncodeBenchArtifact(artifact);
  const std::string path = StrCat("BENCH_", artifact.bench, ".json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool ok = std::fclose(f) == 0 && written == out.size();
  if (ok) std::printf("\nartifact: %s\n", path.c_str());
  return ok;
}

}  // namespace hermes::runner
