#include "runner/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/str.h"
#include "history/view_checker.h"
#include "trace/trace.h"

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
  const bool violated =
      r.history_checked &&
      (!r.replay_consistent || !r.order_invariant_ok ||
       !r.commit_graph_acyclic || !r.atomicity_ok ||
       r.verdict == history::Verdict::kNotSerializable);
  Add("violations", violated ? 1.0 : 0.0);
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

void AppendJsonDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";
    return;
  }
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

namespace {

void AppendStatEntry(std::string& out, const std::string& name,
                     const Stat& s, bool last) {
  out += "        ";
  trace::AppendJsonString(out, name);
  StrAppend(out, ": {\"count\": ", s.count, ", \"sum\": ");
  AppendJsonDouble(out, s.sum);
  out += ", \"mean\": ";
  AppendJsonDouble(out, s.mean());
  out += ", \"min\": ";
  AppendJsonDouble(out, s.min);
  out += ", \"max\": ";
  AppendJsonDouble(out, s.max);
  out += last ? "}\n" : "},\n";
}

void AppendCell(std::string& out, const CellAggregate& cell) {
  out += "    {\n      \"cell\": ";
  trace::AppendJsonString(out, cell.cell);
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
  trace::AppendJsonString(out, a.bench);
  out += ",\n  \"config\": ";
  trace::AppendJsonString(out, a.config);
  StrAppend(out, ",\n  \"seed\": ", a.seed, ",\n  \"workers\": ", a.workers,
            ",\n  \"headers\": [");
  for (size_t i = 0; i < a.headers.size(); ++i) {
    if (i > 0) out += ", ";
    trace::AppendJsonString(out, a.headers[i]);
  }
  out += "],\n  \"rows\": [";
  for (size_t r = 0; r < a.rows.size(); ++r) {
    out += r == 0 ? "\n    {" : ",\n    {";
    for (size_t i = 0; i < a.rows[r].size() && i < a.headers.size(); ++i) {
      if (i > 0) out += ", ";
      trace::AppendJsonString(out, a.headers[i]);
      out += ": ";
      trace::AppendJsonString(out, a.rows[r][i]);
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

namespace {

// Recursive-descent parser for the exact grammar EncodeBenchArtifact
// emits: whitespace-insensitive, but keys must appear in the canonical
// order and nothing else is accepted (so any unknown key is a parse
// error by construction). Derived fields (runs, mean, percentiles) are
// parsed and discarded; Encode recomputes them, which is what makes
// Encode(Parse(Encode(a))) byte-identical to Encode(a).
class ArtifactParser {
 public:
  explicit ArtifactParser(std::string_view in) : in_(in) {}

  Status Parse(BenchArtifact& out) {
    if (!Expect('{')) return Error();
    int64_t version = 0;
    if (!Key("schema_version") || !Int64(version)) return Error();
    if (version != BenchArtifact::kSchemaVersion) {
      return Status::InvalidArgument(
          StrCat("unsupported schema_version: ", version));
    }
    out.schema_version = static_cast<int>(version);
    if (!Expect(',') || !Key("bench") || !String(out.bench)) return Error();
    if (!Expect(',') || !Key("config") || !String(out.config)) {
      return Error();
    }
    if (!Expect(',') || !Key("seed") || !Uint64(out.seed)) return Error();
    if (!Expect(',') || !Key("workers") || !Int(out.workers)) return Error();
    if (!Expect(',') || !Key("headers") || !StringArray(out.headers)) {
      return Error();
    }
    if (!Expect(',') || !Key("rows")) return Error();
    Status s = ParseRows(out);
    if (!s.ok()) return s;
    if (!Expect(',') || !Key("cells")) return Error();
    s = ParseCells(out);
    if (!s.ok()) return s;
    if (!Expect('}')) return Error();
    SkipSpace();
    if (pos_ != in_.size()) return Fail("trailing characters");
    return Status::Ok();
  }

 private:
  Status ParseRows(BenchArtifact& out) {
    if (!Expect('[')) return Error();
    if (TryExpect(']')) return Status::Ok();
    while (true) {
      if (!Expect('{')) return Error();
      std::vector<std::string> row;
      if (!TryExpect('}')) {
        while (true) {
          std::string key, value;
          if (!String(key) || !Expect(':') || !String(value)) {
            return Error();
          }
          if (row.size() >= out.headers.size() ||
              key != out.headers[row.size()]) {
            return Fail(StrCat("row key out of header order: ", key));
          }
          row.push_back(std::move(value));
          if (TryExpect('}')) break;
          if (!Expect(',')) return Error();
        }
      }
      out.rows.push_back(std::move(row));
      if (TryExpect(']')) return Status::Ok();
      if (!Expect(',')) return Error();
    }
  }

  Status ParseCells(BenchArtifact& out) {
    if (!Expect('[')) return Error();
    if (TryExpect(']')) return Status::Ok();
    while (true) {
      CellAggregate cell;
      Status s = ParseCell(cell);
      if (!s.ok()) return s;
      out.cells.push_back(std::move(cell));
      if (TryExpect(']')) return Status::Ok();
      if (!Expect(',')) return Error();
    }
  }

  Status ParseCell(CellAggregate& cell) {
    if (!Expect('{')) return Error();
    if (!Key("cell") || !String(cell.cell)) return Error();
    int64_t runs = 0;  // derived: seeds.size()
    if (!Expect(',') || !Key("runs") || !Int64(runs)) return Error();
    if (!Expect(',') || !Key("seeds") || !Expect('[')) return Error();
    if (!TryExpect(']')) {
      while (true) {
        uint64_t seed = 0;
        if (!Uint64(seed)) return Error();
        cell.seeds.push_back(seed);
        if (TryExpect(']')) break;
        if (!Expect(',')) return Error();
      }
    }
    if (runs != static_cast<int64_t>(cell.seeds.size())) {
      return Fail("runs does not match seeds length");
    }
    if (!Expect(',') || !Key("stats") || !Expect('{')) return Error();
    if (!TryExpect('}')) {
      while (true) {
        std::string name;
        Stat stat;
        if (!String(name) || !Expect(':') || !ParseStat(stat)) {
          return Error();
        }
        if (cell.FindStat(name) != nullptr) {
          return Fail(StrCat("duplicate stat: ", name));
        }
        cell.stats.emplace_back(std::move(name), stat);
        if (TryExpect('}')) break;
        if (!Expect(',')) return Error();
      }
    }
    if (!Expect(',') || !Key("latency_us")) return Error();
    Status s = ParseLatency(cell);
    if (!s.ok()) return s;
    if (TryExpect(',')) {  // optional trailing series
      if (!Key("series")) return Error();
      s = ParseSeries(cell);
      if (!s.ok()) return s;
    }
    if (!Expect('}')) return Error();
    return Status::Ok();
  }

  Status ParseSeries(CellAggregate& cell) {
    if (!Expect('{') || !Key("window_us") ||
        !Int64(cell.series.window_us) || !Expect(',') || !Key("windows") ||
        !Expect('[')) {
      return Error();
    }
    if (cell.series.window_us <= 0) return Fail("bad series window_us");
    while (true) {
      trace::TimeSeries::Window w;
      if (!Expect('[') || !Int64(w.begun) || !Expect(',') ||
          !Int64(w.committed) || !Expect(',') || !Int64(w.aborted) ||
          !Expect(',') || !Int64(w.refusals) || !Expect(',') ||
          !Int64(w.resubmissions) || !Expect(',') ||
          !Int64(w.max_in_flight) || !Expect(',') ||
          !Int64(w.max_prepared) || !Expect(']')) {
        return Error();
      }
      cell.series.windows.push_back(w);
      if (TryExpect(']')) break;
      if (!Expect(',')) return Error();
    }
    // The encoder omits empty series entirely, so one window is the
    // grammar's minimum — and the empty-vs-absent ambiguity never arises.
    if (!Expect('}')) return Error();
    return Status::Ok();
  }

  bool ParseStat(Stat& stat) {
    double mean = 0;  // derived: sum / count
    return Expect('{') && Key("count") && Count(stat.count) &&
           Expect(',') && Key("sum") && Double(stat.sum) && Expect(',') &&
           Key("mean") && Double(mean) && Expect(',') && Key("min") &&
           Double(stat.min) && Expect(',') && Key("max") &&
           Double(stat.max) && Expect('}');
  }

  Status ParseLatency(CellAggregate& cell) {
    // count and the percentiles are derived from the buckets; min/max are
    // carried explicitly because buckets only bound them.
    int64_t count = 0, min = 0, max = 0, p = 0;
    if (!Expect('{') || !Key("count") || !Int64(count) || !Expect(',') ||
        !Key("min") || !Int64(min) || !Expect(',') || !Key("max") ||
        !Int64(max) || !Expect(',') || !Key("p50") || !Int64(p) ||
        !Expect(',') || !Key("p95") || !Int64(p) || !Expect(',') ||
        !Key("p99") || !Int64(p) || !Expect(',') || !Key("buckets") ||
        !Expect('[')) {
      return Error();
    }
    std::array<int64_t, trace::Histogram::kBuckets> buckets{};
    if (!TryExpect(']')) {
      while (true) {
        int64_t index = 0, n = 0;
        if (!Expect('[') || !Int64(index) || !Expect(',') || !Count(n) ||
            !Expect(']')) {
          return Error();
        }
        if (index < 0 || index >= trace::Histogram::kBuckets) {
          return Fail(StrCat("bucket index out of range: ", index));
        }
        buckets[static_cast<size_t>(index)] = n;
        if (TryExpect(']')) break;
        if (!Expect(',')) return Error();
      }
    }
    if (!Expect('}')) return Error();
    cell.latency = trace::Histogram::FromParts(buckets, min, max);
    if (cell.latency.count() != count) {
      return Fail("latency count does not match bucket sum");
    }
    return Status::Ok();
  }

  // --- lexing helpers -------------------------------------------------

  void SkipSpace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\n' || in_[pos_] == '\t' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Expect(char c) {
    SkipSpace();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return Fail2(StrCat("expected '", std::string(1, c), "'"));
  }

  bool TryExpect(char c) {
    SkipSpace();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  // Consumes `"name":`. Any other key fails the parse — the canonical
  // grammar has no optional or reordered fields.
  bool Key(std::string_view name) {
    std::string got;
    if (!String(got)) return false;
    if (got != name) {
      return Fail2(StrCat("expected key \"", std::string(name),
                          "\", got \"", got, "\""));
    }
    return Expect(':');
  }

  bool String(std::string& out) {
    SkipSpace();
    if (pos_ >= in_.size() || in_[pos_] != '"') {
      return Fail2("expected string");
    }
    ++pos_;
    out.clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= in_.size()) return Fail2("dangling escape");
      char esc = in_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > in_.size()) return Fail2("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail2("bad \\u escape");
            }
          }
          if (code > 0x7f) return Fail2("non-ASCII \\u escape unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          return Fail2("unknown escape");
      }
    }
    return Fail2("unterminated string");
  }

  bool Int64(int64_t& out) {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start || (in_[start] == '-' && pos_ == start + 1)) {
      return Fail2("expected integer");
    }
    errno = 0;
    out = std::strtoll(std::string(in_.substr(start, pos_ - start)).c_str(),
                       nullptr, 10);
    if (errno == ERANGE) return Fail2("integer out of range");
    return true;
  }

  bool Int(int& out) {
    int64_t v = 0;
    if (!Int64(v)) return false;
    if (v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max()) {
      return Fail2("integer out of range");
    }
    out = static_cast<int>(v);
    return true;
  }

  // A number of occurrences: an integer that cannot be negative.
  bool Count(int64_t& out) {
    if (!Int64(out)) return false;
    if (out < 0) return Fail2("negative count");
    return true;
  }

  bool Uint64(uint64_t& out) {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] >= '0' && in_[pos_] <= '9') {
      ++pos_;
    }
    if (pos_ == start) return Fail2("expected unsigned integer");
    errno = 0;
    out = std::strtoull(std::string(in_.substr(start, pos_ - start)).c_str(),
                        nullptr, 10);
    if (errno == ERANGE) return Fail2("integer out of range");
    return true;
  }

  bool Double(double& out) {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() &&
           ((in_[pos_] >= '0' && in_[pos_] <= '9') || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E' || in_[pos_] == '+' ||
            in_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail2("expected number");
    char* end = nullptr;
    const std::string text(in_.substr(start, pos_ - start));
    out = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) return Fail2("bad number");
    return true;
  }

  bool StringArray(std::vector<std::string>& out) {
    if (!Expect('[')) return false;
    if (TryExpect(']')) return true;
    while (true) {
      std::string s;
      if (!String(s)) return false;
      out.push_back(std::move(s));
      if (TryExpect(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Fail2(std::string message) {
    if (error_.empty()) {
      error_ = StrCat(std::move(message), " at offset ", pos_);
    }
    return false;
  }

  Status Fail(std::string message) {
    Fail2(std::move(message));
    return Error();
  }

  Status Error() const {
    return Status::InvalidArgument(
        error_.empty() ? "parse error" : error_);
  }

  std::string_view in_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

Result<BenchArtifact> ParseBenchArtifact(const std::string& json) {
  BenchArtifact out;
  ArtifactParser parser(json);
  Status s = parser.Parse(out);
  if (!s.ok()) return s;
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
