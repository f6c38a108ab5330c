// tmstat — offline trace analysis for hermes runs.
//
// Reads a binary trace (magic "HTRB": what bench_suite --only=<sweep>
// --trace-out writes, or a program's Tracer::ToBinary) and prints
// reports read from one fold of it, the causal span forest, or from the
// parsed events: per-transaction timelines, the 2PC critical-path phase
// breakdown, prepared blocking-window statistics, certification refusal
// conflicts, resubmission chains and the windowed virtual-time series.
// Optionally exports the span forest as a Chrome/Perfetto trace (load the
// file at https://ui.perfetto.dev).
//
// Usage:
//   tmstat <trace.bin>
//          [--report=summary|timeline|spans|critical-path|
//                    blocking|refusals|resubmissions|timeseries|all]
//          [--txn=G0.1] [--window-ms=N] [--perfetto=OUT.trace.json]
//
// Parsing is lenient: a file cut mid-record yields its whole records and
// undecodable records are skipped, instead of aborting the report — but
// the exit code is then nonzero (1) and one line gives the recovered
// record count, so pipelines cannot mistake a partially-read trace for a
// complete one. A file that is not a binary trace (no magic) takes the
// same path with nothing recovered.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/str.h"
#include "trace/binary.h"
#include "trace/critical_path.h"
#include "trace/perfetto.h"
#include "trace/span.h"
#include "trace/timeseries.h"
#include "trace/trace.h"

namespace {

using namespace hermes;  // NOLINT: single-file CLI

int Usage() {
  std::fprintf(
      stderr,
      "usage: tmstat <trace.bin> [--report=summary|timeline|spans|\n"
      "               critical-path|blocking|refusals|resubmissions|\n"
      "               timeseries|all]\n"
      "              [--txn=G0.1] [--window-ms=N]\n"
      "              [--perfetto=OUT.trace.json]\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0 && written == text.size();
}

// One event of a --txn timeline: its time, kind and the fields it sets.
std::string EventLine(const trace::Event& e) {
  std::string line =
      StrCat("t=", e.at, " ", trace::EventKindName(e.kind), " site=", e.site);
  if (e.peer != kInvalidSite) StrAppend(line, " peer=", e.peer);
  if (e.resubmission >= 0) StrAppend(line, " resub=", e.resubmission);
  if (e.value >= 0) StrAppend(line, " value=", e.value);
  if (e.sn.valid()) StrAppend(line, " ", e.sn.ToString());
  if (e.refuse != trace::RefuseKind::kNone) {
    StrAppend(line, " refuse=", trace::RefuseKindName(e.refuse));
  }
  StrAppend(line, e.ok ? " ok" : " not-ok");
  if (!e.related.empty()) {
    StrAppend(line, " related=", trace::EncodeRelated(e.related));
  }
  if (!e.detail.empty()) StrAppend(line, " (", e.detail, ")");
  return line;
}

void Section(const char* title) {
  std::printf("=== %s ===\n", title);
}

struct Options {
  std::string path;
  std::string report = "summary";
  std::string txn;
  std::string perfetto_out;
  int64_t window_ms = 100;
};

bool WantReport(const Options& opt, const char* name) {
  return opt.report == name || opt.report == "all";
}

// The resubmission history of one global subtransaction at one site
// (T^s_k0, T^s_k1, ... in the paper): its unilateral aborts and the
// resubmitted incarnations, read off the span forest.
struct Chain {
  int unilateral_aborts = 0;
  std::vector<const trace::Span*> attempts;  // kResubmission, in order
  bool locally_committed = false;
};

using ChainKey = std::pair<TxnId, SiteId>;

// Groups the forest's kResubmission spans and unilateral_abort notes by
// (txn, site). A note sits on the site's blocked window or resubmission
// span, or on the root with an "@<site>" suffix. A chain committed
// locally when its site's blocking window closed with the commit.
std::map<ChainKey, Chain> CollectChains(const trace::SpanForest& forest) {
  std::map<ChainKey, Chain> chains;
  for (const trace::Span& s : forest.spans) {
    if (s.kind == trace::SpanKind::kResubmission) {
      chains[{s.txn, s.site}].attempts.push_back(&s);
    }
    for (const trace::SpanNote& n : s.notes) {
      if (n.label.rfind("unilateral_abort", 0) != 0) continue;
      SiteId site = s.site;
      if (s.kind == trace::SpanKind::kTxn) {
        const size_t at = n.label.rfind('@');
        if (at == std::string::npos ||
            !json::ParseInt(std::string_view(n.label).substr(at + 1), site)) {
          continue;  // a damaged label names no site
        }
      }
      chains[{s.txn, site}].unilateral_aborts += 1;
    }
  }
  for (const trace::Span& s : forest.spans) {
    if (s.kind != trace::SpanKind::kBlocked || !s.closed() || !s.ok) continue;
    auto it = chains.find({s.txn, s.site});
    if (it != chains.end()) it->second.locally_committed = true;
  }
  return chains;
}

int64_t CountRefusals(const std::vector<trace::Event>& events) {
  return std::count_if(events.begin(), events.end(), [](const trace::Event& e) {
    return e.kind == trace::EventKind::kCertRefuse && e.txn.valid();
  });
}

void PrintSummary(const trace::SpanForest& forest,
                  const std::vector<trace::Event>& events) {
  Section("summary");
  int64_t committed = 0, aborted = 0, unfinished = 0;
  for (int32_t root_id : forest.roots) {
    const trace::Span& root = forest.spans[static_cast<size_t>(root_id)];
    if (!root.closed()) {
      ++unfinished;
    } else if (root.ok) {
      ++committed;
    } else {
      ++aborted;
    }
  }
  int64_t reconfigs = 0, handoffs = 0, epoch_refused = 0;
  for (const trace::Event& e : events) {
    if (e.kind == trace::EventKind::kReconfigDone) ++reconfigs;
    if (e.kind == trace::EventKind::kReconfigHandoff) ++handoffs;
    if (e.kind == trace::EventKind::kEpochRefused) ++epoch_refused;
  }
  std::string out = StrCat(
      "trace: ", events.size(), " events, ", forest.roots.size(),
      " transactions (", committed, " committed, ", aborted, " aborted, ",
      unfinished, " unfinished), ", CollectChains(forest).size(),
      " resubmission chain(s), ", CountRefusals(events),
      " certification refusal(s)");
  // Membership changes only clutter the summary of runs that had none.
  if (reconfigs + handoffs + epoch_refused > 0) {
    StrAppend(out, ", ", reconfigs, " reconfiguration(s) (", handoffs,
              " shard handoff(s), ", epoch_refused, " epoch refusal(s))");
  }
  std::printf("%s\n", out.c_str());
}

void PrintTimeline(const Options& opt, const trace::SpanForest& forest,
                   const std::vector<trace::Event>& events) {
  Section("timeline");
  if (!opt.txn.empty()) {
    // One transaction: its root line, then every event it took part in.
    const Result<TxnId> id = trace::DecodeTxnId(opt.txn);
    if (!id.ok()) {
      std::printf("bad --txn value: %s\n", opt.txn.c_str());
      return;
    }
    const trace::Span* root = forest.Root(*id);
    if (root == nullptr) {
      std::printf("%s: not in trace\n", opt.txn.c_str());
      return;
    }
    std::string line =
        StrCat(trace::EncodeTxnId(*id), " coordinator=", root->site);
    if (root->closed()) {
      StrAppend(line, root->ok ? " COMMITTED" : " ABORTED", " latency=",
                root->length(), "us");
    } else {
      line += " UNFINISHED";
    }
    std::printf("%s\n", line.c_str());
    for (const trace::Event& e : events) {
      if (e.txn == *id) std::printf("  %s\n", EventLine(e).c_str());
    }
    return;
  }
  // One line per global transaction (outcome and end-to-end latency), with
  // the run's membership-change markers interleaved at their virtual time.
  struct Line {
    sim::Time at;
    std::string text;
  };
  std::vector<Line> lines;
  for (int32_t root_id : forest.roots) {
    const trace::Span& root = forest.spans[static_cast<size_t>(root_id)];
    std::string line = StrCat(trace::EncodeTxnId(root.txn), " t=", root.begin);
    if (root.closed()) {
      StrAppend(line, " ", root.ok ? "COMMITTED" : "ABORTED", " latency=",
                root.length(), "us");
    } else {
      StrAppend(line, " UNFINISHED");
    }
    lines.push_back({root.begin, std::move(line)});
  }
  for (const trace::Event& e : events) {
    switch (e.kind) {
      case trace::EventKind::kReconfigBegin:
        lines.push_back(
            {e.at, StrCat("RECONFIG t=", e.at, " begin kind=", e.detail,
                          " site=", e.site, " successor=", e.peer,
                          " fence_epoch=", e.value)});
        break;
      case trace::EventKind::kReconfigHandoff:
        lines.push_back({e.at, StrCat("RECONFIG t=", e.at, " handoff ",
                                      e.site, " -> ", e.peer,
                                      " rows=", e.value)});
        break;
      case trace::EventKind::kReconfigDone:
        lines.push_back(
            {e.at, StrCat("RECONFIG t=", e.at, " done kind=", e.detail,
                          " site=", e.site, " epoch=", e.value)});
        break;
      case trace::EventKind::kEpochRefused:
        lines.push_back(
            {e.at, StrCat("EPOCH-REFUSED t=", e.at, " ",
                          trace::EncodeTxnId(e.txn), " at site=", e.site,
                          " sender=", e.peer, " msg=", e.detail,
                          " current_epoch=", e.value)});
        break;
      default:
        break;
    }
  }
  std::stable_sort(lines.begin(), lines.end(),
                   [](const Line& a, const Line& b) { return a.at < b.at; });
  for (const Line& l : lines) std::printf("%s\n", l.text.c_str());
}

void PrintSpans(const Options& opt, const trace::SpanForest& forest) {
  Section("spans");
  if (!opt.txn.empty()) {
    const Result<TxnId> id = trace::DecodeTxnId(opt.txn);
    if (!id.ok()) {
      std::printf("bad --txn value: %s\n", opt.txn.c_str());
      return;
    }
    const trace::Span* root = forest.Root(*id);
    if (root == nullptr) {
      std::printf("no spans for %s\n", opt.txn.c_str());
      return;
    }
    trace::SpanForest one;
    one.spans = forest.spans;
    one.trace_end = forest.trace_end;
    one.roots.push_back(root->id);
    std::printf("%s", one.ToString().c_str());
    return;
  }
  std::printf("%s", forest.ToString().c_str());
}

void PrintCriticalPath(const Options& opt,
                       const trace::CriticalPathReport& report) {
  Section("critical-path");
  std::printf("%s", report.ToString().c_str());
  if (!opt.txn.empty()) {
    const Result<TxnId> id = trace::DecodeTxnId(opt.txn);
    if (id.ok()) {
      const trace::TxnCriticalPath* cp = report.Find(*id);
      std::printf("%s\n", cp != nullptr
                              ? cp->ToString().c_str()
                              : StrCat("no finished transaction ", opt.txn)
                                    .c_str());
    }
  }
}

void PrintBlocking(const trace::SpanForest& forest,
                   const trace::CriticalPathReport& report) {
  Section("blocking");
  std::printf("%s\n", report.blocking.ToString().c_str());
  // The longest windows, worst first, with their probing activity.
  std::vector<const trace::Span*> windows;
  for (const trace::Span& s : forest.spans) {
    if (s.kind == trace::SpanKind::kBlocked && s.closed()) {
      windows.push_back(&s);
    }
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const trace::Span* a, const trace::Span* b) {
                     return a->length() > b->length();
                   });
  const size_t top = windows.size() < 10 ? windows.size() : 10;
  for (size_t i = 0; i < top; ++i) {
    const trace::Span& s = *windows[i];
    int64_t inquiries = 0;
    for (const trace::SpanNote& n : s.notes) {
      if (n.label.rfind("inquiry#", 0) == 0) ++inquiries;
    }
    std::printf("%s\n",
                StrCat("  ", trace::EncodeTxnId(s.txn), " site=", s.site,
                       " t=[", s.begin, "..", s.end, "] len=", s.length(),
                       "us -> ", s.ok ? "commit" : "abort",
                       " inquiries=", inquiries)
                    .c_str());
  }
}

// Every certification REFUSE with its kind, the conflicting transactions
// and the certifier's detail, straight from the kCertRefuse events.
void PrintRefusals(const std::vector<trace::Event>& events) {
  Section("refusals");
  if (CountRefusals(events) == 0) {
    std::printf("no certification refusals\n");
    return;
  }
  for (const trace::Event& e : events) {
    if (e.kind != trace::EventKind::kCertRefuse || !e.txn.valid()) continue;
    std::string line =
        StrCat("refuse ", trace::EncodeTxnId(e.txn), "@", e.site, " t=", e.at,
               " kind=", trace::RefuseKindName(e.refuse));
    for (size_t i = 0; i < e.related.size(); ++i) {
      StrAppend(line, i == 0 ? " conflicting=" : ",",
                trace::EncodeTxnId(e.related[i]));
    }
    if (!e.detail.empty()) StrAppend(line, " (", e.detail, ")");
    std::printf("%s\n", line.c_str());
  }
}

void PrintResubmissions(const trace::SpanForest& forest) {
  Section("resubmissions");
  const std::map<ChainKey, Chain> chains = CollectChains(forest);
  if (chains.empty()) {
    std::printf("no resubmission chains\n");
    return;
  }
  for (const auto& [key, c] : chains) {
    std::string line = StrCat(
        "chain ", trace::EncodeTxnId(key.first), "@", key.second, ": ",
        c.unilateral_aborts, " unilateral abort(s), ", c.attempts.size(),
        " resubmission(s)");
    for (const trace::Span* a : c.attempts) {
      StrAppend(line, " [j=", a->resubmission, " attempt=", a->value, " t=",
                a->begin,
                a->end >= 0 ? StrCat("..", a->end) : std::string("..died"),
                "]");
    }
    StrAppend(line, c.locally_committed ? " -> committed" : " -> not committed");
    std::printf("%s\n", line.c_str());
  }
}

void PrintTimeSeries(const Options& opt,
                     const std::vector<trace::Event>& events) {
  Section("timeseries");
  const trace::TimeSeries ts =
      trace::BuildTimeSeries(events, opt.window_ms * sim::kMillisecond);
  std::printf("%s", ts.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--report=", 0) == 0) {
      opt.report = arg.substr(9);
    } else if (arg.rfind("--txn=", 0) == 0) {
      opt.txn = arg.substr(6);
    } else if (arg.rfind("--window-ms=", 0) == 0) {
      if (!json::ParseInt(std::string_view(arg).substr(12), opt.window_ms) ||
          opt.window_ms <= 0) {
        return Usage();
      }
    } else if (arg.rfind("--perfetto=", 0) == 0) {
      opt.perfetto_out = arg.substr(11);
    } else if (!arg.empty() && arg[0] == '-') {
      return Usage();
    } else if (opt.path.empty()) {
      opt.path = arg;
    } else {
      return Usage();
    }
  }
  if (opt.path.empty()) return Usage();

  std::string text;
  if (!ReadFile(opt.path, text)) {
    std::fprintf(stderr, "tmstat: cannot read %s\n", opt.path.c_str());
    return 1;
  }
  trace::BinaryParse parsed = trace::ParseBinaryLenient(text);
  const bool partial = parsed.damaged();
  if (partial) {
    // One line with the whole-records-recovered count: fixed-width
    // records make the loss exact, and pipelines get exit code 1.
    std::fprintf(stderr,
                 "tmstat: damaged binary trace: %lld of %lld whole "
                 "record(s) recovered (%s) — reports reflect partial "
                 "data\n",
                 static_cast<long long>(parsed.events.size()),
                 static_cast<long long>(parsed.records_declared),
                 parsed.warnings.empty() ? "no detail"
                                         : parsed.warnings.front().c_str());
  }
  if (parsed.dropped > 0 || parsed.sampled_out > 0) {
    std::fprintf(stderr,
                 "tmstat: note: capture dropped %lld record(s) to ring "
                 "overflow, sampled out %lld\n",
                 static_cast<long long>(parsed.dropped),
                 static_cast<long long>(parsed.sampled_out));
  }
  const std::vector<trace::Event> events = std::move(parsed.events);

  const trace::SpanForest forest = trace::BuildSpanForest(events);
  const trace::CriticalPathReport cp = trace::AnalyzeCriticalPath(forest);

  std::printf("trace: %s — %zu events, %zu global txns, trace_end=%lld us\n",
              opt.path.c_str(), events.size(), forest.roots.size(),
              static_cast<long long>(forest.trace_end));

  if (WantReport(opt, "summary")) PrintSummary(forest, events);
  if (opt.report == "timeline") PrintTimeline(opt, forest, events);
  if (opt.report == "spans") PrintSpans(opt, forest);
  if (WantReport(opt, "critical-path")) PrintCriticalPath(opt, cp);
  if (WantReport(opt, "blocking")) PrintBlocking(forest, cp);
  if (WantReport(opt, "refusals")) PrintRefusals(events);
  if (WantReport(opt, "resubmissions")) PrintResubmissions(forest);
  if (WantReport(opt, "timeseries")) PrintTimeSeries(opt, events);

  if (!opt.perfetto_out.empty()) {
    const std::string json = trace::ExportPerfetto(forest, events);
    if (!WriteFile(opt.perfetto_out, json)) {
      std::fprintf(stderr, "tmstat: cannot write %s\n",
                   opt.perfetto_out.c_str());
      return 1;
    }
    std::printf("perfetto trace written: %s\n", opt.perfetto_out.c_str());
  }
  // Partial input is a failure even though the reports were printed:
  // callers scripting tmstat must not trust stats folded from a trace
  // with unparseable records.
  return partial ? 1 : 0;
}
