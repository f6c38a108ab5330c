#include "trace/perfetto.h"

#include <set>

#include "common/json.h"
#include "common/str.h"

namespace hermes::trace {

namespace {

// Track id for a span: participants draw on their own site's track, the
// root transaction span on its coordinator's.
int32_t TrackOf(const Span& s) { return s.site == kInvalidSite ? 0 : s.site; }

void AppendSpanEvent(std::string& out, const SpanForest& forest,
                     const Span& s, bool& first) {
  if (s.begin < 0) return;  // never observed opening; nothing to draw
  if (!first) out += ",\n";
  first = false;
  const bool unclosed = s.end < 0;
  const sim::Time end = unclosed ? forest.trace_end : s.end;
  std::string name = StrCat(SpanKindName(s.kind), " ", EncodeTxnId(s.txn));
  if (s.kind == SpanKind::kResubmission && s.resubmission >= 0) {
    StrAppend(name, " j=", s.resubmission);
  }
  out += "{\"name\":";
  json::AppendString(out, name);
  StrAppend(out, ",\"cat\":\"", SpanKindName(s.kind),
            "\",\"ph\":\"X\",\"ts\":", s.begin, ",\"dur\":",
            end - s.begin, ",\"pid\":0,\"tid\":", TrackOf(s));
  out += ",\"args\":{\"txn\":";
  json::AppendString(out, EncodeTxnId(s.txn));
  StrAppend(out, ",\"ok\":", s.ok);
  if (s.refuse != RefuseKind::kNone) {
    out += ",\"refuse\":";
    json::AppendString(out, RefuseKindName(s.refuse));
  }
  if (s.resubmission >= 0) StrAppend(out, ",\"j\":", s.resubmission);
  if (unclosed) out += ",\"unclosed\":true";
  if (!s.notes.empty()) {
    StrAppend(out, ",\"notes\":", s.notes.size());
  }
  out += "}}";
}

void AppendInstant(std::string& out, const Event& e, bool& first) {
  std::string name;
  switch (e.kind) {
    case EventKind::kSiteCrash:
      name = "site_crash";
      break;
    case EventKind::kSiteRecover:
      name = "site_recover";
      break;
    case EventKind::kFaultEvent:
      name = e.detail.empty() ? std::string("fault") : e.detail;
      break;
    default:
      return;
  }
  if (!first) out += ",\n";
  first = false;
  out += "{\"name\":";
  json::AppendString(out, name);
  StrAppend(out, ",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"t\",\"ts\":",
            e.at < 0 ? 0 : e.at, ",\"pid\":0,\"tid\":",
            e.site == kInvalidSite ? 0 : e.site, "}");
}

}  // namespace

std::string ExportPerfetto(const SpanForest& forest,
                           const std::vector<Event>& events) {
  std::set<int32_t> tracks;
  for (const Span& s : forest.spans) tracks.insert(TrackOf(s));
  for (const Event& e : events) {
    if (e.kind == EventKind::kSiteCrash || e.kind == EventKind::kSiteRecover ||
        e.kind == EventKind::kFaultEvent) {
      tracks.insert(e.site == kInvalidSite ? 0 : e.site);
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (int32_t tid : tracks) {  // std::set: sorted, deterministic
    if (!first) out += ",\n";
    first = false;
    StrAppend(out,
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":",
              tid, ",\"args\":{\"name\":\"site ", tid, "\"}}");
  }
  for (const Span& s : forest.spans) {
    AppendSpanEvent(out, forest, s, first);
  }
  for (const Event& e : events) {
    AppendInstant(out, e, first);
  }
  out += "\n]}\n";
  return out;
}

}  // namespace hermes::trace
