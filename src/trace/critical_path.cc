#include "trace/critical_path.h"

#include <algorithm>
#include <string_view>

#include "common/str.h"

namespace hermes::trace {

namespace {

int64_t Clamp(int64_t v, int64_t lo, int64_t hi) {
  return std::max(lo, std::min(v, hi));
}

bool HasPrefix(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

// "12.3%" with one decimal, round-half-up; "-" when the denominator is 0.
std::string Share(int64_t part, int64_t whole) {
  if (whole <= 0) return "-";
  const int64_t tenths = (part * 1000 + whole / 2) / whole;
  return StrCat(tenths / 10, ".", tenths % 10, "%");
}

// Latest retransmission wait inside [begin, end): the tail of the window
// after the *first* retransmit of the matching message kind fired, i.e.
// time that would not have been spent had the original message arrived.
int64_t RetxTail(const Span& root, std::string_view kind, sim::Time begin,
                 sim::Time end) {
  const std::string prefix = StrCat("retransmit(", kind, ")");
  for (const SpanNote& n : root.notes) {
    if (n.at < begin || n.at >= end) continue;
    if (HasPrefix(n.label, prefix)) return end - n.at;
  }
  return 0;
}

TxnCriticalPath AnalyzeTxn(const SpanForest& forest, const Span& root) {
  TxnCriticalPath cp;
  cp.txn = root.txn;
  cp.committed = root.ok;
  const sim::Time t0 = root.begin;
  const sim::Time tend = root.end;
  cp.phases.total = tend - t0;

  sim::Time dml_end = -1;
  sim::Time prep_begin = -1, prep_end = -1;
  sim::Time dec_begin = -1;
  sim::Time chosen = -1;  // earliest Paxos Commit outcome chosen
  sim::Duration cert_len = 0;
  sim::Time critical_vote = -1;
  for (int32_t id : root.children) {
    const Span& c = forest.spans[static_cast<size_t>(id)];
    switch (c.kind) {
      case SpanKind::kDml:
        if (c.closed()) dml_end = std::max(dml_end, c.end);
        break;
      case SpanKind::kPrepare:
        if (prep_begin < 0 || c.begin < prep_begin) prep_begin = c.begin;
        if (c.closed()) {
          prep_end = std::max(prep_end, c.end);
          if (c.end > critical_vote) {
            critical_vote = c.end;
            cp.critical_prepare_site = c.site;
          }
        }
        break;
      case SpanKind::kCertification:
        cert_len = std::max(cert_len, c.length());
        break;
      case SpanKind::kDecision:
        if (dec_begin < 0 || c.begin < dec_begin) dec_begin = c.begin;
        break;
      case SpanKind::kConsensus:
        // Several deciding nodes may run rounds (leader + elected
        // resolvers); the earliest chosen outcome is the one that ends
        // the acceptor round on the critical path.
        if (c.closed() && (chosen < 0 || c.end < chosen)) chosen = c.end;
        break;
      default:
        break;
    }
  }

  // Cut the coordinator timeline [t0, tend] at the observed boundaries,
  // clamping each cut to stay ordered so the segments always partition
  // the total even on truncated or abort-shortened transactions.
  const sim::Time a1 = dml_end >= 0 ? Clamp(dml_end, t0, tend) : t0;
  const sim::Time a2 = prep_begin >= 0 ? Clamp(prep_begin, a1, tend) : a1;
  const sim::Time a3 = prep_end >= 0 ? Clamp(prep_end, a2, tend) : a2;
  const sim::Time a4 = dec_begin >= 0 ? Clamp(dec_begin, a3, tend) : tend;

  cp.phases.dml = a1 - t0;
  cp.phases.other = a2 - a1;
  cp.phases.prepare = a3 - a2;
  // Under Paxos Commit the window between the last vote and the decision
  // fan-out splits at the instant the acceptor quorum chose the outcome:
  // before it the transaction is doing consensus work, after it the
  // coordinator is merely catching up (or crashed). 2PC has no consensus
  // span, so the whole window stays `blocked`.
  const sim::Time a3c = chosen >= 0 ? Clamp(chosen, a3, a4) : a3;
  cp.phases.consensus = a3c - a3;
  cp.phases.blocked = a4 - a3c;
  cp.phases.decision = tend - a4;

  // Certification runs inside the PREPARE round-trip; carve out the
  // longest participant's verdict time.
  cp.phases.certify = Clamp(cert_len, 0, cp.phases.prepare);
  cp.phases.prepare -= cp.phases.certify;

  // Phase tails spent waiting on a retransmitted message.
  const int64_t retx_dml = Clamp(RetxTail(root, "dml", t0, a1), 0,
                                 cp.phases.dml);
  cp.phases.dml -= retx_dml;
  const int64_t retx_prep = Clamp(RetxTail(root, "prepare", a2, a3), 0,
                                  cp.phases.prepare);
  cp.phases.prepare -= retx_prep;
  const int64_t retx_dec = Clamp(RetxTail(root, "decision", a4, tend), 0,
                                 cp.phases.decision);
  cp.phases.decision -= retx_dec;
  cp.phases.retx_wait = retx_dml + retx_prep + retx_dec;
  return cp;
}

}  // namespace

void PhaseBreakdown::Add(const PhaseBreakdown& o) {
  dml += o.dml;
  prepare += o.prepare;
  certify += o.certify;
  consensus += o.consensus;
  decision += o.decision;
  blocked += o.blocked;
  retx_wait += o.retx_wait;
  other += o.other;
  total += o.total;
}

std::string TxnCriticalPath::ToString() const {
  std::string out = StrCat(EncodeTxnId(txn), " ",
                           committed ? "committed" : "aborted", " total=",
                           phases.total, "us: dml=", phases.dml,
                           " prepare=", phases.prepare, " certify=",
                           phases.certify, " consensus=", phases.consensus,
                           " blocked=", phases.blocked,
                           " decision=", phases.decision, " retx_wait=",
                           phases.retx_wait, " other=", phases.other);
  if (critical_prepare_site != kInvalidSite) {
    StrAppend(out, " critical_prepare_site=", critical_prepare_site);
  }
  return out;
}

std::string BlockingWindowStats::ToString() const {
  std::string out =
      StrCat("blocking windows: ", windows, " closed, ", open_windows,
             " open; total=", total_us, "us mean=", MeanUs(), "us max=",
             max_us, "us inquiries=", inquiries);
  if (windows > 0) {
    StrAppend(out, " p50=", hist.Percentile(50), "us p95=",
              hist.Percentile(95), "us p99=", hist.Percentile(99), "us");
  }
  return out;
}

const TxnCriticalPath* CriticalPathReport::Find(const TxnId& txn) const {
  for (const TxnCriticalPath& cp : txns) {
    if (cp.txn == txn) return &cp;
  }
  return nullptr;
}

std::string CriticalPathReport::ToString() const {
  std::string out = StrCat("critical path: ", committed_txns, " committed, ",
                           aborted_txns, " aborted, ", unfinished_txns,
                           " unfinished\n");
  const int64_t n = committed_txns;
  const int64_t denom = committed_total.total;
  struct Row {
    const char* name;
    int64_t us;
  };
  const Row rows[] = {
      {"dml", committed_total.dml},         {"prepare", committed_total.prepare},
      {"certify", committed_total.certify},
      {"consensus", committed_total.consensus},
      {"blocked", committed_total.blocked},
      {"decision", committed_total.decision},
      {"retx_wait", committed_total.retx_wait},
      {"other", committed_total.other},     {"total", committed_total.total},
  };
  StrAppend(out, "  phase      total_us    mean_us   share\n");
  for (const Row& r : rows) {
    std::string name = r.name;
    name.append(name.size() < 11 ? 11 - name.size() : 0, ' ');
    std::string total_s = StrCat(r.us);
    std::string mean_s = StrCat(n > 0 ? r.us / n : 0);
    std::string share_s = Share(r.us, denom);
    StrAppend(out, "  ", name);
    out.append(total_s.size() < 8 ? 8 - total_s.size() : 0, ' ');
    StrAppend(out, total_s, "  ");
    out.append(mean_s.size() < 9 ? 9 - mean_s.size() : 0, ' ');
    StrAppend(out, mean_s, "  ");
    out.append(share_s.size() < 6 ? 6 - share_s.size() : 0, ' ');
    StrAppend(out, share_s, "\n");
  }
  StrAppend(out, blocking.ToString(), "\n");
  return out;
}

CriticalPathReport AnalyzeCriticalPath(const SpanForest& forest) {
  CriticalPathReport report;
  for (int32_t id : forest.roots) {
    const Span& root = forest.spans[static_cast<size_t>(id)];
    if (!root.closed()) {
      ++report.unfinished_txns;
      continue;
    }
    TxnCriticalPath cp = AnalyzeTxn(forest, root);
    if (cp.committed) {
      ++report.committed_txns;
      report.committed_total.Add(cp.phases);
    } else {
      ++report.aborted_txns;
    }
    report.txns.push_back(std::move(cp));
  }
  for (const Span& s : forest.spans) {
    if (s.kind != SpanKind::kBlocked) continue;
    for (const SpanNote& n : s.notes) {
      if (HasPrefix(n.label, "inquiry#")) ++report.blocking.inquiries;
    }
    if (!s.closed()) {
      ++report.blocking.open_windows;
      continue;
    }
    ++report.blocking.windows;
    report.blocking.total_us += s.length();
    report.blocking.max_us = std::max(report.blocking.max_us, s.length());
    report.blocking.hist.Add(s.length());
  }
  return report;
}

}  // namespace hermes::trace
