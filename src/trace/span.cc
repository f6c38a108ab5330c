#include "trace/span.h"

#include <map>
#include <utility>

#include "common/str.h"

namespace hermes::trace {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn:
      return "txn";
    case SpanKind::kDml:
      return "dml";
    case SpanKind::kPrepare:
      return "prepare";
    case SpanKind::kCertification:
      return "certify";
    case SpanKind::kBlocked:
      return "blocked";
    case SpanKind::kDecision:
      return "decision";
    case SpanKind::kResubmission:
      return "resubmit";
    case SpanKind::kConsensus:
      return "consensus";
  }
  return "?";
}

namespace {

using Key = std::pair<TxnId, SiteId>;

// Builder state: open span ids per (transaction, site) and per kind.
struct Builder {
  SpanForest forest;
  std::map<TxnId, int32_t> root_of;
  std::map<Key, int32_t> open_dml;
  std::map<Key, int32_t> open_prepare;
  std::map<Key, int32_t> open_cert;
  std::map<Key, int32_t> open_blocked;
  std::map<Key, int32_t> open_decision;
  std::map<Key, int32_t> open_resubmit;
  std::map<Key, int32_t> open_consensus;
  std::map<Key, int32_t> last_resubmit;  // previous incarnation's span

  int32_t RootOf(const TxnId& txn, sim::Time at) {
    auto it = root_of.find(txn);
    if (it != root_of.end()) return it->second;
    // Root seen mid-flight (trace started late or kTxnBegin lost): open
    // an implicit root at the first referencing event.
    Span root;
    root.id = static_cast<int32_t>(forest.spans.size());
    root.kind = SpanKind::kTxn;
    root.txn = txn;
    root.begin = at;
    forest.roots.push_back(root.id);
    root_of.emplace(txn, root.id);
    forest.spans.push_back(std::move(root));
    return forest.spans.back().id;
  }

  int32_t Open(std::map<Key, int32_t>& table, SpanKind kind,
               const TxnId& txn, SiteId site, sim::Time at) {
    Span s;
    s.id = static_cast<int32_t>(forest.spans.size());
    s.parent = RootOf(txn, at);
    s.kind = kind;
    s.txn = txn;
    s.site = site;
    s.begin = at;
    forest.spans[static_cast<size_t>(s.parent)].children.push_back(s.id);
    table[Key{txn, site}] = s.id;
    forest.spans.push_back(std::move(s));
    return forest.spans.back().id;
  }

  Span* Find(std::map<Key, int32_t>& table, const TxnId& txn, SiteId site) {
    auto it = table.find(Key{txn, site});
    if (it == table.end()) return nullptr;
    return &forest.spans[static_cast<size_t>(it->second)];
  }

  Span* Close(std::map<Key, int32_t>& table, const TxnId& txn, SiteId site,
              sim::Time at) {
    auto it = table.find(Key{txn, site});
    if (it == table.end()) return nullptr;
    Span* s = &forest.spans[static_cast<size_t>(it->second)];
    s->end = at;
    table.erase(it);
    return s;
  }

  void Note(Span* span, sim::Time at, std::string label) {
    span->notes.push_back(SpanNote{at, std::move(label)});
  }

  // The innermost open span at a site that explains an instant there: the
  // blocking window if one is open, else the in-flight resubmission.
  Span* OpenAtSite(const TxnId& txn, SiteId site) {
    if (Span* s = Find(open_blocked, txn, site)) return s;
    return Find(open_resubmit, txn, site);
  }

  // Attaches a note to the innermost open span at the site, else to the
  // transaction root.
  void NoteInnermost(const TxnId& txn, SiteId site, sim::Time at,
                     std::string label) {
    Span* s = OpenAtSite(txn, site);
    if (s == nullptr) s = &forest.spans[static_cast<size_t>(RootOf(txn, at))];
    Note(s, at, std::move(label));
  }

  void Add(const Event& e);
};

void Builder::Add(const Event& e) {
  Builder& b = *this;
  {
    if (e.at > b.forest.trace_end) b.forest.trace_end = e.at;
    if (!e.txn.valid() || !e.txn.global()) return;
    switch (e.kind) {
      case EventKind::kTxnBegin: {
        auto it = b.root_of.find(e.txn);
        if (it != b.root_of.end()) {
          b.Note(&b.forest.spans[static_cast<size_t>(it->second)], e.at,
                 "duplicate_begin");
          break;
        }
        const int32_t id = b.RootOf(e.txn, e.at);
        Span& root = b.forest.spans[static_cast<size_t>(id)];
        root.site = e.site;
        root.value = e.value;  // declared step count
        break;
      }
      case EventKind::kTxnEnd: {
        Span& root = b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))];
        root.end = e.at;
        root.ok = e.ok;
        break;
      }
      case EventKind::kStepStart: {
        Span* dml = b.Find(b.open_dml, e.txn, e.peer);
        if (dml == nullptr) {
          b.Open(b.open_dml, SpanKind::kDml, e.txn, e.peer, e.at);
        }
        break;
      }
      case EventKind::kStepEnd: {
        // The DML window stays open (later steps may hit the same site);
        // its end is stretched to the last reply observed.
        if (Span* dml = b.Find(b.open_dml, e.txn, e.peer)) dml->end = e.at;
        break;
      }
      case EventKind::kPrepareSend: {
        // A PREPARE fan-out closes the site's DML window for good.
        if (Span* dml = b.Find(b.open_dml, e.txn, e.peer)) {
          if (dml->end < 0) dml->end = dml->begin;
          b.open_dml.erase(Key{e.txn, e.peer});
        }
        if (Span* p = b.Find(b.open_prepare, e.txn, e.peer)) {
          b.Note(p, e.at, "prepare_resend");
          break;
        }
        b.Open(b.open_prepare, SpanKind::kPrepare, e.txn, e.peer, e.at);
        break;
      }
      case EventKind::kVoteRecv: {
        if (Span* p = b.Close(b.open_prepare, e.txn, e.peer, e.at)) {
          p->ok = e.ok;
        }
        break;
      }
      case EventKind::kPrepareRecv: {
        if (Span* c = b.Find(b.open_cert, e.txn, e.site)) {
          b.Note(c, e.at, "duplicate_prepare");
          break;
        }
        Span& c = b.forest.spans[static_cast<size_t>(
            b.Open(b.open_cert, SpanKind::kCertification, e.txn, e.site,
                   e.at))];
        c.resubmission = e.resubmission;
        break;
      }
      case EventKind::kCertReady: {
        if (Span* c = b.Close(b.open_cert, e.txn, e.site, e.at)) {
          c->ok = true;
        }
        // READY opens the prepared blocking window: the agent can now
        // neither commit nor abort on its own until the decision lands.
        if (b.Find(b.open_blocked, e.txn, e.site) == nullptr) {
          Span& w = b.forest.spans[static_cast<size_t>(
              b.Open(b.open_blocked, SpanKind::kBlocked, e.txn, e.site,
                     e.at))];
          w.resubmission = e.resubmission;
        }
        break;
      }
      case EventKind::kCertRefuse: {
        if (Span* c = b.Close(b.open_cert, e.txn, e.site, e.at)) {
          c->ok = false;
          c->refuse = e.refuse;
        }
        break;
      }
      case EventKind::kLocalCommit: {
        if (Span* w = b.Close(b.open_blocked, e.txn, e.site, e.at)) {
          w->ok = true;
        }
        break;
      }
      case EventKind::kLocalAbort: {
        // Only closes a blocking window if the subtransaction was
        // prepared; a rollback of an active subtransaction has no window.
        if (Span* w = b.Close(b.open_blocked, e.txn, e.site, e.at)) {
          w->ok = false;
        }
        break;
      }
      case EventKind::kDecisionSend: {
        if (Span* d = b.Find(b.open_decision, e.txn, e.peer)) {
          b.Note(d, e.at, "decision_resend");
          break;
        }
        Span& d = b.forest.spans[static_cast<size_t>(
            b.Open(b.open_decision, SpanKind::kDecision, e.txn, e.peer,
                   e.at))];
        d.ok = e.ok;  // commit vs rollback decision
        break;
      }
      case EventKind::kAckRecv: {
        b.Close(b.open_decision, e.txn, e.peer, e.at);
        break;
      }
      case EventKind::kResubmitStart: {
        Span& r = b.forest.spans[static_cast<size_t>(
            b.Open(b.open_resubmit, SpanKind::kResubmission, e.txn, e.site,
                   e.at))];
        r.resubmission = e.resubmission;
        r.value = e.value;  // attempt number within this prepared period
        auto it = b.last_resubmit.find(Key{e.txn, e.site});
        if (it != b.last_resubmit.end()) r.prev = it->second;
        b.last_resubmit[Key{e.txn, e.site}] = r.id;
        break;
      }
      case EventKind::kResubmitDone: {
        if (Span* r = b.Close(b.open_resubmit, e.txn, e.site, e.at)) {
          r->ok = true;
        }
        break;
      }
      case EventKind::kUnilateralAbort: {
        std::string label = e.detail.empty()
                                ? std::string("unilateral_abort")
                                : StrCat("unilateral_abort(", e.detail, ")");
        if (Span* s = b.OpenAtSite(e.txn, e.site)) {
          b.Note(s, e.at, std::move(label));
          break;
        }
        // An active subtransaction has no span of its own: the root note
        // names the site, so the abort still joins its (txn, site) chain.
        b.Note(&b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))],
               e.at, StrCat(label, "@", e.site));
        break;
      }
      case EventKind::kInquirySend: {
        b.NoteInnermost(e.txn, e.site, e.at, StrCat("inquiry#", e.value));
        break;
      }
      case EventKind::kInquiryReply: {
        b.Note(&b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))],
               e.at,
               StrCat("inquiry_reply(", e.ok ? "commit" : "rollback",
                      e.detail.empty() ? "" : StrCat(",", e.detail), ")"));
        break;
      }
      case EventKind::kCommitRetry: {
        // Names the blockers: the prepared peers with smaller SNs.
        b.NoteInnermost(e.txn, e.site, e.at,
                        StrCat("commit_retry(", StrJoin(e.related, ","), ")"));
        break;
      }
      case EventKind::kShortCommit: {
        b.NoteInnermost(e.txn, e.site, e.at,
                        StrCat("short_commit(", e.detail, ")"));
        break;
      }
      case EventKind::kCsnAssign: {
        b.Note(&b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))],
               e.at, StrCat("csn_assign(", e.value, ")"));
        break;
      }
      case EventKind::kRetransmit: {
        b.Note(&b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))],
               e.at,
               StrCat("retransmit(", e.detail, ")#", e.value, "->site",
                      e.peer));
        break;
      }
      case EventKind::kInjectFailure: {
        b.NoteInnermost(e.txn, e.site, e.at, "inject_failure");
        break;
      }
      case EventKind::kPaxosBegin:
      case EventKind::kPaxosElect: {
        // One consensus span per deciding node (leader or elected
        // resolver); a coordinator crash can leave the leader's span open
        // while a resolver's span carries the outcome.
        if (Span* c = b.Find(b.open_consensus, e.txn, e.site)) {
          b.Note(c, e.at,
                 e.kind == EventKind::kPaxosElect
                     ? StrCat("paxos_elect#", e.value)
                     : std::string("paxos_rebegin"));
          break;
        }
        Span& c = b.forest.spans[static_cast<size_t>(
            b.Open(b.open_consensus, SpanKind::kConsensus, e.txn, e.site,
                   e.at))];
        c.value = e.value;  // participants (begin) / election attempt
        break;
      }
      case EventKind::kPaxosDecided: {
        if (Span* c = b.Close(b.open_consensus, e.txn, e.site, e.at)) {
          c->ok = e.ok;
          break;
        }
        // Sealed without an acceptor round (definite local abort) or a
        // learner catching up on an already-chosen outcome.
        b.Note(&b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))],
               e.at, StrCat("paxos_decided(", e.ok ? "commit" : "abort", ")"));
        break;
      }
      case EventKind::kPaxosVote:
      case EventKind::kPaxosPromise:
      case EventKind::kPaxosAccept:
      case EventKind::kPaxosPrepare: {
        const char* what = e.kind == EventKind::kPaxosVote      ? "paxos_vote"
                           : e.kind == EventKind::kPaxosPromise ? "paxos_promise"
                           : e.kind == EventKind::kPaxosAccept  ? "paxos_accept"
                                                                : "paxos_prepare";
        if (Span* c = b.Find(b.open_consensus, e.txn, e.site)) {
          b.Note(c, e.at, StrCat(what, "(", e.value, ")"));
          break;
        }
        b.Note(&b.forest.spans[static_cast<size_t>(b.RootOf(e.txn, e.at))],
               e.at, StrCat(what, "(", e.value, ")@", e.site));
        break;
      }
      default:
        break;  // transport noise and non-txn events carry no span info
    }
  }
}

}  // namespace

SpanForest BuildSpanForest(const std::vector<Event>& events) {
  Builder b;
  for (const Event& e : events) b.Add(e);
  return std::move(b.forest);
}

SpanForest BuildSpanForest(const Tracer& tracer) {
  Builder b;
  tracer.ForEach([&](const Event& e) { b.Add(e); });
  return std::move(b.forest);
}

const Span* SpanForest::Root(const TxnId& txn) const {
  for (int32_t id : roots) {
    const Span& s = spans[static_cast<size_t>(id)];
    if (s.txn == txn) return &s;
  }
  return nullptr;
}

namespace {

void AppendSpanLine(std::string& out, const SpanForest& forest,
                    const Span& s, int depth) {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  if (s.kind == SpanKind::kTxn) {
    StrAppend(out, "txn ", EncodeTxnId(s.txn), " coordinator=", s.site,
              " t=[", s.begin, "..",
              s.end >= 0 ? StrCat(s.end) : std::string("open"), "]");
    if (s.end >= 0) {
      StrAppend(out, " ", s.ok ? "COMMITTED" : "ABORTED", " len=",
                s.length(), "us");
    }
    if (s.value >= 0) StrAppend(out, " steps=", s.value);
  } else {
    StrAppend(out, SpanKindName(s.kind), " site=", s.site, " t=[", s.begin,
              "..", s.end >= 0 ? StrCat(s.end) : std::string("open"), "]");
    if (s.end >= 0) StrAppend(out, " len=", s.length(), "us");
    if (s.kind == SpanKind::kCertification) {
      StrAppend(out, s.ok ? " READY" : StrCat(" REFUSE(",
                                              RefuseKindName(s.refuse), ")"));
    } else if (s.kind == SpanKind::kBlocked && s.end >= 0) {
      StrAppend(out, s.ok ? " ->commit" : " ->abort");
    } else if (s.kind == SpanKind::kDecision) {
      StrAppend(out, s.ok ? " COMMIT" : " ROLLBACK");
    } else if (s.kind == SpanKind::kPrepare && s.end >= 0) {
      StrAppend(out, s.ok ? " READY" : " REFUSE");
    } else if (s.kind == SpanKind::kConsensus && s.end >= 0) {
      StrAppend(out, s.ok ? " CHOSE-COMMIT" : " CHOSE-ABORT");
    }
    if (s.resubmission >= 0) StrAppend(out, " j=", s.resubmission);
    if (s.kind == SpanKind::kResubmission && s.value >= 0) {
      StrAppend(out, " attempt=", s.value);
    }
    if (s.prev >= 0) {
      StrAppend(out, " prev=j",
                forest.spans[static_cast<size_t>(s.prev)].resubmission);
    }
  }
  for (const SpanNote& n : s.notes) {
    StrAppend(out, " [t=", n.at, " ", n.label, "]");
  }
  out += '\n';
  for (int32_t child : s.children) {
    AppendSpanLine(out, forest, forest.spans[static_cast<size_t>(child)],
                   depth + 1);
  }
}

}  // namespace

std::string SpanForest::ToString() const {
  std::string out;
  for (int32_t id : roots) {
    AppendSpanLine(out, *this, spans[static_cast<size_t>(id)], 0);
  }
  return out;
}

}  // namespace hermes::trace
