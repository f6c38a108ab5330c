#include "history/projection.h"

#include <algorithm>
#include <utility>

#include "common/str.h"
#include "history/dense_index.h"

namespace hermes::history {

namespace {

// Per-transaction state for one pass over a history: transactions numbered
// densely in first-seen order, a `State` each, and flag bits per
// (transaction, site). Each transaction's sites form a short list threaded
// through one arena, so a pass allocates nothing per transaction; a lookup
// walks the list, and a transaction touches few sites.
template <typename State>
class TxnMarks {
 public:
  explicit TxnMarks(size_t ops) : index_(ops / 4) {}

  // The index of `id`, numbering it with a default State if it is new.
  uint32_t Of(const TxnId& id) {
    const uint32_t t = index_.Insert(id);
    if (t == states_.size()) {
      states_.emplace_back();
      head_.push_back(kEnd);
    }
    return t;
  }

  size_t size() const { return states_.size(); }
  const TxnId& id(uint32_t t) const { return index_[t]; }
  State& state(uint32_t t) { return states_[t]; }

  // The flag bits of (t, site), adding the site at 0 if new.
  uint8_t& site(uint32_t t, SiteId site) {
    for (uint32_t e = head_[t]; e != kEnd; e = sites_[e].next) {
      if (sites_[e].site == site) return sites_[e].flags;
    }
    sites_.push_back(Site{site, 0, head_[t]});
    head_[t] = static_cast<uint32_t>(sites_.size() - 1);
    return sites_.back().flags;
  }

  // True if `pred(flags)` holds at every site of t.
  template <typename Pred>
  bool AllSites(uint32_t t, Pred pred) const {
    for (uint32_t e = head_[t]; e != kEnd; e = sites_[e].next) {
      if (!pred(sites_[e].flags)) return false;
    }
    return true;
  }

  // The sites of t with their flag bits, ascending by site.
  std::vector<std::pair<SiteId, uint8_t>> SortedSites(uint32_t t) const {
    std::vector<std::pair<SiteId, uint8_t>> out;
    for (uint32_t e = head_[t]; e != kEnd; e = sites_[e].next) {
      out.emplace_back(sites_[e].site, sites_[e].flags);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  // The transaction with the smallest id for which `violates(t)` holds,
  // kNone if none does: the one an ordered map's walk would report.
  template <typename Violates>
  uint32_t SmallestViolating(Violates violates) const {
    uint32_t best = kNone;
    for (uint32_t t = 0; t < states_.size(); ++t) {
      if ((best == kNone || id(t) < id(best)) && violates(t)) best = t;
    }
    return best;
  }

  static constexpr uint32_t kNone = DenseIndex<TxnId>::kAbsent;

 private:
  static constexpr uint32_t kEnd = UINT32_MAX;
  struct Site {
    SiteId site;
    uint8_t flags;
    uint32_t next;  // the transaction's next site, or kEnd
  };

  DenseIndex<TxnId> index_;
  std::vector<State> states_;
  std::vector<uint32_t> head_;  // per transaction, its first site
  std::vector<Site> sites_;
};

}  // namespace

std::vector<Op> CommittedProjection(const std::vector<Op>& h) {
  // Site flags.
  constexpr uint8_t kAccessed = 1;   // R/W/P ops
  constexpr uint8_t kCommitted = 2;  // a local commit
  constexpr uint8_t kMigrated = 4;   // the prepared residue left
  struct Fate {
    bool committed = false;
  };
  TxnMarks<Fate> txns(h.size());
  std::vector<uint32_t> txn_of(h.size());
  for (size_t p = 0; p < h.size(); ++p) {
    const Op& op = h[p];
    const uint32_t t = txn_of[p] = txns.Of(op.subtxn.txn);
    Fate& f = txns.state(t);
    switch (op.kind) {
      case OpKind::kRead:
      case OpKind::kWrite:
      case OpKind::kDelete:
      case OpKind::kPrepare:
        txns.site(t, op.site) |= kAccessed;
        break;
      case OpKind::kLocalCommit:
        txns.site(t, op.site) |= kCommitted;
        if (!op.subtxn.txn.global()) f.committed = true;
        break;
      case OpKind::kLocalAbort:
        break;
      case OpKind::kGlobalCommit:
        f.committed = true;
        break;
      case OpKind::kGlobalAbort:
        f.committed = false;
        break;
      case OpKind::kMigrateOut:
        txns.site(t, op.site) |= kMigrated;
        break;
    }
  }
  // Sites whose residue migrated away in a shard handoff owe no local
  // commit: the adopting site settles the outcome in their stead.
  std::vector<uint8_t> in_projection(txns.size());
  for (uint32_t t = 0; t < txns.size(); ++t) {
    in_projection[t] =
        txns.state(t).committed &&
        (!txns.id(t).global() || txns.AllSites(t, [](uint8_t flags) {
          return (flags & kAccessed) == 0 ||
                 (flags & (kCommitted | kMigrated)) != 0;
        }));
  }
  size_t kept = 0;
  for (uint32_t t : txn_of) kept += in_projection[t];
  std::vector<Op> out;
  out.reserve(kept);
  for (size_t p = 0; p < h.size(); ++p) {
    if (in_projection[txn_of[p]]) out.push_back(h[p]);
  }
  return out;
}

std::string CheckOrderInvariant(const std::vector<Op>& h) {
  // Per global transaction: positions of prepares, global commit, local
  // commits.
  struct Marks {
    int64_t last_prepare = -1;
    int64_t global_commit = -1;
    int64_t first_local_commit = -1;
  };
  constexpr uint8_t kWritten = 1;  // site flag
  TxnMarks<Marks> txns(h.size());
  for (const Op& op : h) {
    if (!op.subtxn.txn.global()) continue;
    const uint32_t t = txns.Of(op.subtxn.txn);
    Marks& m = txns.state(t);
    const int64_t at = static_cast<int64_t>(op.seq);
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete:
        txns.site(t, op.site) |= kWritten;
        break;
      case OpKind::kPrepare:
        // Resubmission never re-prepares, so every P op of a committed
        // transaction must precede its C_k.
        if (at > m.last_prepare) m.last_prepare = at;
        break;
      case OpKind::kGlobalCommit:
        m.global_commit = at;
        break;
      case OpKind::kLocalCommit:
        // A short-commit read-only participant commits locally at its READY
        // vote, before the coordinator's C_k: with no writes at that site
        // the early commit installs nothing, so only local commits at
        // *writing* sites are held to the after-C_k rule. (The site's
        // writes, if any, always precede its local commit in H, so the
        // written flag is complete by the time the commit is seen.)
        if (m.first_local_commit < 0 &&
            (txns.site(t, op.site) & kWritten) != 0) {
          m.first_local_commit = at;
        }
        break;
      default:
        break;
    }
  }
  auto prepare_late = [](const Marks& m) {
    return m.last_prepare >= 0 && m.last_prepare > m.global_commit;
  };
  auto commit_early = [](const Marks& m) {
    return m.first_local_commit >= 0 && m.first_local_commit < m.global_commit;
  };
  const uint32_t t = txns.SmallestViolating([&](uint32_t t) {
    const Marks& m = txns.state(t);
    // Not committed: nothing to check.
    return m.global_commit >= 0 && (prepare_late(m) || commit_early(m));
  });
  if (t == txns.kNone) return "";
  const Marks& m = txns.state(t);
  if (prepare_late(m)) {
    return StrCat("invariant (1) violated for ", txns.id(t).ToString(),
                  ": a prepare (op#", m.last_prepare,
                  ") follows the global commit (op#", m.global_commit, ")");
  }
  return StrCat("invariant (1) violated for ", txns.id(t).ToString(),
                ": local commit (op#", m.first_local_commit,
                ") precedes the global commit (op#", m.global_commit, ")");
}

std::string CheckGlobalAtomicity(const std::vector<Op>& h) {
  // Final outcome of each (transaction, site), in the low bits of the site
  // flags: data ops and prepares re-open the outcome (a resubmission after
  // a unilateral abort), local commits and aborts close it.
  enum SiteOutcome : uint8_t {
    kPending,
    kCommitted,
    kAborted,            // rollback requested by the agent/coordinator
    kAbortedUnilateral,  // the LDBS aborted on its own (resubmittable)
    kMigrated,           // prepared residue left in a shard handoff
  };
  constexpr uint8_t kOutcome = 7;
  constexpr uint8_t kWritten = 8;
  auto set_outcome = [](uint8_t& flags, SiteOutcome outcome) {
    flags = static_cast<uint8_t>((flags & ~kOutcome) | outcome);
  };
  struct TxnState {
    bool global_commit = false;
    bool global_abort = false;
  };
  TxnMarks<TxnState> txns(h.size());
  for (const Op& op : h) {
    if (!op.subtxn.txn.global()) continue;
    const uint32_t t = txns.Of(op.subtxn.txn);
    TxnState& s = txns.state(t);
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete:
        txns.site(t, op.site) |= kWritten;
        [[fallthrough]];
      case OpKind::kRead:
      case OpKind::kPrepare:
        set_outcome(txns.site(t, op.site), kPending);
        break;
      case OpKind::kLocalCommit:
        set_outcome(txns.site(t, op.site), kCommitted);
        break;
      case OpKind::kLocalAbort:
        set_outcome(txns.site(t, op.site),
                    op.unilateral ? kAbortedUnilateral : kAborted);
        break;
      case OpKind::kGlobalCommit:
        s.global_commit = true;
        break;
      case OpKind::kGlobalAbort:
        s.global_abort = true;
        break;
      case OpKind::kMigrateOut:
        // The residue left this site in a shard handoff: the outcome here
        // is settled by the adopting site, so the source is exempt from
        // both the commit-without-C_k and rollback-after-C_k rules.
        set_outcome(txns.site(t, op.site), kMigrated);
        break;
    }
  }
  auto site_violates = [](const TxnState& s, uint8_t flags) {
    // A locally-committed *write-free* subtransaction without C_k is the
    // short-commit read-only fast path, not an atomicity violation: its
    // early commit installed nothing, so there is nothing a global abort
    // would have to undo at that site.
    const uint8_t outcome = flags & kOutcome;
    return (!s.global_commit && outcome == kCommitted &&
            (flags & kWritten) != 0) ||
           (s.global_commit && outcome == kAborted);
  };
  const uint32_t t = txns.SmallestViolating([&](uint32_t t) {
    const TxnState& s = txns.state(t);
    return (s.global_commit && s.global_abort) ||
           !txns.AllSites(t, [&](uint8_t flags) {
             return !site_violates(s, flags);
           });
  });
  if (t == txns.kNone) return "";
  const TxnState& s = txns.state(t);
  const std::string id = txns.id(t).ToString();
  if (s.global_commit && s.global_abort) {
    return StrCat("atomicity violated for ", id, ": both C_k and A_k recorded");
  }
  for (const auto& [site, flags] : txns.SortedSites(t)) {
    if (!site_violates(s, flags)) continue;
    if (!s.global_commit) {
      return StrCat("atomicity violated for ", id, ": site ", site,
                    " committed locally without a global commit decision");
    }
    return StrCat("atomicity violated for ", id, ": site ", site,
                  " rolled back after the commit decision C_k");
  }
  return "";
}

std::vector<Op> SiteProjection(const std::vector<Op>& h, SiteId site) {
  std::vector<Op> out;
  for (const Op& op : h) {
    switch (op.kind) {
      case OpKind::kRead:
      case OpKind::kWrite:
      case OpKind::kDelete:
      case OpKind::kPrepare:
      case OpKind::kLocalCommit:
      case OpKind::kLocalAbort:
        if (op.site == site) out.push_back(op);
        break;
      default:
        break;
    }
  }
  return out;
}

}  // namespace hermes::history
