#include "history/projection.h"

#include <algorithm>
#include <set>

#include "common/str.h"

namespace hermes::history {

std::map<TxnId, TxnFate> ClassifyTransactions(const std::vector<Op>& h) {
  std::map<TxnId, TxnFate> fates;
  for (const Op& op : h) {
    const TxnId& id = op.subtxn.txn;
    TxnFate& f = fates[id];
    if (!f.id.valid()) {
      f.id = id;
      f.global = id.global();
    }
    f.resubmissions = std::max(f.resubmissions, op.subtxn.resubmission);
    switch (op.kind) {
      case OpKind::kRead:
      case OpKind::kWrite:
      case OpKind::kDelete:
      case OpKind::kPrepare:
        f.sites.insert(op.site);
        break;
      case OpKind::kLocalCommit:
        f.committed_sites.insert(op.site);
        if (!f.global) f.committed = true;
        break;
      case OpKind::kLocalAbort:
        if (op.unilateral) ++f.unilateral_aborts;
        break;
      case OpKind::kGlobalCommit:
        f.committed = true;
        break;
      case OpKind::kGlobalAbort:
        f.committed = false;
        break;
      case OpKind::kMigrateOut:
        f.migrated_sites.insert(op.site);
        break;
    }
  }
  for (auto& [id, f] : fates) {
    // Sites whose residue migrated away in a shard handoff owe no local
    // commit: the adopting site settles the outcome in their stead.
    f.complete = f.committed &&
                 (!f.global ||
                  std::all_of(f.sites.begin(), f.sites.end(), [&](SiteId s) {
                    return f.committed_sites.count(s) != 0 ||
                           f.migrated_sites.count(s) != 0;
                  }));
  }
  return fates;
}

std::vector<Op> CommittedProjection(const std::vector<Op>& h) {
  const auto fates = ClassifyTransactions(h);
  std::vector<Op> out;
  out.reserve(h.size());
  for (const Op& op : h) {
    auto it = fates.find(op.subtxn.txn);
    if (it != fates.end() && it->second.InCommittedProjection()) {
      out.push_back(op);
    }
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
    std::set<SiteId> write_sites;
  };
  std::map<TxnId, Marks> marks;
  for (const Op& op : h) {
    if (!op.subtxn.txn.global()) continue;
    Marks& m = marks[op.subtxn.txn];
    const int64_t at = static_cast<int64_t>(op.seq);
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete:
        m.write_sites.insert(op.site);
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
        // write_sites set is complete by the time the commit is seen.)
        if (m.first_local_commit < 0 && m.write_sites.count(op.site) != 0) {
          m.first_local_commit = at;
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [txn, m] : marks) {
    if (m.global_commit < 0) continue;  // not committed: nothing to check
    if (m.last_prepare >= 0 && m.last_prepare > m.global_commit) {
      return StrCat("invariant (1) violated for ", txn.ToString(),
                    ": a prepare (op#", m.last_prepare,
                    ") follows the global commit (op#", m.global_commit,
                    ")");
    }
    if (m.first_local_commit >= 0 &&
        m.first_local_commit < m.global_commit) {
      return StrCat("invariant (1) violated for ", txn.ToString(),
                    ": local commit (op#", m.first_local_commit,
                    ") precedes the global commit (op#", m.global_commit,
                    ")");
    }
  }
  return "";
}

std::string CheckGlobalAtomicity(const std::vector<Op>& h) {
  // Final outcome of each (transaction, site): data ops and prepares re-open
  // the outcome (a resubmission after a unilateral abort), local commits and
  // aborts close it.
  enum class SiteOutcome : uint8_t {
    kPending,
    kCommitted,
    kAborted,            // rollback requested by the agent/coordinator
    kAbortedUnilateral,  // the LDBS aborted on its own (resubmittable)
    kMigrated,           // prepared residue left in a shard handoff
  };
  struct TxnState {
    bool global_commit = false;
    bool global_abort = false;
    std::map<SiteId, SiteOutcome> sites;
    std::set<SiteId> write_sites;
  };
  std::map<TxnId, TxnState> txns;
  for (const Op& op : h) {
    if (!op.subtxn.txn.global()) continue;
    TxnState& t = txns[op.subtxn.txn];
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete:
        t.write_sites.insert(op.site);
        [[fallthrough]];
      case OpKind::kRead:
      case OpKind::kPrepare:
        t.sites[op.site] = SiteOutcome::kPending;
        break;
      case OpKind::kLocalCommit:
        t.sites[op.site] = SiteOutcome::kCommitted;
        break;
      case OpKind::kLocalAbort:
        t.sites[op.site] = op.unilateral ? SiteOutcome::kAbortedUnilateral
                                         : SiteOutcome::kAborted;
        break;
      case OpKind::kGlobalCommit:
        t.global_commit = true;
        break;
      case OpKind::kGlobalAbort:
        t.global_abort = true;
        break;
      case OpKind::kMigrateOut:
        // The residue left this site in a shard handoff: the outcome here
        // is settled by the adopting site, so the source is exempt from
        // both the commit-without-C_k and rollback-after-C_k rules.
        t.sites[op.site] = SiteOutcome::kMigrated;
        break;
    }
  }
  for (const auto& [id, t] : txns) {
    if (t.global_commit && t.global_abort) {
      return StrCat("atomicity violated for ", id.ToString(),
                    ": both C_k and A_k recorded");
    }
    for (const auto& [site, outcome] : t.sites) {
      // A locally-committed *write-free* subtransaction without C_k is the
      // short-commit read-only fast path, not an atomicity violation: its
      // early commit installed nothing, so there is nothing a global abort
      // would have to undo at that site.
      if (!t.global_commit && outcome == SiteOutcome::kCommitted &&
          t.write_sites.count(site) != 0) {
        return StrCat("atomicity violated for ", id.ToString(), ": site ",
                      site,
                      " committed locally without a global commit decision");
      }
      if (t.global_commit && outcome == SiteOutcome::kAborted) {
        return StrCat("atomicity violated for ", id.ToString(), ": site ",
                      site, " rolled back after the commit decision C_k");
      }
    }
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
