#include "cert/csn_certifier.h"

#include "common/str.h"

namespace hermes::cert {

PrepareOutcome CsnCertifier::CertifyPrepare(
    const TxnId& /*gtid*/, const core::SerialNumber& /*sn*/,
    const core::AliveInterval& candidate, int resubmission,
    bool want_detail) {
  PrepareOutcome out;
  const bool snapshot = policy_ == core::CertPolicy::kPrepareExtended ||
                        policy_ == core::CertPolicy::kFull;
  // Snapshot visibility: a *resubmitted* candidate must have been provably
  // concurrent with every recent commit that landed inside its current
  // lifetime. A commit whose recorded interval never overlapped the
  // candidate's, performed at or after the candidate's interval began,
  // may be straddled by the candidate's incarnations (reads of the first
  // incarnation predate it, the resubmitted ones follow it) — refuse.
  // First incarnations cannot straddle anything, so in a failure-free run
  // this check never fires (no resubmission without a unilateral abort).
  if (snapshot && resubmission > 0) {
    for (const RecentCommit& rc : recent_commits_) {
      if (!rc.interval.Intersects(candidate) &&
          rc.committed_at >= candidate.begin) {
        out.admit = false;
        out.refuse = trace::RefuseKind::kSnapshot;
        out.reason = Status::Rejected(
            "csn snapshot certification: a commit inside the candidate's "
            "lifetime was never concurrently alive with it");
        if (want_detail) {
          out.detail = StrCat("csn snapshot: commit csn=", rc.csn, " at ",
                              rc.committed_at, " vs candidate [",
                              candidate.begin, ",", candidate.end,
                              "] (recorded interval [", rc.interval.begin,
                              ",", rc.interval.end, "])");
          out.related.push_back(rc.gtid);
        }
        return out;
      }
    }
  }

  // Basic prepare certification, shared with the SN scheme.
  if (policy_ != core::CertPolicy::kNone &&
      !table_.CertifiableAgainstAll(candidate)) {
    out.admit = false;
    out.refuse = trace::RefuseKind::kInterval;
    out.reason = Status::Rejected(
        "basic prepare certification: alive intervals do not intersect");
    if (want_detail) {
      out.detail = StrCat("candidate alive interval [", candidate.begin, ",",
                          candidate.end, "] disjoint from prepared peer(s)");
      out.related = table_.NonIntersecting(candidate);
    }
    return out;
  }
  return out;
}

void CsnCertifier::OnPrepared(const TxnId& gtid,
                              const core::AliveInterval& interval,
                              const core::SerialNumber& /*sn*/) {
  // Undecided: park with an invalid serial number, which sorts below every
  // valid one — decided peers cannot pass SmallestSerialNumber past it.
  table_.Insert(gtid, interval, core::SerialNumber{});
}

void CsnCertifier::OnCommitDecision(const TxnId& gtid, int64_t csn) {
  if (csn < 0) return;  // decision redelivery without a CSN (never expected)
  decided_csn_[gtid] = csn;
  if (table_.Contains(gtid)) {
    table_.SetSerialNumber(gtid, core::SerialNumber{csn, 0, 0});
  }
}

void CsnCertifier::OnCommitted(const TxnId& gtid,
                               const core::SerialNumber& /*sn*/,
                               sim::Time now) {
  auto it = decided_csn_.find(gtid);
  const int64_t csn = it == decided_csn_.end() ? -1 : it->second;
  if (const core::AliveIntervalTable::Entry* entry = table_.Find(gtid)) {
    RecentCommit rc;
    rc.gtid = gtid;
    rc.csn = csn;
    rc.interval = entry->interval;
    rc.committed_at = now;
    recent_commits_.push_back(rc);
    if (recent_commits_.size() > kRecentCommitWindow) {
      recent_commits_.pop_front();
    }
  }
  table_.Remove(gtid);
  decided_csn_.erase(gtid);
}

void CsnCertifier::OnRemoved(const TxnId& gtid) {
  table_.Remove(gtid);
  decided_csn_.erase(gtid);
}

void CsnCertifier::Crash() {
  Certifier::Crash();
  decided_csn_.clear();
  // Post-crash candidates see no recent commits, which can only admit
  // more: the snapshot check is a conservative guard, and every
  // subtransaction in doubt is re-entered from the agent log.
  recent_commits_.clear();
}

}  // namespace hermes::cert
