// The commit-sequence-number certifier: ordering numbers assigned at
// decision time from one global CsnSource, and a snapshot-based visibility
// check at prepare. It keeps no durable state of its own: the agent's
// forced commit record carries the CSN that recovery needs.
//
// Why decision-time numbering removes the prepare-time ordering refusal:
// the SN extension exists because submit-time serial numbers can disagree
// with the order commits actually happen in (clock skew between
// coordinators) — a PREPARE "from the past" must be refused. A CSN drawn
// from a single monotonic source *at decision time* is always larger than
// the CSN of every transaction already decided, and a subtransaction can
// only prepare at a site after every commit it could causally follow has
// decided there — so the number order never contradicts the local commit
// order and no prepare arrives "late". The cost moves to commit time:
// a decided subtransaction may not commit locally while a co-prepared
// peer is still undecided (the peer's CSN, once assigned, could be
// smaller), which this implementation expresses by parking undecided
// entries in the shared alive-interval table with an *invalid* serial
// number — invalid sorts below every valid SN, so the unchanged
// SmallestSerialNumber test makes decided transactions wait exactly until
// their undecided peers resolve; OnCommitDecision then stamps the entry
// with SerialNumber{csn, 0, 0} and commits proceed in CSN order.
//
// The snapshot check at prepare is the CSN analogue of basic
// certification against *committed* peers: a resubmitted candidate whose
// current incarnation was never provably concurrent with a commit that
// landed inside its lifetime may straddle that commit's effects across
// incarnations (resubmission equivalence at risk), so it is refused
// conservatively. It consults a bounded window of recent local commits
// and — unlike the SN extension — cannot fire in a failure-free run:
// refusing needs a resubmitted incarnation, and resubmission needs a
// unilateral abort. docs/DESIGN-SPACE.md develops both arguments.

#ifndef HERMES_CERT_CSN_CERTIFIER_H_
#define HERMES_CERT_CSN_CERTIFIER_H_

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "cert/certifier.h"

namespace hermes::cert {

class CsnCertifier : public Certifier {
 public:
  // Recent-commit window consulted by the snapshot check. Bounded so the
  // prepare path stays O(window), not O(history).
  static constexpr size_t kRecentCommitWindow = 64;

  explicit CsnCertifier(core::CertPolicy policy) : Certifier(policy) {}

  CertifierKind kind() const override { return CertifierKind::kCsn; }

  PrepareOutcome CertifyPrepare(const TxnId& gtid,
                                const core::SerialNumber& sn,
                                const core::AliveInterval& candidate,
                                int resubmission, bool want_detail) override;
  void OnPrepared(const TxnId& gtid, const core::AliveInterval& interval,
                  const core::SerialNumber& sn) override;
  void OnCommitDecision(const TxnId& gtid, int64_t csn) override;
  void OnCommitted(const TxnId& gtid, const core::SerialNumber& sn,
                   sim::Time now) override;
  void OnRemoved(const TxnId& gtid) override;

  void Crash() override;

  // Kept only because perfbench/composed_run.cc still sums
  // log().forced_writes(); the certifier forces nothing. Goes when
  // perfbench next changes (ROADMAP item 6, step 2).
  struct NoLog {
    int64_t forced_writes() const { return 0; }
  };
  NoLog log() const { return {}; }

 private:
  struct RecentCommit {
    TxnId gtid;
    int64_t csn = -1;
    // Last alive interval recorded for the committed subtransaction — as
    // stored in the table, deliberately *not* extended to commit time: the
    // lag between the last aliveness proof and the commit is exactly the
    // window the snapshot check is conservative about.
    core::AliveInterval interval;
    sim::Time committed_at = -1;
  };

  // Volatile, lost in a crash: decided-but-not-yet-committed CSNs and the
  // recent-commit window.
  std::unordered_map<TxnId, int64_t> decided_csn_;
  std::deque<RecentCommit> recent_commits_;
};

}  // namespace hermes::cert

#endif  // HERMES_CERT_CSN_CERTIFIER_H_
