// The commit-sequence-number certifier: ordering numbers assigned at
// decision time from one global CsnSource. It keeps no state beyond the
// shared alive-interval table: the agent's forced commit record carries the
// CSN that recovery needs.
//
// Why decision-time numbering removes the prepare-time ordering refusal:
// the SN extension exists because submit-time serial numbers can disagree
// with the order commits actually happen in (clock skew between
// coordinators) — a PREPARE "from the past" must be refused. A CSN drawn
// from a single monotonic source *at decision time* is always larger than
// the CSN of every transaction already decided, and a subtransaction can
// only prepare at a site after every commit it could causally follow has
// decided there — so the number order never contradicts the local commit
// order and no prepare arrives "late". So CSN adds no ordering check to
// the basic alive-interval test at prepare. The cost moves to commit time:
// a decided subtransaction may not commit locally while a co-prepared
// peer is still undecided (the peer's CSN, once assigned, could be
// smaller), which this implementation expresses by parking undecided
// entries in the shared alive-interval table with an *invalid* serial
// number — invalid sorts below every valid SN, so the unchanged
// SmallestSerialNumber test makes decided transactions wait exactly until
// their undecided peers resolve; OnCommitDecision then stamps the entry
// with SerialNumber{csn, 0, 0} and commits proceed in CSN order.
// docs/DESIGN-SPACE.md develops the argument.

#ifndef HERMES_CERT_CSN_CERTIFIER_H_
#define HERMES_CERT_CSN_CERTIFIER_H_

#include <cstdint>

#include "cert/certifier.h"

namespace hermes::cert {

class CsnCertifier : public Certifier {
 public:
  explicit CsnCertifier(core::CertPolicy policy) : Certifier(policy) {}

  CertifierKind kind() const override { return CertifierKind::kCsn; }

  void OnPrepared(const TxnId& gtid, const core::AliveInterval& interval,
                  const core::SerialNumber& sn) override;
  void OnCommitDecision(const TxnId& gtid, int64_t csn) override;

  // Kept only because perfbench/composed_run.cc still sums
  // log().forced_writes(); the certifier forces nothing. Goes when
  // perfbench next changes (ROADMAP item 4, step 2).
  struct NoLog {
    int64_t forced_writes() const { return 0; }
  };
  NoLog log() const { return {}; }
};

}  // namespace hermes::cert

#endif  // HERMES_CERT_CSN_CERTIFIER_H_
