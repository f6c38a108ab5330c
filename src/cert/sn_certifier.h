// The paper's serial-number certifier (sections 5.2, 5.3, Appendix C),
// extracted verbatim from the agent: the prepare-certification extension
// refuses any PREPARE whose SN is below the largest serial number already
// committed at this site, and commit certification performs local commits
// in SN order (Certifier::CertifyCommit) by waiting while a prepared peer
// holds a smaller SN.

#ifndef HERMES_CERT_SN_CERTIFIER_H_
#define HERMES_CERT_SN_CERTIFIER_H_

#include "cert/certifier.h"

namespace hermes::cert {

class SnCertifier : public Certifier {
 public:
  explicit SnCertifier(core::CertPolicy policy) : Certifier(policy) {}

  CertifierKind kind() const override { return CertifierKind::kSn; }

  void OnPrepared(const TxnId& gtid, const core::AliveInterval& interval,
                  const core::SerialNumber& sn) override;
  void OnCommitted(const TxnId& gtid, const core::SerialNumber& sn) override;

  void Crash() override;
  void OnRecoveredCommitted(const TxnId& gtid,
                            const core::SerialNumber& sn) override;

  core::SerialNumber committed_high_water() const override {
    return max_committed_sn_;
  }

 protected:
  bool RefusesOrder(const core::SerialNumber& sn, bool want_detail,
                    PrepareOutcome* out) const override;

 private:
  // Extension state: largest committed SN and the transaction holding it
  // (conflicting-transaction context for REFUSE traces).
  core::SerialNumber max_committed_sn_;
  TxnId max_committed_gtid_;
};

}  // namespace hermes::cert

#endif  // HERMES_CERT_SN_CERTIFIER_H_
