#include "cert/sn_certifier.h"

#include "common/str.h"

namespace hermes::cert {

bool SnCertifier::RefusesOrder(const core::SerialNumber& sn, bool want_detail,
                               PrepareOutcome* out) const {
  const bool extension = policy_ == core::CertPolicy::kPrepareExtended ||
                         policy_ == core::CertPolicy::kFull;
  if (!extension || !(sn < max_committed_sn_)) return false;
  // Certification extension failed: a subtransaction with a bigger serial
  // number is already committed here — this PREPARE arrived out of order
  // and committing it later could close a cycle in CG(H).
  out->admit = false;
  out->refuse = trace::RefuseKind::kExtension;
  // The REFUSE reason is a static message: SN details are only rendered
  // (ToString/StrCat) into the trace event, so certification never builds
  // strings when tracing is disabled.
  out->reason = Status::Rejected(
      "prepare certification extension: SN below committed high-water mark");
  if (want_detail) {
    out->detail = StrCat("prepare certification extension: ", sn.ToString(),
                         " < committed ", max_committed_sn_.ToString());
    if (max_committed_gtid_.valid()) {
      out->related.push_back(max_committed_gtid_);
    }
  }
  return true;
}

void SnCertifier::OnPrepared(const TxnId& gtid,
                             const core::AliveInterval& interval,
                             const core::SerialNumber& sn) {
  table_.Insert(gtid, interval, sn);
}

void SnCertifier::OnCommitted(const TxnId& gtid,
                              const core::SerialNumber& sn) {
  table_.Remove(gtid);
  if (max_committed_sn_ < sn) {
    max_committed_sn_ = sn;
    max_committed_gtid_ = gtid;
  }
}

void SnCertifier::Crash() {
  Certifier::Crash();
  max_committed_sn_ = core::SerialNumber{};
  max_committed_gtid_ = TxnId{};
}

void SnCertifier::OnRecoveredCommitted(const TxnId& gtid,
                                       const core::SerialNumber& sn) {
  if (max_committed_sn_ < sn) {
    max_committed_sn_ = sn;
    max_committed_gtid_ = gtid;
  }
}

}  // namespace hermes::cert
