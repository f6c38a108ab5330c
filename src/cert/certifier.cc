#include "cert/certifier.h"

#include "cert/csn_certifier.h"
#include "cert/sn_certifier.h"
#include "common/str.h"

namespace hermes::cert {

const char* CertifierKindName(CertifierKind kind) {
  switch (kind) {
    case CertifierKind::kSn:
      return "sn";
    case CertifierKind::kCsn:
      return "csn";
  }
  return "unknown";
}

PrepareOutcome Certifier::CertifyPrepare(const core::SerialNumber& sn,
                                         const core::AliveInterval& candidate,
                                         bool want_detail) const {
  PrepareOutcome out;
  if (RefusesOrder(sn, want_detail, &out)) return out;
  // Basic prepare certification: the candidate's alive interval must
  // intersect the alive interval of every subtransaction currently in the
  // prepared state at this site.
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
  }
  return out;
}

std::unique_ptr<Certifier> MakeCertifier(CertifierKind kind,
                                         core::CertPolicy policy) {
  switch (kind) {
    case CertifierKind::kSn:
      return std::make_unique<SnCertifier>(policy);
    case CertifierKind::kCsn:
      return std::make_unique<CsnCertifier>(policy);
  }
  return std::make_unique<SnCertifier>(policy);
}

}  // namespace hermes::cert
