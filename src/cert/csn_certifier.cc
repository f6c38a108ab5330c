#include "cert/csn_certifier.h"

namespace hermes::cert {

void CsnCertifier::OnPrepared(const TxnId& gtid,
                              const core::AliveInterval& interval,
                              const core::SerialNumber& /*sn*/) {
  // Undecided: park with an invalid serial number, which sorts below every
  // valid one — decided peers cannot pass SmallestSerialNumber past it.
  table_.Insert(gtid, interval, core::SerialNumber{});
}

void CsnCertifier::OnCommitDecision(const TxnId& gtid, int64_t csn) {
  if (csn < 0) return;  // decision redelivery without a CSN (never expected)
  if (table_.Contains(gtid)) {
    table_.SetSerialNumber(gtid, core::SerialNumber{csn, 0, 0});
  }
}

}  // namespace hermes::cert
