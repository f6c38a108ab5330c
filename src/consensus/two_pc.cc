#include "consensus/two_pc.h"

#include <utility>

namespace hermes::consensus {

const char* ProtocolKindName(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::k2PC:
      return "2pc";
    case ProtocolKind::kPaxosCommit:
      return "paxos-commit";
  }
  return "?";
}

void TwoPCDecision::BeginDecision(const TxnId& /*gtid*/,
                                  const std::vector<SiteId>& /*participants*/) {
  // Presumed abort needs no prepare-phase record: an undecided transaction
  // simply does not exist after a crash.
}

void TwoPCDecision::Decide(const TxnId& gtid, DecideMode mode,
                           const std::vector<SiteId>& participants,
                           int64_t csn, DecidedFn done) {
  if (mode == DecideMode::kCommit) {
    if (!skip_decision_log_) {
      core::CoordLogRecord rec;
      rec.kind = core::CoordRecordKind::kDecision;
      rec.gtid = gtid;
      rec.participants = participants;
      rec.csn = csn;
      log_->ForceAppend(std::move(rec));
    }
    done(gtid, true);
    return;
  }
  // Aborts — final or timeout — are never logged under presumed abort.
  done(gtid, false);
}

std::optional<bool> TwoPCDecision::AnswerInquiry(const TxnId& gtid,
                                                 SiteId /*requester*/) {
  if (log_->HasDecision(gtid)) return true;
  // Unknown (or forgotten) transaction: presumed abort. The caller layers
  // its own live-transaction knowledge on top before reaching for this.
  return false;
}

void TwoPCDecision::Forget(const TxnId& gtid) {
  // Only committed transactions have a decision record to drop; aborted
  // ones were never logged in the first place.
  log_->Retire(gtid);
}

void TwoPCDecision::Crash() {
  // All 2PC decision state is the log, which is stable storage.
}

std::vector<DecisionProtocol::InFlight> TwoPCDecision::RecoverInFlight() {
  std::vector<InFlight> out;
  for (const core::CoordLogRecord& rec : log_->InFlightDecisions()) {
    out.push_back(InFlight{rec.gtid, rec.participants, rec.csn});
  }
  return out;
}

}  // namespace hermes::consensus
