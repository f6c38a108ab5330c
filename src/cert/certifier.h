// The certifier seam: prepare/commit certification behind one interface.
//
// The paper's 2CM certifier orders commits by SN = (site clock ‖ site id ‖
// seq), generated at global-commit submission. That is one point in a
// design space: this interface factors every ordering decision the agent
// makes out of core::TwoPCAgent so alternative schemes plug in without
// touching the protocol machinery. Two implementations exist:
//
//  * cert::SnCertifier — the paper's scheme, verbatim: prepare-time
//    extension check against the committed SN high-water mark, alive
//    interval certification, and commit certification in SN order.
//  * cert::CsnCertifier — commit sequence numbers (as in PostgreSQL
//    scale-out): ordering numbers are assigned at *decision* time from one
//    global CsnSource, so they always agree with decision causality and
//    the prepare-time ordering refusal disappears; the cost moves to
//    commit time, where a decided subtransaction waits for co-prepared
//    peers that are still undecided.
//
// Both schemes share the alive-interval table, the basic certification of
// section 4.2 (CertifyPrepare) and commit certification (CertifyCommit);
// a scheme only supplies its ordering state. A subtransaction is certified
// once, at its first PREPARE: a resubmission restarts its alive interval
// but is never certified again. See docs/DESIGN-SPACE.md for the full
// comparison and the refusal/blocking trade.

#ifndef HERMES_CERT_CERTIFIER_H_
#define HERMES_CERT_CERTIFIER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/alive_intervals.h"
#include "core/cert_policy.h"
#include "core/serial_number.h"
#include "sim/event_loop.h"
#include "trace/trace.h"

namespace hermes::cert {

enum class CertifierKind : uint8_t {
  kSn = 0,   // serial numbers at submit time (the paper)
  kCsn = 1,  // commit sequence numbers at decision time
};

const char* CertifierKindName(CertifierKind kind);

// Global commit-sequence-number authority (the role PostgreSQL scale-out
// gives the GTM): one strictly monotonic counter shared by every
// coordinator of a federation, consulted at decision time. Owned by Mdbs —
// per simulation instance, so Driver::Run stays a pure function.
class CsnSource {
 public:
  int64_t Next() { return next_++; }
  int64_t last_assigned() const { return next_ - 1; }

 private:
  int64_t next_ = 1;
};

// Verdict of the prepare-time certification. `reason` carries a static
// message (the refusal Status the vote travels with); `detail`/`related`
// are trace context and are only built when the caller asks for them, so
// the hot path never constructs strings with tracing disabled.
struct PrepareOutcome {
  bool admit = true;
  trace::RefuseKind refuse = trace::RefuseKind::kNone;
  Status reason;
  std::string detail;
  std::vector<TxnId> related;
};

class Certifier {
 public:
  explicit Certifier(core::CertPolicy policy) : policy_(policy) {}
  virtual ~Certifier() = default;

  Certifier(const Certifier&) = delete;
  Certifier& operator=(const Certifier&) = delete;

  virtual CertifierKind kind() const = 0;

  // Prepare-time certification of `candidate` under the configured policy:
  // the scheme's ordering admission check (SN: extension against the
  // committed high-water mark; CSN: none) followed by the basic
  // alive-interval test. Pure — does not mutate the prepared set.
  // `want_detail` requests the trace strings.
  PrepareOutcome CertifyPrepare(const core::SerialNumber& sn,
                                const core::AliveInterval& candidate,
                                bool want_detail) const;

  // Admission: the subtransaction enters the prepared set with its
  // certified alive interval. Also used during agent recovery to re-enter
  // in-doubt subtransactions.
  virtual void OnPrepared(const TxnId& gtid,
                          const core::AliveInterval& interval,
                          const core::SerialNumber& sn) = 0;

  // The global COMMIT decision arrived for a prepared subtransaction.
  // `csn` is the decision-time commit sequence number carried by the
  // DecisionMsg (-1 under the SN scheme, where none travels).
  virtual void OnCommitDecision(const TxnId& gtid, int64_t csn) {
    (void)gtid;
    (void)csn;
  }

  // Commit-order certification, the same rule under both schemes: `gtid`
  // may perform its local commit only while no prepared peer holds a
  // smaller serial number (SN: the submit-time number; CSN: the decision
  // stamp, where an undecided peer's invalid SN sorts below every valid
  // one). When refused, `waiting_on` (nullable; trace context) receives
  // the prepared peers the commit is waiting for.
  bool CertifyCommit(const TxnId& gtid, std::vector<TxnId>* waiting_on) const {
    if (policy_ != core::CertPolicy::kFull) return true;
    if (table_.SmallestSerialNumber(gtid)) return true;
    if (waiting_on != nullptr) *waiting_on = table_.SmallerSerialNumbers(gtid);
    return false;
  }

  // The one prepared subtransaction whose commit verdict can turn from
  // "wait" to "commit": the holder of the smallest serial number (invalid
  // TxnId when the prepared set is empty, or when commit certification is
  // off and nothing ever waits). Serial numbers of waiting subtransactions
  // are valid and unique, so a waiter passes exactly when it is the head.
  TxnId CommitHead() const {
    if (policy_ != core::CertPolicy::kFull) return TxnId{};
    return table_.MinSnTxn();
  }

  // The local commit was performed: drop the prepared entry (and, under
  // SN, raise the high-water mark).
  virtual void OnCommitted(const TxnId& gtid, const core::SerialNumber& sn) {
    (void)sn;
    table_.Remove(gtid);
  }

  // The subtransaction left the prepared set without committing (global
  // rollback, or residue extracted in a shard handoff).
  void OnRemoved(const TxnId& gtid) { table_.Remove(gtid); }

  // Site crash: all certification state is lost. A certifier keeps no
  // durable state; recovery rebuilds what it needs from the agent log
  // (OnRecoveredCommitted, then OnPrepared and OnCommitDecision for each
  // in-doubt subtransaction).
  virtual void Crash() { table_ = core::AliveIntervalTable(); }

  // Agent-log-driven replay: a subtransaction whose prepare record has a
  // matching completion record committed here before the crash.
  virtual void OnRecoveredCommitted(const TxnId& gtid,
                                    const core::SerialNumber& sn) {
    (void)gtid;
    (void)sn;
  }

  // SN scheme: largest committed serial number (invalid under CSN).
  virtual core::SerialNumber committed_high_water() const { return {}; }

  core::CertPolicy policy() const { return policy_; }

  // Shared alive-interval machinery; the agent refreshes entries of
  // currently-alive peers before each CertifyPrepare.
  core::AliveIntervalTable& table() { return table_; }
  const core::AliveIntervalTable& table() const { return table_; }

 protected:
  // The scheme's ordering admission check, run before the basic test: true
  // fills `out` with a refusal. The default (CSN) admits every candidate.
  virtual bool RefusesOrder(const core::SerialNumber& sn, bool want_detail,
                            PrepareOutcome* out) const {
    (void)sn;
    (void)want_detail;
    (void)out;
    return false;
  }

  core::CertPolicy policy_;
  core::AliveIntervalTable table_;
};

std::unique_ptr<Certifier> MakeCertifier(CertifierKind kind,
                                         core::CertPolicy policy);

}  // namespace hermes::cert

#endif  // HERMES_CERT_CERTIFIER_H_
