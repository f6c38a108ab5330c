#include "trace/trace.h"

#include <algorithm>

#include "common/json.h"
#include "common/str.h"
#include "trace/ring.h"

namespace hermes::trace {

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kTxnBegin:
      return "txn_begin";
    case EventKind::kStepStart:
      return "step_start";
    case EventKind::kStepEnd:
      return "step_end";
    case EventKind::kPrepareSend:
      return "prepare_send";
    case EventKind::kVoteRecv:
      return "vote_recv";
    case EventKind::kDecisionSend:
      return "decision_send";
    case EventKind::kAckRecv:
      return "ack_recv";
    case EventKind::kTxnEnd:
      return "txn_end";
    case EventKind::kPrepareRecv:
      return "prepare_recv";
    case EventKind::kCertReady:
      return "cert_ready";
    case EventKind::kCertRefuse:
      return "cert_refuse";
    case EventKind::kResubmitStart:
      return "resubmit_start";
    case EventKind::kResubmitDone:
      return "resubmit_done";
    case EventKind::kCommitRetry:
      return "commit_retry";
    case EventKind::kLocalCommit:
      return "local_commit";
    case EventKind::kLocalAbort:
      return "local_abort";
    case EventKind::kUnilateralAbort:
      return "unilateral_abort";
    case EventKind::kLocalTxnBegin:
      return "local_txn_begin";
    case EventKind::kLocalTxnEnd:
      return "local_txn_end";
    case EventKind::kSiteCrash:
      return "site_crash";
    case EventKind::kSiteRecover:
      return "site_recover";
    case EventKind::kInquirySend:
      return "inquiry_send";
    case EventKind::kInquiryReply:
      return "inquiry_reply";
    case EventKind::kFaultEvent:
      return "fault_event";
    case EventKind::kMsgSend:
      return "msg_send";
    case EventKind::kMsgDrop:
      return "msg_drop";
    case EventKind::kMsgDup:
      return "msg_dup";
    case EventKind::kRetransmit:
      return "retransmit";
    case EventKind::kInjectFailure:
      return "inject_failure";
    case EventKind::kCgmLock:
      return "cgm_lock";
    case EventKind::kCgmAdmission:
      return "cgm_admission";
    case EventKind::kPaxosBegin:
      return "paxos_begin";
    case EventKind::kPaxosVote:
      return "paxos_vote";
    case EventKind::kPaxosAccept:
      return "paxos_accept";
    case EventKind::kPaxosDecided:
      return "paxos_decided";
    case EventKind::kPaxosPrepare:
      return "paxos_prepare";
    case EventKind::kPaxosPromise:
      return "paxos_promise";
    case EventKind::kPaxosElect:
      return "paxos_elect";
    case EventKind::kShortCommit:
      return "short_commit";
    case EventKind::kCsnAssign:
      return "csn_assign";
    case EventKind::kReconfigBegin:
      return "reconfig_begin";
    case EventKind::kReconfigHandoff:
      return "reconfig_handoff";
    case EventKind::kReconfigDone:
      return "reconfig_done";
    case EventKind::kEpochRefused:
      return "epoch_refused";
  }
  return "?";
}

const char* RefuseKindName(RefuseKind kind) {
  switch (kind) {
    case RefuseKind::kNone:
      return "none";
    case RefuseKind::kInterval:
      return "interval";
    case RefuseKind::kExtension:
      return "extension";
    case RefuseKind::kDead:
      return "dead";
    case RefuseKind::kUnknownTxn:
      return "unknown_txn";
  }
  return "?";
}

std::string EncodeTxnId(const TxnId& id) {
  std::string out;
  AppendTxnId(id, out);
  return out;
}

void AppendTxnId(const TxnId& id, std::string& out) {
  if (!id.valid()) {
    out += '-';
    return;
  }
  StrAppend(out, id.global() ? "G" : "L", id.site, ".", id.seq);
}

Result<TxnId> DecodeTxnId(const std::string& text) {
  if (text == "-") return TxnId{};
  const std::string_view view(text);
  const size_t dot = view.find('.');
  SiteId site = 0;
  int64_t seq = 0;
  if (view.empty() || (view[0] != 'G' && view[0] != 'L') ||
      dot == std::string_view::npos ||
      !json::ParseInt(view.substr(1, dot - 1), site) ||
      !json::ParseInt(view.substr(dot + 1), seq)) {
    return Status::InvalidArgument(StrCat("bad txn id: ", text));
  }
  return view[0] == 'G' ? TxnId::MakeGlobal(site, seq)
                        : TxnId::MakeLocal(site, seq);
}

namespace {

// SplitMix64 finisher — a deterministic, platform-independent mixer for
// the sampling decision (std::hash would tie trace content to the
// standard library implementation).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

Tracer::Tracer(const sim::EventLoop* loop) : Tracer(TracerOptions{}, loop) {}

Tracer::Tracer(const TracerOptions& options, const sim::EventLoop* loop)
    : loop_(loop),
      options_(options),
      ring_(std::make_unique<TraceRing>(options.ring_capacity)) {}

Tracer::~Tracer() = default;

bool Tracer::KeepsTxn(const TxnId& txn) const {
  if (options_.sample_period <= 1) return true;
  // Only global transactions are sampled: their event population dominates
  // the trace, and whole-gtid keep-or-drop preserves span-tree shape.
  if (!txn.valid() || !txn.global()) return true;
  const uint64_t key =
      (static_cast<uint64_t>(static_cast<uint32_t>(txn.site)) << 32) ^
      static_cast<uint64_t>(txn.seq);
  return Mix64(options_.sample_seed ^ Mix64(key)) % options_.sample_period ==
         0;
}

void Tracer::Record(Event e) {
  // seq is the emit index, assigned before the sampling decision, so a
  // sampled trace shows honest seq gaps where transactions were dropped.
  e.seq = stats_.emitted;
  e.at = loop_ != nullptr ? loop_->Now() : -1;
  ++stats_.emitted;
  if (!KeepsTxn(e.txn)) {
    ++stats_.sampled_out;
    return;
  }
  for (EventFold* fold : folds_) fold->Fold(e);
  ring_->Append(e);
  stats_.dropped = ring_->dropped();
}

bool Tracer::Admit(const TxnId& txn) {
  if (KeepsTxn(txn)) return true;
  ++stats_.emitted;
  ++stats_.sampled_out;
  return false;
}

size_t Tracer::size() const { return ring_->size(); }

void Tracer::Clear() {
  ring_->Clear();
  stats_ = TracerStats{};
}

void Tracer::ForEach(const std::function<void(const Event&)>& fn) const {
  ring_->ForEach(fn);
}

void Tracer::AddFold(EventFold* fold) { folds_.push_back(fold); }

void Tracer::RemoveFold(EventFold* fold) {
  folds_.erase(std::remove(folds_.begin(), folds_.end(), fold), folds_.end());
}

std::string Tracer::ToBinary() const {
  return ring_->Serialize(stats_.sampled_out);
}

}  // namespace hermes::trace
