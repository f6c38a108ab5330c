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
  if (!id.valid()) return "-";
  return StrCat(id.global() ? "G" : "L", id.site, ".", id.seq);
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

std::string EncodeSerialNumber(const core::SerialNumber& sn) {
  if (!sn.valid()) return "-";
  return StrCat(sn.clock, "/", sn.coordinator, "/", sn.seq);
}

Result<core::SerialNumber> DecodeSerialNumber(const std::string& text) {
  if (text == "-") return core::SerialNumber{};
  const std::string_view view(text);
  const size_t a = view.find('/');
  const size_t b = a == std::string_view::npos ? a : view.find('/', a + 1);
  core::SerialNumber sn;
  if (b == std::string_view::npos ||
      !json::ParseInt(view.substr(0, a), sn.clock) ||
      !json::ParseInt(view.substr(a + 1, b - a - 1), sn.coordinator) ||
      !json::ParseInt(view.substr(b + 1), sn.seq)) {
    return Status::InvalidArgument(StrCat("bad serial number: ", text));
  }
  return sn;
}

std::string Event::ToJson() const {
  std::string out;
  out.reserve(96 + detail.size() + 16 * related.size());
  AppendJson(out);
  return out;
}

void Event::AppendJson(std::string& out) const {
  StrAppend(out, "{\"seq\":", seq, ",\"t\":", at, ",\"kind\":\"",
            EventKindName(kind), "\"");
  if (txn.valid()) {
    out += ",\"txn\":";
    json::AppendString(out, EncodeTxnId(txn));
  }
  if (site != kInvalidSite) StrAppend(out, ",\"site\":", site);
  if (peer != kInvalidSite) StrAppend(out, ",\"peer\":", peer);
  if (resubmission >= 0) StrAppend(out, ",\"resub\":", resubmission);
  if (value >= 0) StrAppend(out, ",\"value\":", value);
  if (sn.valid()) {
    out += ",\"sn\":";
    json::AppendString(out, EncodeSerialNumber(sn));
  }
  if (refuse != RefuseKind::kNone) {
    StrAppend(out, ",\"refuse\":\"", RefuseKindName(refuse), "\"");
  }
  StrAppend(out, ",\"ok\":", ok ? "true" : "false");
  if (!detail.empty()) {
    out += ",\"detail\":";
    json::AppendString(out, detail);
  }
  if (!related.empty()) {
    out += ",\"related\":[";
    for (size_t i = 0; i < related.size(); ++i) {
      if (i > 0) out += ',';
      json::AppendString(out, EncodeTxnId(related[i]));
    }
    out += ']';
  }
  out += '}';
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

std::string Tracer::ToJsonl() const {
  std::string out;
  ForEach([&](const Event& e) {
    e.AppendJson(out);
    out += '\n';
  });
  return out;
}

std::string Tracer::ToBinary() const {
  return ring_->Serialize(stats_.sampled_out);
}

// --- JSONL parsing -----------------------------------------------------------

namespace {

// Reads a string holding one encoded txn id.
bool ReadTxnId(json::Reader& in, TxnId& out) {
  std::string text;
  if (!in.String(text)) return false;
  Result<TxnId> id = DecodeTxnId(text);
  if (!id.ok()) return in.Fail(id.status().message());
  out = *id;
  return true;
}

// Reads the value of `key` into its Event field.
bool ReadField(json::Reader& in, const std::string& key, Event& out) {
  if (key == "seq") return in.Int(out.seq);
  if (key == "t") return in.Int(out.at);
  if (key == "site") return in.Int(out.site);
  if (key == "peer") return in.Int(out.peer);
  if (key == "resub") return in.Int(out.resubmission);
  if (key == "value") return in.Int(out.value);
  if (key == "ok") return in.Bool(out.ok);
  if (key == "kind") {
    return json::Name(in, kAllEventKinds, EventKindName, out.kind,
                      "event kind");
  }
  if (key == "refuse") {
    return json::Name(in, kAllRefuseKinds, RefuseKindName, out.refuse,
                      "refuse kind");
  }
  if (key == "txn") return ReadTxnId(in, out.txn);
  if (key == "sn") {
    std::string text;
    if (!in.String(text)) return false;
    Result<core::SerialNumber> sn = DecodeSerialNumber(text);
    if (!sn.ok()) return in.Fail(sn.status().message());
    out.sn = *sn;
    return true;
  }
  if (key == "detail") return in.String(out.detail);
  if (key == "related") {
    return json::Array(in, [&] {
      TxnId id;
      if (!ReadTxnId(in, id)) return false;
      out.related.push_back(id);
      return true;
    });
  }
  return in.Fail(StrCat("unknown key: ", key));
}

// Parses one line: a flat object with every key the writer always emits.
Status ParseLine(std::string_view line, Event& out) {
  json::Reader in(line, "trace jsonl");
  const bool ok =
      json::Object(in, {"seq", "t", "kind", "ok"},
                   [&](const std::string& key) {
                     return ReadField(in, key, out);
                   }) &&
      in.End();
  return in.Done(ok);
}

}  // namespace

LenientParse ParseJsonlLenient(const std::string& text) {
  LenientParse out;
  json::ForEachLine(text, [&](size_t line_no, std::string_view line) {
    Event e;
    const Status s = ParseLine(line, e);
    if (s.ok()) {
      out.events.push_back(std::move(e));
    } else if (++out.skipped_lines <=
               static_cast<int64_t>(LenientParse::kMaxWarnings)) {
      out.warnings.push_back(StrCat("line ", line_no, ": ", s.message()));
    }
    return true;
  });
  return out;
}

Result<std::vector<Event>> ParseJsonl(const std::string& text) {
  LenientParse parsed = ParseJsonlLenient(text);
  if (parsed.skipped_lines > 0) {
    return Status::InvalidArgument(parsed.warnings.front());
  }
  return std::move(parsed.events);
}

}  // namespace hermes::trace
