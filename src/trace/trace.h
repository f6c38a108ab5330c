// Structured tracing for the 2PC Agent method.
//
// A Tracer collects typed, virtual-time-stamped event records keyed by
// (TxnId, SiteId): transaction begin/end, per-phase 2PC spans (DML steps,
// PREPARE -> READY/REFUSE, COMMIT/ROLLBACK -> ACK), certification verdicts
// with the refusal reason and the conflicting transactions, unilateral
// aborts, resubmission attempts, site crashes, network sends and the CGM
// baseline's centralized scheduler decisions.
//
// Every protocol component takes an optional `Tracer*`; a null pointer
// means tracing is disabled and each hook is a single branch
// (`if (tracer_ != nullptr)`), cheap enough for the certifier hot paths
// (measured by bench_certifier_micro). Because all components run on one
// deterministic EventLoop, two runs with the same seed produce byte-
// identical traces — the binary export (trace/binary.h) is suitable for
// golden files and for cross-run diffing.

#ifndef HERMES_TRACE_TRACE_H_
#define HERMES_TRACE_TRACE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "core/serial_number.h"
#include "sim/event_loop.h"

namespace hermes::trace {

enum class EventKind : uint8_t {
  // Coordinator-side transaction lifecycle.
  kTxnBegin,      // global transaction submitted; value = number of steps
  kStepStart,     // DML step sent; peer = executing site, value = step index
  kStepEnd,       // DML response received; ok = command status
  kPrepareSend,   // PREPARE fan-out; peer = participant, sn = SN(k)
  kVoteRecv,      // READY/REFUSE received; peer = participant, ok = ready
  kDecisionSend,  // COMMIT/ROLLBACK fan-out; peer = participant, ok = commit
  kAckRecv,       // ACK received; peer = participant, ok = commit-ack
  kTxnEnd,        // globally finished; ok = committed, value = latency (us)

  // Agent-side certification, resubmission and local completion.
  kPrepareRecv,    // PREPARE arrived at the agent; sn = SN(k)
  kCertReady,      // certification passed, subtransaction now prepared
  kCertRefuse,     // certification REFUSE; refuse = reason kind,
                   // related = conflicting transactions (when known)
  kResubmitStart,  // resubmission of the logged commands began;
                   // resubmission = new local subtransaction index,
                   // value = attempt number of this prepared period
  kResubmitDone,   // all commands re-executed, new alive interval started
  kCommitRetry,    // commit certification blocked a commit attempt, which
                   // now waits (one event per blocked attempt);
                   // related = prepared transactions with smaller SNs
  kLocalCommit,    // local single-phase commit performed; sn = SN(k)
  kLocalAbort,     // local rollback performed on coordinator decision

  // LTM-side autonomy events.
  kUnilateralAbort,  // the LDBS unilaterally aborted a subtransaction;
                     // resubmission = aborted local subtxn index,
                     // detail = reason (injected / lock timeout / deadlock)

  // System assembly events.
  kLocalTxnBegin,  // workload local transaction started at a site
  kLocalTxnEnd,    // workload local transaction finished; ok = committed
  kSiteCrash,      // CrashSite: both roles lose volatile state;
                   // value = scheduled downtime (us; 0 = instant recovery)
  kSiteRecover,    // agent + coordinator recovery from the logs finished

  // Recovery inquiries (2PC blocking window).
  kInquirySend,   // a prepared agent probes its coordinator for the
                  // decision; peer = coordinator, value = attempt number
  kInquiryReply,  // the coordinator answered an inquiry; peer = inquirer,
                  // ok = commit, detail = "presumed-abort" when the
                  // transaction was unknown (never logged or forgotten)

  // Network transport.
  kMsgSend,  // site -> peer send; value = modeled delivery delay (us)
  kMsgDrop,  // injected fault or dead destination swallowed a message;
             // detail = cause (loss / partition / unregistered)
  kMsgDup,   // fault injection delivered a second copy; value = its delay

  // Retransmission (coordinator timeout machinery).
  kRetransmit,  // a protocol message was re-sent after a timeout;
                // peer = destination, value = attempt number,
                // detail = message kind (dml / prepare / decision)

  // Workload driver.
  kInjectFailure,  // failure injector armed a unilateral abort;
                   // value = injection delay (us)
  kFaultEvent,     // a FaultPlan event fired; detail = fault kind,
                   // site/peer = targets, value = duration (us)

  // CGM baseline centralized scheduler.
  kCgmLock,       // global lock request decided; ok = granted
  kCgmAdmission,  // commit-graph admission decided; ok = admitted

  // Paxos Commit (consensus subsystem).
  kPaxosBegin,    // leader proposed the participant set; value = |set|
  kPaxosVote,     // an acceptor accepted a ballot-0 RM vote;
                  // peer = participant, ok = ready
  kPaxosAccept,   // an acceptor accepted a resolver proposal;
                  // value = ballot, ok = would-commit
  kPaxosDecided,  // the outcome became chosen at this site;
                  // ok = commit, value = deciding ballot
  kPaxosPrepare,  // a resolver started phase 1 for all instances;
                  // value = ballot
  kPaxosPromise,  // an acceptor promised a resolver ballot; value = ballot,
                  // peer = resolver
  kPaxosElect,    // a prepared agent escalated its inquiry into leader
                  // election; peer = suspected coordinator,
                  // value = inquiry attempt number

  // Certifier ablation (cert::Certifier seam + short-commit fast paths).
  kShortCommit,  // a short-commit fast path fired; detail = "1pc"
                 // (single-site transaction, the agent is the commit
                 // point) or "readonly" (write-free participant committed
                 // at prepare time, skipping the decision round)
  kCsnAssign,    // the coordinator drew the decision-time commit sequence
                 // number from the global source; value = csn

  // Online reconfiguration (shard subsystem).
  kReconfigBegin,    // shard map fenced (wedge epoch installed);
                     // site = leaving/target site, peer = destination,
                     // value = new epoch, detail = reconfiguration kind
  kReconfigHandoff,  // one source's shards + prepared residue moved;
                     // site = source, peer = destination, value = rows moved
  kReconfigDone,     // final map installed, moved shards live at the
                     // destination; value = new epoch, detail = kind
  kEpochRefused,     // an agent refused a message carrying a stale epoch;
                     // site = refusing agent, peer = sender,
                     // value = the agent's current epoch, detail = message
                     // kind (begin / dml / prepare / decision / 1pc)
};

// Why a certification refused a PREPARE.
enum class RefuseKind : uint8_t {
  kNone = 0,
  kInterval,    // basic certification: alive intervals do not intersect
  kExtension,   // extension: SN below the committed high-water mark
  kDead,        // subtransaction not alive at prepare time
  kUnknownTxn,  // PREPARE for a transaction the agent does not know
};

const char* EventKindName(EventKind kind);
const char* RefuseKindName(RefuseKind kind);

// Every EventKind / RefuseKind value, in declaration order. Shared by the
// binary decoder (range check on the kind byte) and the round-trip tests,
// so a kind added to the enum but missing here fails loudly in both.
inline constexpr EventKind kAllEventKinds[] = {
    EventKind::kTxnBegin,       EventKind::kStepStart,
    EventKind::kStepEnd,        EventKind::kPrepareSend,
    EventKind::kVoteRecv,       EventKind::kDecisionSend,
    EventKind::kAckRecv,        EventKind::kTxnEnd,
    EventKind::kPrepareRecv,    EventKind::kCertReady,
    EventKind::kCertRefuse,     EventKind::kResubmitStart,
    EventKind::kResubmitDone,   EventKind::kCommitRetry,
    EventKind::kLocalCommit,    EventKind::kLocalAbort,
    EventKind::kUnilateralAbort, EventKind::kLocalTxnBegin,
    EventKind::kLocalTxnEnd,    EventKind::kSiteCrash,
    EventKind::kSiteRecover,    EventKind::kInquirySend,
    EventKind::kInquiryReply,   EventKind::kMsgSend,
    EventKind::kMsgDrop,        EventKind::kMsgDup,
    EventKind::kRetransmit,     EventKind::kInjectFailure,
    EventKind::kFaultEvent,     EventKind::kCgmLock,
    EventKind::kCgmAdmission,   EventKind::kPaxosBegin,
    EventKind::kPaxosVote,      EventKind::kPaxosAccept,
    EventKind::kPaxosDecided,   EventKind::kPaxosPrepare,
    EventKind::kPaxosPromise,   EventKind::kPaxosElect,
    EventKind::kShortCommit,    EventKind::kCsnAssign,
    EventKind::kReconfigBegin,  EventKind::kReconfigHandoff,
    EventKind::kReconfigDone,   EventKind::kEpochRefused,
};

inline constexpr RefuseKind kAllRefuseKinds[] = {
    RefuseKind::kNone, RefuseKind::kInterval, RefuseKind::kExtension,
    RefuseKind::kDead, RefuseKind::kUnknownTxn,
};

// One trace record. Only `kind` is always meaningful; the other fields are
// populated per kind as documented on EventKind. Unset fields keep their
// defaults.
struct Event {
  int64_t seq = -1;   // assigned by the Tracer: position in the trace
  sim::Time at = -1;  // virtual time, stamped by the Tracer
  EventKind kind = EventKind::kTxnBegin;
  TxnId txn;                     // transaction the event belongs to
  SiteId site = kInvalidSite;    // site where the event happened
  SiteId peer = kInvalidSite;    // other endpoint (messages, fan-outs)
  int32_t resubmission = -1;     // local subtransaction index, if relevant
  int64_t value = -1;            // kind-specific scalar (see EventKind)
  core::SerialNumber sn;         // serial number, when relevant
  RefuseKind refuse = RefuseKind::kNone;
  bool ok = true;                // kind-specific outcome flag
  std::string detail;            // free-form context (reason messages)
  std::vector<TxnId> related;    // other transactions involved

  friend bool operator==(const Event& a, const Event& b) = default;
};

// A streaming consumer of the event stream as it is recorded. Folds
// attached to a Tracer see every *stored* event (after sampling, before
// any ring-buffer eviction), so an analysis built on a fold — the driver's
// windowed time series — stays complete even when the bounded ring has
// long overwritten the early records.
class EventFold {
 public:
  virtual ~EventFold() = default;
  virtual void Fold(const Event& e) = 0;
};

// Read by nothing: the binary format is the only trace format. Declared
// only because perfbench/composed_run.cc still assigns `format`; both go
// when perfbench next changes (ROADMAP item 4, step 2).
enum class TraceFormat : uint8_t {
  kBinary,
};

struct TracerOptions {
  // Unused; see TraceFormat.
  TraceFormat format = TraceFormat::kBinary;
  // Bound of the trace ring in records. The ring grows to it as events
  // arrive; once full, the oldest record is overwritten and counted in
  // stats().dropped — the trace is a sliding window over the tail of the
  // run.
  size_t ring_capacity = 1 << 20;
  // Keep 1 of every `sample_period` global transactions (whole-gtid,
  // seeded by `sample_seed`): either every event of a transaction is kept
  // or none is, so span trees built from a sampled trace stay well-formed.
  // Events without a global transaction id (site crashes, reconfiguration,
  // transport noise) are always kept. 1 = keep everything.
  uint32_t sample_period = 1;
  uint64_t sample_seed = 0;
};

// Drop accounting: `emitted` counts every Record call; `sampled_out`
// events were dropped by the per-gtid sampler; `dropped` records were
// evicted by ring overflow. emitted == stored + sampled_out + dropped, so
// nothing is ever silently truncated.
struct TracerStats {
  int64_t emitted = 0;
  int64_t dropped = 0;
  int64_t sampled_out = 0;
};

class TraceRing;

class Tracer {
 public:
  // `loop` provides the virtual timestamps; it must outlive the tracer.
  // May be null initially when the event loop is created later (the
  // workload driver builds its loop inside Run and rebinds the tracer).
  explicit Tracer(const sim::EventLoop* loop = nullptr);
  explicit Tracer(const TracerOptions& options,
                  const sim::EventLoop* loop = nullptr);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Rebinds the timestamp source (events recorded earlier keep their
  // stamps).
  void set_loop(const sim::EventLoop* loop) { loop_ = loop; }

  // Stamps `e.seq` (emit index — sampled-out events consume one too, so a
  // sampled trace shows honest gaps) and `e.at`, then stores the event in
  // the ring. Callers fill the typed fields.
  void Record(Event e);

  // What a hook asks before it builds an event of `txn`. True when the
  // sampler keeps `txn`: the hook builds the event and Records it. False
  // when it drops `txn`: the event is counted exactly as Record counts a
  // sampled-out one (it takes a seq, and counts as emitted and sampled
  // out), and the hook builds nothing.
  bool Admit(const TxnId& txn);

  // Number of events currently stored (at most ring_capacity).
  size_t size() const;
  void Clear();

  const TracerOptions& options() const { return options_; }
  const TracerStats& stats() const { return stats_; }

  // Whether the sampler keeps `txn`'s events (always true for period 1 or
  // non-global ids). Deterministic in (sample_seed, txn).
  bool KeepsTxn(const TxnId& txn) const;

  // Visits every stored event in record order, decoding the ring's binary
  // records on the fly — the streaming seam the span/series folds
  // consume.
  void ForEach(const std::function<void(const Event&)>& fn) const;

  // Attaches/detaches a streaming fold; attached folds see each stored
  // event at Record time. Folds are not owned and must outlive their
  // registration.
  void AddFold(EventFold* fold);
  void RemoveFold(EventFold* fold);

  // Serializes the stored events to the binary trace format (magic
  // "HTRB"; see docs/FORMATS.md).
  std::string ToBinary() const;

 private:
  const sim::EventLoop* loop_;
  TracerOptions options_;
  TracerStats stats_;
  std::unique_ptr<TraceRing> ring_;  // the stored events
  std::vector<EventFold*> folds_;
};

// The text form of a transaction id ("G<site>.<seq>", "L<site>.<seq>",
// "-" for none): tmstat's --txn flag and reports, and the `related` lists
// in the binary trace dictionary.
std::string EncodeTxnId(const TxnId& id);
void AppendTxnId(const TxnId& id, std::string& out);  // EncodeTxnId, appended
Result<TxnId> DecodeTxnId(const std::string& text);

}  // namespace hermes::trace

#endif  // HERMES_TRACE_TRACE_H_
