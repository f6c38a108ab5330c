// Causal span trees folded from the flat trace event stream.
//
// A Tracer records *events*; this module reconstructs the *intervals*
// between them and arranges them causally: one root span per global
// transaction (coordinator submission -> global decision), with child
// spans for each participant's DML round-trips, the PREPARE -> vote
// round-trip, the agent-side certification (PREPARE arrival -> READY /
// REFUSE verdict), the prepared blocking window (certification READY ->
// local commit/rollback, the interval Gray & Lamport identify as 2PC's
// blocking cost), the decision -> ACK round-trip, and every resubmitted
// local incarnation T^s_kj linked to its predecessor. Under Paxos Commit
// an additional consensus span covers each deciding node's acceptor
// round (begin or election -> outcome chosen). Instant happenings
// inside a span (INQUIRY probes, retransmissions, unilateral aborts)
// attach to it as notes.
//
// Construction is a single forward pass over the events in trace order,
// so the forest — and every export derived from it — is byte-identical
// for byte-identical traces: same seed => same span tree, serially or on
// N harness workers.

#ifndef HERMES_TRACE_SPAN_H_
#define HERMES_TRACE_SPAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.h"

namespace hermes::trace {

enum class SpanKind : uint8_t {
  kTxn,            // whole global transaction at its coordinator
  kDml,            // per-site DML window: first step sent .. last reply
  kPrepare,        // coordinator view: PREPARE sent .. vote received
  kCertification,  // agent view: PREPARE arrived .. READY/REFUSE verdict
  kBlocked,        // prepared blocking window: READY .. local commit/abort
  kDecision,       // coordinator view: decision sent .. ACK received
  kResubmission,   // one resubmitted local incarnation T^s_kj
  kConsensus,      // Paxos Commit round: begin/elect .. outcome chosen
};

const char* SpanKindName(SpanKind kind);

// A timestamped marker inside a span (an event that has no duration of
// its own but explains the span's length: an inquiry probe, a
// retransmission, a unilateral abort, a fault firing). A site-local note
// that finds no open span at its site lands on the root and ends in
// "@<site>": unilateral aborts of still-active subtransactions and Paxos
// messages outside a consensus round.
struct SpanNote {
  sim::Time at = -1;
  std::string label;

  friend bool operator==(const SpanNote& a, const SpanNote& b) = default;
};

struct Span {
  int32_t id = -1;      // index in SpanForest::spans
  int32_t parent = -1;  // parent span index; -1 for roots
  SpanKind kind = SpanKind::kTxn;
  TxnId txn;
  SiteId site = kInvalidSite;  // participant (root: coordinating site)
  sim::Time begin = -1;
  sim::Time end = -1;  // -1 while open (crash orphan or truncated trace)
  bool ok = true;      // kind-specific outcome (committed / READY / ...)
  RefuseKind refuse = RefuseKind::kNone;
  int32_t resubmission = -1;  // incarnation index j for kResubmission
  int64_t value = -1;         // kind-specific scalar (attempt number, ...)
  // Previous incarnation of the same global subtransaction, chaining the
  // resubmission history T^s_k0 -> T^s_k1 -> ... across spans.
  int32_t prev = -1;
  std::vector<int32_t> children;  // child span ids, in creation order
  std::vector<SpanNote> notes;    // in trace order

  bool closed() const { return begin >= 0 && end >= 0; }
  sim::Duration length() const { return closed() ? end - begin : 0; }
};

// All spans of one trace. Spans are stored flat in creation order (which
// is trace order, hence deterministic); trees are expressed through the
// parent/children indices.
struct SpanForest {
  std::vector<Span> spans;
  std::vector<int32_t> roots;  // kTxn spans, in first-appearance order
  sim::Time trace_end = 0;     // timestamp of the last event

  const Span* Root(const TxnId& txn) const;

  // Indented per-transaction tree dump, one span per line with its
  // timing, outcome and notes. Deterministic: fixed field order, roots
  // and children in creation order.
  std::string ToString() const;
};

// Folds a flat event stream (as recorded by Tracer or parsed back from
// its binary export) into the span forest. Events without a valid global transaction
// id contribute only to trace_end.
SpanForest BuildSpanForest(const std::vector<Event>& events);

// Streams the tracer's stored events into the forest
// without materializing a vector.
SpanForest BuildSpanForest(const Tracer& tracer);

}  // namespace hermes::trace

#endif  // HERMES_TRACE_SPAN_H_
