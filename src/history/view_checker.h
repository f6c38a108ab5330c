// View-serializability oracle.
//
// Implements the paper's correctness criterion: the committed projection
// C(H) — which includes unilaterally aborted local subtransactions of
// committed complete global transactions — must be view equivalent to some
// serial history containing the same transaction histories H(T_k).
//
// Equivalence is decided on (a) the reads-from relation, computed with full
// rollback semantics (a local abort A^s_kj undoes the subtransaction's
// writes, per the RR assumption), and (b) the final versions of all items.
// The exact check enumerates serial orders (feasible for the scripted
// scenario histories and small property-test runs); topological orders of
// CG(H) and SG(H) are tried first since the paper proves a CG-topological
// order is a view-serialization order.

#ifndef HERMES_HISTORY_VIEW_CHECKER_H_
#define HERMES_HISTORY_VIEW_CHECKER_H_

#include <string>
#include <vector>

#include "history/graphs.h"
#include "history/op.h"

namespace hermes::history {

enum class Verdict {
  kSerializable,
  kNotSerializable,
  // Too many transactions for the exact check, neither the CG nor the SG
  // topological order is a witness, and no transaction reads one item from
  // two versions before writing it (which refutes the history).
  kUnknown,
};

const char* VerdictName(Verdict v);

struct ViewCheckResult {
  Verdict verdict = Verdict::kUnknown;
  // Set when kSerializable: an equivalent serial order of transactions.
  std::vector<TxnId> witness;
  // Set when kNotSerializable: human-readable explanation (first
  // inequivalence found, checked orders count, or the two reads that
  // refute it). Set when kUnknown: the transaction count and the first
  // candidate order's mismatch.
  std::string reason;
  // Number of serial orders examined.
  uint64_t orders_tried = 0;
};

// Outcome of replaying a history with rollback semantics.
struct ReplayOutcome {
  // Indexed by Op::seq: the version each read observed in the replay
  // (initial for other ops).
  std::vector<db::VersionTag> reads_from;
  // The items the history reads or writes, ascending, and the last
  // surviving version of each at the same index.
  std::vector<ItemId> items;
  std::vector<db::VersionTag> final_versions;
};

// Replays `ops` in history order maintaining per-item version stacks;
// kLocalAbort removes the versions the aborting subtransaction wrote at the
// site (RR).
ReplayOutcome Replay(const std::vector<Op>& ops);

// Self-check of the recording pipeline: replaying C(H) in history order must
// observe exactly the version tags the execution actually recorded, provided
// no transaction read from a version that C(H) excludes (dirty read). The
// returned string is empty on success, else a description of the mismatch.
std::string VerifyReplayMatchesRecorded(const std::vector<Op>& committed);

// The exact view-serializability check over a committed projection.
// `max_txns` bounds the permutation search; past it, a history in which a
// transaction reads one item from two versions before writing it is
// refuted, and any other that no candidate order explains is kUnknown.
// `cg` must be BuildCommitOrderGraph(committed), for callers that have
// already built it.
ViewCheckResult CheckViewSerializability(const std::vector<Op>& committed,
                                         const TxnGraph& cg,
                                         size_t max_txns = 9);
ViewCheckResult CheckViewSerializability(const std::vector<Op>& committed,
                                         size_t max_txns = 9);

// The paper's polynomial sufficient condition (Theorem 19 of the companion
// report): CG(C(H)) acyclic => H view serializable (assuming CI and DLU held
// during execution).
bool CommitGraphAcyclic(const std::vector<Op>& committed);

}  // namespace hermes::history

#endif  // HERMES_HISTORY_VIEW_CHECKER_H_
