// Committed projection C(H) as redefined by the paper (section 3).
//
// In addition to the classical committed projection of Bernstein et al.,
// C(H) here includes *all unilaterally aborted local subtransactions that
// belong to globally committed complete transactions* — this is what makes
// the global/local view distortions visible to the serializability theory.

#ifndef HERMES_HISTORY_PROJECTION_H_
#define HERMES_HISTORY_PROJECTION_H_

#include <string>
#include <vector>

#include "history/op.h"

namespace hermes::history {

// The paper's committed projection: R/W/P/c/a/C ops of globally committed
// complete global transactions (including ops of their unilaterally aborted
// local subtransactions) plus ops of committed local transactions.
// Original op order and `seq` values are preserved.
//
// A local transaction is committed once it commits locally. A global one
// is committed when its last global decision is C_k, and complete when
// every site at which it has R/W/P ops records a local commit or sees its
// prepared residue leave in a shard handoff (kMigrateOut).
std::vector<Op> CommittedProjection(const std::vector<Op>& h);

// Projection of a history onto one site's operations — H(^i) in the paper.
std::vector<Op> SiteProjection(const std::vector<Op>& h, SiteId site);

// Checks the paper's order invariant (1), which holds in every transaction
// history produced by the 2PC protocol:
//
//     P^i_k  <_H  C_k  <_H  C^s_k      for all sites i, s of T_k
//
// (every prepare of a global transaction precedes its global commit, which
// precedes every local commit), plus the structural rule that data
// operations of a subtransaction precede its prepare. Returns an empty
// string when the invariant holds, else a description of the first
// violation. Used as a protocol well-formedness oracle by the driver.
std::string CheckOrderInvariant(const std::vector<Op>& h);

// Global atomicity oracle for crash/fault runs: in the final state of the
// history, (1) no transaction has both C_k and A_k, (2) no site commits
// locally for a transaction without a global commit decision, and (3) once
// C_k is recorded no site's *final* outcome is a coordinator/agent-requested
// rollback. A final *unilateral* abort or a still-pending site is a liveness
// gap, not an atomicity violation: the agent would have resubmitted and
// committed had the run continued (runs truncated by max_sim_time legally
// end mid-recovery). Returns "" when atomicity holds, else a description of
// the first violation.
std::string CheckGlobalAtomicity(const std::vector<Op>& h);

}  // namespace hermes::history

#endif  // HERMES_HISTORY_PROJECTION_H_
