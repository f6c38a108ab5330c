// Operations of the paper's history model (section 3).
//
// A history H is a linear sequence of:
//   R_kj[X^s], W_kj[X^s]  — elementary reads/writes at the EI of site s by
//                           the j-th local subtransaction of transaction k,
//   P^s_k                 — the 2PC agent at s moved T^s_k to prepared,
//   C^s_kj / A^s_kj       — local commit/abort of a local subtransaction,
//   C_k / A_k             — the global commit/abort decision of T_k.
//
// Reads carry the provenance (VersionTag) of the version actually observed;
// the view-serializability oracle compares this reads-from relation against
// serial replays.

#ifndef HERMES_HISTORY_OP_H_
#define HERMES_HISTORY_OP_H_

#include <cstdint>
#include <string>

#include "common/ids.h"
#include "db/table.h"
#include "sim/event_loop.h"

namespace hermes::history {

enum class OpKind : uint8_t {
  kRead,
  kWrite,        // update/insert (produces a live version)
  kDelete,       // write producing a tombstone
  kPrepare,      // P^s_k
  kLocalCommit,  // C^s_kj
  kLocalAbort,   // A^s_kj
  kGlobalCommit,  // C_k
  kGlobalAbort,   // A_k
  kMigrateOut,    // M^s_kj: the subtransaction's prepared residue left site
                  // s in a shard handoff; the site's local outcome is
                  // settled by the adopting site instead
};

const char* OpKindName(OpKind kind);

// Ops that produce a version of their item.
inline bool IsWriteKind(OpKind k) {
  return k == OpKind::kWrite || k == OpKind::kDelete;
}
// Elementary ops on an item: reads and writes.
inline bool IsDataKind(OpKind k) {
  return IsWriteKind(k) || k == OpKind::kRead;
}

// A history holds one Op per step, so the fields are ordered to pack:
// `site`, `kind` and `unilateral` share the word after `subtxn` (96 bytes
// on LP64).
struct Op {
  // The local subtransaction performing the op. For global-level ops
  // (kGlobalCommit/kGlobalAbort) resubmission is 0 and site is the
  // coordinating site. For kPrepare, resubmission is the resubmission index
  // current at prepare time.
  SubTxnId subtxn;
  SiteId site = kInvalidSite;
  OpKind kind = OpKind::kRead;
  // True for kLocalAbort events caused by the LDBS itself (unilateral
  // abort), false for aborts requested by the agent/coordinator.
  bool unilateral = false;
  // For kRead/kWrite/kDelete.
  ItemId item;
  // kRead: version observed. kWrite/kDelete: version produced.
  db::VersionTag version;
  // Position in H (dense, 0-based) and virtual time.
  uint64_t seq = 0;
  sim::Time at = 0;

  std::string ToString() const;
};

}  // namespace hermes::history

#endif  // HERMES_HISTORY_OP_H_
