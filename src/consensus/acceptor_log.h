// Stable storage of one Paxos Commit acceptor: a DurableLog
// (common/durable_log.h) whose every record is force-written before the
// reply leaves the site.
//
// Three record kinds capture everything an acceptor promises:
//  - kPromise: highest ballot promised for a transaction (phase 1b).
//  - kMembership: the accepted participant-set value of the per-transaction
//    membership synod (ballot 0 = the real set proposed by the leader; a
//    higher-ballot empty set is the abort marker chosen by a resolver that
//    found no membership in its quorum).
//  - kVote: the accepted value of one participant's vote instance
//    (ballot 0 = the RM's own vote; higher ballots = resolver proposals).
//
// Recovery replays the records in order; the latest record per key wins,
// exactly reproducing the acceptor's volatile tables at crash time.

#ifndef HERMES_CONSENSUS_ACCEPTOR_LOG_H_
#define HERMES_CONSENSUS_ACCEPTOR_LOG_H_

#include <cstdint>
#include <vector>

#include "common/durable_log.h"
#include "common/ids.h"

namespace hermes::consensus {

enum class AcceptorRecordKind : uint8_t {
  kPromise,     // promised ballot for gtid
  kMembership,  // accepted membership value at ballot
  kVote,        // accepted vote value for (gtid, participant) at ballot
};

struct AcceptorLogRecord {
  AcceptorRecordKind kind = AcceptorRecordKind::kPromise;
  TxnId gtid;
  int64_t ballot = 0;
  SiteId participant = kInvalidSite;  // kVote
  bool ready = false;                 // kVote
  std::vector<SiteId> membership;     // kMembership (empty = abort marker)
  int64_t lsn = 0;
  bool forced = false;
};

using AcceptorLog = DurableLog<AcceptorLogRecord>;

}  // namespace hermes::consensus

#endif  // HERMES_CONSENSUS_ACCEPTOR_LOG_H_
