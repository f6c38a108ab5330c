// The durable XID → CSN log (the csn_log of PostgreSQL scale-out, scaled
// down to one site's certifier).
//
// Every local commit under the CSN scheme force-appends one (gtid, csn)
// record before the commit acknowledgement leaves the site. Like the agent
// and coordinator logs it is a DurableLog (common/durable_log.h) that
// survives Crash(): replay rebuilds the committed-CSN high-water mark and
// the XID → CSN map after a site failure, keeping CSN recovery consistent
// with the decision-log machinery (the agent's commit record carries the
// CSN for in-doubt subtransactions; this log indexes the completed ones).

#ifndef HERMES_CERT_CSN_LOG_H_
#define HERMES_CERT_CSN_LOG_H_

#include <cstdint>

#include "common/durable_log.h"
#include "common/ids.h"

namespace hermes::cert {

struct CsnLogRecord {
  TxnId gtid;
  int64_t csn = -1;
  int64_t lsn = 0;
  bool forced = false;
};

using CsnLog = DurableLog<CsnLogRecord>;

}  // namespace hermes::cert

#endif  // HERMES_CERT_CSN_LOG_H_
