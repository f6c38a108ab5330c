// System-level reproductions of the paper's distortion scenarios, executed
// through the real protocol stack (coordinators, network, agents, LTMs).
// The histories are built once, by the E1/E2 sweep (bench::RunH1/RunH2);
// these tests assert their outcomes.
//
// Each scenario is run twice: with certification disabled (CertPolicy::kNone)
// the paper's anomaly materializes and the oracle rejects the history; with
// the full certifier the anomaly is prevented.

#include <gtest/gtest.h>

#include <optional>

#include "bench/sweeps.h"

namespace hermes {
namespace {

using bench::HistoryRun;
using core::CertPolicy;

constexpr SiteId kA = 0;
constexpr SiteId kB = 1;

// Every run replays to its recorded values and ends before its event
// budget (a livelock would exhaust it).
void ExpectSound(const HistoryRun& run) {
  EXPECT_EQ(run.replay_error, "");
  EXPECT_FALSE(run.budget_exhausted);
}

void ExpectCommitted(const std::optional<Status>& status, const char* who) {
  ASSERT_TRUE(status.has_value()) << who << " did not finish";
  EXPECT_TRUE(status->ok()) << who << ": " << *status;
}

void ExpectAborted(const std::optional<Status>& status, const char* who) {
  ASSERT_TRUE(status.has_value()) << who << " did not finish";
  EXPECT_FALSE(status->ok()) << who << " committed";
}

// Whether T1 committed before the intruder at `site`; both must have
// committed there.
bool T1CommittedFirst(const HistoryRun& run, SiteId site) {
  const int64_t t1_at = run.t1_commit_seq[static_cast<size_t>(site)];
  const int64_t intruder_at =
      run.intruder_commit_seq[static_cast<size_t>(site)];
  EXPECT_GE(t1_at, 0);
  EXPECT_GE(intruder_at, 0);
  return t1_at < intruder_at;
}

// --- H1: global view distortion ----------------------------------------------
// T1 (coordinated from site c): reads X@a, updates Y@a, updates Z@b. T2
// (coordinated at a) updates X@a, deletes Y@a and updates Z@b; its update
// of X waits on T1's read lock when T1's prepared subtransaction at a is
// unilaterally aborted. T1's resubmission then re-decomposes (Y is gone)
// and reads T2's X — two views for T1.

TEST(ScenarioTest, H1NaiveAgentProducesGlobalViewDistortion) {
  const HistoryRun run = bench::RunH1(CertPolicy::kNone);
  ExpectSound(run);
  ExpectCommitted(run.t1_status, "T1");
  ExpectCommitted(run.intruder_status, "T2");
  EXPECT_GE(run.resubmissions, 1);

  // Y was deleted by T2, so T1's resubmitted update matched nothing.
  EXPECT_TRUE(run.y_exists);
  EXPECT_FALSE(run.y_at_a.has_value());

  EXPECT_EQ(run.verdict, history::Verdict::kNotSerializable)
      << run.verdict_reason;
}

TEST(ScenarioTest, H1FullCertifierPreventsTheDistortion) {
  const HistoryRun run = bench::RunH1(CertPolicy::kFull);
  ExpectSound(run);
  // T1 survives the failure via resubmission; T2 is filtered out by the
  // basic prepare certification (its alive interval cannot intersect the
  // dead T1's).
  ExpectCommitted(run.t1_status, "T1");
  ExpectAborted(run.intruder_status, "T2");
  EXPECT_TRUE(run.intruder_refused);
  EXPECT_GE(run.refuse_interval, 1);

  // T1's updates applied exactly once; Y still exists.
  ASSERT_TRUE(run.y_at_a.has_value());
  EXPECT_EQ(*run.y_at_a, 10);

  EXPECT_EQ(run.verdict, history::Verdict::kSerializable)
      << run.verdict_reason;
}

// --- H2: local view distortion -----------------------------------------------
// T1 as in H1. The local transaction L4's read of Y waits on T1's write
// lock when T1's subtransaction at a dies, so it reads T_0's Y and then
// blocks T1's resubmitted write of Y. T3 reads Z@b (from T1) and updates
// Q@a, committing at a before T1's resubmission does; L4 reads Q late
// (observing T3). L4's view is inconsistent: it sees T3 but not T1 while
// T3 read from T1.

TEST(ScenarioTest, H2NaiveAgentProducesLocalViewDistortion) {
  const HistoryRun run = bench::RunH2(CertPolicy::kNone);
  ExpectSound(run);
  ExpectCommitted(run.t1_status, "T1");
  ExpectCommitted(run.intruder_status, "T3");
  ExpectCommitted(run.local_status, "L4");

  // The reversed local commit orders of the paper's H2: T1 before T3 at b,
  // T3 before T1 at a.
  EXPECT_TRUE(T1CommittedFirst(run, kB));
  EXPECT_FALSE(T1CommittedFirst(run, kA));
  EXPECT_FALSE(run.cg_acyclic);

  EXPECT_EQ(run.verdict, history::Verdict::kNotSerializable)
      << run.verdict_reason;
}

TEST(ScenarioTest, H2FullCertifierKeepsHistoryViewSerializable) {
  const HistoryRun run = bench::RunH2(CertPolicy::kFull);
  ExpectSound(run);
  ExpectCommitted(run.t1_status, "T1");
  // T3 is refused by the prepare certification at site a (T1 was not alive
  // simultaneously with it).
  ExpectAborted(run.intruder_status, "T3");
  // L4's commands and commit succeed under certification too.
  ExpectCommitted(run.local_status, "L4");

  EXPECT_TRUE(run.cg_acyclic);
  EXPECT_EQ(run.verdict, history::Verdict::kSerializable)
      << run.verdict_reason;
}

}  // namespace
}  // namespace hermes
