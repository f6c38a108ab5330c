// Unit tests of the history toolkit, including exact reproductions of the
// paper's example histories:
//   H1 (section 3)  — global view distortion after a unilateral abort and
//                     resubmission,
//   H2 (section 5.1) — local view distortion through a direct conflict,
//   H3 (section 5.1) — local view distortion through purely indirect
//                     conflicts (reversed commit orders, no shared items).
// The view-serializability oracle must reject all three and accept their
// well-ordered variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>

#include "common/str.h"
#include "history/dense_index.h"
#include "history/graphs.h"
#include "history/projection.h"
#include "history/recorder.h"
#include "history/view_checker.h"

namespace hermes::history {
namespace {

// Builds op sequences the way the execution engine would record them:
// version tags carry per-subtransaction write sequence numbers, reads carry
// the observed tag.
class HistoryBuilder {
 public:
  // Sites and items.
  static constexpr SiteId kA = 0;
  static constexpr SiteId kB = 1;

  ItemId Item(SiteId site, int64_t key) const { return ItemId{site, 0, key}; }

  db::VersionTag Write(const SubTxnId& subtxn, const ItemId& item,
                       bool is_delete = false) {
    const db::VersionTag tag{subtxn, ++write_seq_[subtxn]};
    Op op;
    op.kind = is_delete ? OpKind::kDelete : OpKind::kWrite;
    op.subtxn = subtxn;
    op.site = item.site;
    op.item = item;
    op.version = tag;
    Append(op);
    return tag;
  }

  void Read(const SubTxnId& subtxn, const ItemId& item,
            const db::VersionTag& from) {
    Op op;
    op.kind = OpKind::kRead;
    op.subtxn = subtxn;
    op.site = item.site;
    op.item = item;
    op.version = from;
    Append(op);
  }

  void Prepare(const SubTxnId& subtxn, SiteId site) {
    Op op;
    op.kind = OpKind::kPrepare;
    op.subtxn = subtxn;
    op.site = site;
    Append(op);
  }

  void LocalCommit(const SubTxnId& subtxn, SiteId site) {
    Op op;
    op.kind = OpKind::kLocalCommit;
    op.subtxn = subtxn;
    op.site = site;
    Append(op);
  }

  void LocalAbort(const SubTxnId& subtxn, SiteId site,
                  bool unilateral = true) {
    Op op;
    op.kind = OpKind::kLocalAbort;
    op.subtxn = subtxn;
    op.site = site;
    op.unilateral = unilateral;
    Append(op);
  }

  void GlobalAbort(const TxnId& txn) {
    Op op;
    op.kind = OpKind::kGlobalAbort;
    op.subtxn = SubTxnId{txn, 0};
    op.site = 2;  // coordinating site
    Append(op);
  }

  void MigrateOut(const SubTxnId& subtxn, SiteId site) {
    Op op;
    op.kind = OpKind::kMigrateOut;
    op.subtxn = subtxn;
    op.site = site;
    Append(op);
  }

  void GlobalCommit(const TxnId& txn) {
    Op op;
    op.kind = OpKind::kGlobalCommit;
    op.subtxn = SubTxnId{txn, 0};
    op.site = 2;  // coordinating site
    Append(op);
  }

  const std::vector<Op>& ops() const { return ops_; }

 private:
  void Append(Op op) {
    op.seq = ops_.size();
    op.at = static_cast<sim::Time>(ops_.size());
    ops_.push_back(op);
  }

  std::vector<Op> ops_;
  std::map<SubTxnId, uint64_t> write_seq_;
};

SubTxnId Sub(int64_t k, int resubmission = 0) {
  return SubTxnId{TxnId::MakeGlobal(2, k), resubmission};
}
SubTxnId Local(SiteId site, int64_t k) {
  return SubTxnId{TxnId::MakeLocal(site, k), 0};
}

// --- H1: global view distortion (paper section 3) ----------------------------

std::vector<Op> BuildH1() {
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kA, 1);
  const auto Z = h.Item(HistoryBuilder::kB, 2);
  const db::VersionTag t0{};  // initial transaction T_0

  const SubTxnId t10 = Sub(1, 0), t11 = Sub(1, 1), t20 = Sub(2, 0);

  // T1 original execution.
  h.Read(t10, X, t0);
  h.Read(t10, Y, t0);
  h.Write(t10, Y);
  h.Read(t10, Z, t0);
  const auto w10z = h.Write(t10, Z);
  h.Prepare(t10, HistoryBuilder::kA);
  h.Prepare(t10, HistoryBuilder::kB);
  h.GlobalCommit(t10.txn);
  h.LocalAbort(t10, HistoryBuilder::kA);  // unilateral abort at site a
  h.LocalCommit(t10, HistoryBuilder::kB);

  // T2 runs in the failure window: deletes Y, updates X, updates Z.
  h.Write(t20, Y, /*is_delete=*/true);
  h.Read(t20, X, t0);
  const auto w20x = h.Write(t20, X);
  h.Read(t20, Z, w10z);
  h.Write(t20, Z);
  h.Prepare(t20, HistoryBuilder::kA);
  h.Prepare(t20, HistoryBuilder::kB);
  h.GlobalCommit(t20.txn);
  h.LocalCommit(t20, HistoryBuilder::kA);
  h.LocalCommit(t20, HistoryBuilder::kB);

  // T1's resubmission at a: Y is gone, so the decomposition shrank to a
  // single read — which now observes T2's X. Two views for T1.
  h.Read(t11, X, w20x);
  h.LocalCommit(t11, HistoryBuilder::kA);
  return h.ops();
}

TEST(PaperHistories, H1GlobalViewDistortionIsNotViewSerializable) {
  const auto ops = BuildH1();
  const auto committed = CommittedProjection(ops);
  // Both T1 and T2 are committed and complete, so nothing is dropped.
  EXPECT_EQ(committed.size(), ops.size());
  EXPECT_EQ(VerifyReplayMatchesRecorded(committed), "");

  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable) << check.reason;
}

TEST(PaperHistories, H1LocalProjectionAtSiteAIsClassicallySerializable) {
  // The paper's point: H1(^a) *looks* serializable to the local scheduler
  // (whose committed projection excludes the aborted T^a_10); only the
  // redefined C(H) exposes the distortion.
  const auto ops = BuildH1();
  const auto site_a = SiteProjection(ops, HistoryBuilder::kA);
  // Classical local view: drop T10's aborted ops, keep T11 and T20.
  std::vector<Op> classical;
  for (const Op& op : site_a) {
    if (op.subtxn == Sub(1, 0)) continue;
    classical.push_back(op);
  }
  const auto check = CheckViewSerializability(classical);
  EXPECT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
}

TEST(PaperHistories, H1SerializationGraphHasCycle) {
  const auto committed = CommittedProjection(BuildH1());
  EXPECT_TRUE(BuildSerializationGraph(committed).HasCycle());
}

// --- H2: local view distortion, direct conflict (section 5.1) ---------------

std::vector<Op> BuildH2() {
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kA, 1);
  const auto Q = h.Item(HistoryBuilder::kA, 3);
  const auto U = h.Item(HistoryBuilder::kA, 4);
  const auto Z = h.Item(HistoryBuilder::kB, 2);
  const db::VersionTag t0{};

  const SubTxnId t10 = Sub(1, 0), t11 = Sub(1, 1), t30 = Sub(3, 0);
  const SubTxnId l4 = Local(HistoryBuilder::kA, 4);

  // T1 as in H1.
  h.Read(t10, X, t0);
  h.Read(t10, Y, t0);
  h.Write(t10, Y);
  h.Read(t10, Z, t0);
  const auto w10z = h.Write(t10, Z);
  h.Prepare(t10, HistoryBuilder::kA);
  h.Prepare(t10, HistoryBuilder::kB);
  h.GlobalCommit(t10.txn);
  h.LocalAbort(t10, HistoryBuilder::kA);
  h.LocalCommit(t10, HistoryBuilder::kB);

  // T3 reads Z from T1 at b and writes Q at a; commits at a *before* T1's
  // resubmission commits there (reversed local commit orders).
  h.Read(t30, Z, w10z);
  h.Read(t30, Q, t0);
  const auto w30q = h.Write(t30, Q);
  h.Prepare(t30, HistoryBuilder::kA);
  h.Prepare(t30, HistoryBuilder::kB);
  h.GlobalCommit(t30.txn);
  h.LocalCommit(t30, HistoryBuilder::kA);
  h.LocalCommit(t30, HistoryBuilder::kB);

  // Local transaction L4 at a: sees T3's Q but T_0's Y — an inconsistent
  // view (T3 observed T1's effects, L4 does not).
  h.Read(l4, Q, w30q);
  h.Read(l4, Y, t0);
  h.Write(l4, U);
  h.LocalCommit(l4, HistoryBuilder::kA);

  // T1's resubmission at a.
  h.Read(t11, X, t0);
  h.Read(t11, Y, t0);
  h.Write(t11, Y);
  h.LocalCommit(t11, HistoryBuilder::kA);
  return h.ops();
}

TEST(PaperHistories, H2LocalViewDistortionIsNotViewSerializable) {
  const auto committed = CommittedProjection(BuildH2());
  EXPECT_EQ(VerifyReplayMatchesRecorded(committed), "");
  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable) << check.reason;
}

TEST(PaperHistories, H2CommitOrderGraphIsCyclic) {
  const auto committed = CommittedProjection(BuildH2());
  const TxnGraph cg = BuildCommitOrderGraph(committed);
  // The cycle runs through T1 and T3 (commits reversed across a and b).
  const auto cycle = cg.FindCycle();
  ASSERT_TRUE(cycle.has_value()) << cg.ToString();
  EXPECT_NE(std::find(cycle->begin(), cycle->end(), Sub(1, 0).txn),
            cycle->end());
  EXPECT_NE(std::find(cycle->begin(), cycle->end(), Sub(3, 0).txn),
            cycle->end());
}

// --- H3: local view distortion, indirect conflicts only (section 5.1) -------

// T5 writes A@a and C@b, T6 writes B@a and D@b — no direct conflict
// anywhere, so their prepares may occur in any relative order at the two
// sites. Unilateral aborts open the failure windows in which local readers
// observe the reversed commit orders. (Without failures, rigorous LTMs keep
// prepared subtransactions' locks, so locals cannot read around them — "if
// no unilateral aborts of prepared local subtransactions occur, then no
// anomalies can occur".)
std::vector<Op> BuildH3(bool reversed_commit_orders) {
  HistoryBuilder h;
  const auto A = h.Item(HistoryBuilder::kA, 0);
  const auto B = h.Item(HistoryBuilder::kA, 1);
  const auto C = h.Item(HistoryBuilder::kB, 2);
  const auto D = h.Item(HistoryBuilder::kB, 3);
  const db::VersionTag t0{};

  const SubTxnId t5 = Sub(5, 0), t5r = Sub(5, 1);
  const SubTxnId t6 = Sub(6, 0), t6r = Sub(6, 1);
  const SubTxnId l7 = Local(HistoryBuilder::kA, 7);
  const SubTxnId l8 = Local(HistoryBuilder::kB, 8);

  const auto w5a = h.Write(t5, A);
  h.Write(t5, C);
  const auto w6b = h.Write(t6, B);
  const auto w6d = h.Write(t6, D);
  (void)w6b;
  h.Prepare(t5, HistoryBuilder::kA);
  h.Prepare(t5, HistoryBuilder::kB);
  h.Prepare(t6, HistoryBuilder::kA);
  h.Prepare(t6, HistoryBuilder::kB);
  h.GlobalCommit(t5.txn);
  h.GlobalCommit(t6.txn);

  // Site a: T6's subtransaction is unilaterally aborted (its write of B is
  // undone and its locks released); T5 commits; local L7 reads A from T5
  // and B from T_0 — it sees T5 but not T6. T6 is then resubmitted and
  // commits at a.
  h.LocalAbort(t6, HistoryBuilder::kA);
  h.LocalCommit(t5, HistoryBuilder::kA);
  h.Read(l7, A, w5a);
  h.Read(l7, B, t0);
  h.LocalCommit(l7, HistoryBuilder::kA);
  h.Write(t6r, B);
  h.LocalCommit(t6r, HistoryBuilder::kA);

  if (reversed_commit_orders) {
    // Site b mirrors the failure with the roles swapped: T5's
    // subtransaction aborts, T6 commits first, and L8 sees T6 but not T5 —
    // the pair of local views is jointly unserializable.
    h.LocalAbort(t5, HistoryBuilder::kB);
    h.LocalCommit(t6, HistoryBuilder::kB);
    h.Read(l8, D, w6d);
    h.Read(l8, C, t0);
    h.LocalCommit(l8, HistoryBuilder::kB);
    const auto w5c_r = h.Write(t5r, C);
    (void)w5c_r;
    h.LocalCommit(t5r, HistoryBuilder::kB);
  } else {
    // No failure at b: commits land in the same order as at a and L8's
    // view is consistent with L7's.
    h.LocalCommit(t5, HistoryBuilder::kB);
    h.LocalCommit(t6, HistoryBuilder::kB);
    const auto w5c = t0;  // unused marker
    (void)w5c;
    h.Read(l8, D, w6d);
    h.LocalCommit(l8, HistoryBuilder::kB);
  }
  return h.ops();
}

TEST(PaperHistories, H3IndirectLocalViewDistortionIsNotViewSerializable) {
  const auto committed = CommittedProjection(BuildH3(true));
  EXPECT_EQ(VerifyReplayMatchesRecorded(committed), "");
  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable) << check.reason;
  // No direct conflict between T5 and T6, yet CG is cyclic.
  EXPECT_FALSE(BuildSerializationGraph(committed)
                   .HasEdge(Sub(5, 0).txn, Sub(6, 0).txn));
  EXPECT_TRUE(BuildCommitOrderGraph(committed).HasCycle());
}

TEST(PaperHistories, H3WithAlignedCommitOrdersIsViewSerializable) {
  const auto committed = CommittedProjection(BuildH3(false));
  EXPECT_FALSE(BuildCommitOrderGraph(committed).HasCycle());
  const auto check = CheckViewSerializability(committed);
  EXPECT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
}

// --- committed projection ----------------------------------------------------

TEST(Projection, DropsAbortedGlobalAndKeepsAbortedSubtxnOfCommitted) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const db::VersionTag t0{};
  const SubTxnId committed0 = Sub(1, 0), committed1 = Sub(1, 1);
  const SubTxnId aborted = Sub(2, 0);

  h.Read(committed0, X, t0);
  h.Prepare(committed0, 0);
  h.GlobalCommit(committed0.txn);
  h.LocalAbort(committed0, 0);
  h.Read(committed1, X, t0);
  h.LocalCommit(committed1, 0);

  h.Read(aborted, X, t0);  // global transaction that never commits

  const auto committed = CommittedProjection(h.ops());
  // All of T1's ops survive — including the unilaterally aborted
  // subtransaction's read — and T2's read is dropped.
  ASSERT_EQ(committed.size(), 6u);
  for (const Op& op : committed) {
    EXPECT_EQ(op.subtxn.txn, committed0.txn);
  }
}

TEST(Projection, GlobalTxnMissingALocalCommitIsIncomplete) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const auto Z = h.Item(1, 1);
  const SubTxnId t = Sub(1, 0);
  h.Write(t, X);
  h.Write(t, Z);
  h.Prepare(t, 0);
  h.Prepare(t, 1);
  h.GlobalCommit(t.txn);
  h.LocalCommit(t, 0);  // site 1's local commit still missing
  EXPECT_TRUE(CommittedProjection(h.ops()).empty());

  h.LocalCommit(t, 1);  // now committed and complete
  EXPECT_EQ(CommittedProjection(h.ops()).size(), h.ops().size());
}

TEST(OrderInvariant, HoldsForWellFormedHistories) {
  EXPECT_EQ(CheckOrderInvariant(BuildH1()), "");
  EXPECT_EQ(CheckOrderInvariant(BuildH2()), "");
  EXPECT_EQ(CheckOrderInvariant(BuildH3(true)), "");
}

TEST(OrderInvariant, DetectsLocalCommitBeforeGlobalCommit) {
  HistoryBuilder h;
  const SubTxnId t = Sub(1, 0);
  h.Write(t, h.Item(0, 0));
  h.Prepare(t, 0);
  h.LocalCommit(t, 0);  // before C_k: the 2PC protocol forbids this
  h.GlobalCommit(t.txn);
  EXPECT_NE(CheckOrderInvariant(h.ops()), "");
}

TEST(OrderInvariant, DetectsPrepareAfterGlobalCommit) {
  HistoryBuilder h;
  const SubTxnId t = Sub(1, 0);
  h.Write(t, h.Item(0, 0));
  h.GlobalCommit(t.txn);
  h.Prepare(t, 0);  // C_k requires all READY votes, hence all prepares
  h.LocalCommit(t, 0);
  EXPECT_NE(CheckOrderInvariant(h.ops()), "");
}

// --- graphs -------------------------------------------------------------------

TEST(Graphs, TopologicalOrderOfAcyclicGraph) {
  TxnGraph g;
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(0, 2);
  const TxnId c = TxnId::MakeGlobal(0, 3);
  g.AddEdge(a, b);
  g.AddEdge(b, c);
  g.AddEdge(a, c);
  EXPECT_FALSE(g.HasCycle());
  const auto topo = g.TopologicalOrder();
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(*topo, (std::vector<TxnId>{a, b, c}));
}

TEST(Graphs, FindCycleReturnsClosedPath) {
  TxnGraph g;
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(0, 2);
  g.AddEdge(a, b);
  g.AddEdge(b, a);
  const auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_FALSE(g.TopologicalOrder().has_value());
}

TEST(Graphs, MillionNodeChainDoesNotOverflowTheStack) {
  // A reduced CG is one chain of commits per site, as deep as the history
  // is long.
  constexpr int64_t kNodes = 1'000'000;
  TxnGraph g;
  for (int64_t i = 1; i < kNodes; ++i) {
    g.AddEdge(TxnId::MakeGlobal(0, i - 1), TxnId::MakeGlobal(0, i));
  }
  ASSERT_EQ(g.node_count(), static_cast<size_t>(kNodes));
  EXPECT_FALSE(g.FindCycle().has_value());
  EXPECT_FALSE(g.HasCycle());
  const auto topo = g.TopologicalOrder();
  ASSERT_TRUE(topo.has_value());
  ASSERT_EQ(topo->size(), static_cast<size_t>(kNodes));
  for (int64_t i = 0; i < kNodes; ++i) {
    ASSERT_EQ((*topo)[i], TxnId::MakeGlobal(0, i));
  }

  // One back edge closes the whole chain into a cycle.
  g.AddEdge(TxnId::MakeGlobal(0, kNodes - 1), TxnId::MakeGlobal(0, 0));
  const auto cycle = g.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), static_cast<size_t>(kNodes + 1));
  EXPECT_EQ(cycle->front(), cycle->back());
  EXPECT_TRUE(g.HasCycle());
  EXPECT_FALSE(g.TopologicalOrder().has_value());
}

TEST(Graphs, CommitOrderGraphExemptsMigratedTransactions) {
  // A shard handoff moves T1's prepared residue from site b to site a; the
  // adopted subtransaction commits at a when the carried decision lands,
  // which can be after unrelated commits at a — an inversion the adopter's
  // SN-certified commit order cannot rule out. CG must exempt migrated
  // transactions; they stay in C(H) for the atomicity/replay/VSR oracles.
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kA, 1);
  const auto Z = h.Item(HistoryBuilder::kB, 2);
  const SubTxnId t1 = Sub(1), l = Local(HistoryBuilder::kA, 1);

  h.Write(t1, X);
  h.Write(t1, Z);
  h.Prepare(t1, HistoryBuilder::kA);
  h.Prepare(t1, HistoryBuilder::kB);
  h.GlobalCommit(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  h.MigrateOut(t1, HistoryBuilder::kB);  // residue leaves b for a
  h.Write(l, Y);
  h.LocalCommit(l, HistoryBuilder::kA);
  h.LocalCommit(t1, HistoryBuilder::kA);  // adopted commit lands after L

  const auto committed = CommittedProjection(h.ops());
  EXPECT_FALSE(BuildCommitOrderGraph(committed).HasCycle());
  EXPECT_TRUE(CommitGraphAcyclic(committed));

  // Without the kMigrateOut marker the same commit sequence reads as a
  // genuine T1 -> L -> T1 inversion at site a.
  auto unmarked = h.ops();
  std::erase_if(unmarked,
                [](const Op& op) { return op.kind == OpKind::kMigrateOut; });
  EXPECT_TRUE(BuildCommitOrderGraph(unmarked).HasCycle());
}

// --- replay -------------------------------------------------------------------

db::VersionTag FinalVersion(const ReplayOutcome& out, const ItemId& item) {
  const auto it = std::find(out.items.begin(), out.items.end(), item);
  return out.final_versions.at(it - out.items.begin());
}

TEST(Replay, AbortRestoresPreviousVersion) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const SubTxnId w1 = Local(0, 1), w2 = Local(0, 2), r = Local(0, 3);
  const auto v1 = h.Write(w1, X);
  h.LocalCommit(w1, 0);
  h.Write(w2, X);
  h.LocalAbort(w2, 0);
  h.Read(r, X, v1);
  h.LocalCommit(r, 0);

  const ReplayOutcome out = Replay(h.ops());
  // The read (seq 4) observes w1's version because w2 was rolled back.
  EXPECT_EQ(out.reads_from.at(4), v1);
  EXPECT_EQ(FinalVersion(out, X), v1);
}

TEST(Replay, MultipleWritesBySameTxnUnwindTogether) {
  HistoryBuilder h;
  const auto X = h.Item(0, 0);
  const SubTxnId w = Local(0, 1);
  h.Write(w, X);
  h.Write(w, X);
  h.LocalAbort(w, 0);

  const ReplayOutcome out = Replay(h.ops());
  EXPECT_TRUE(FinalVersion(out, X).initial());
}

// --- global atomicity oracle -------------------------------------------------

TEST(GlobalAtomicity, CleanCommitAndCleanAbortPass) {
  HistoryBuilder h;
  const auto X = h.Item(HistoryBuilder::kA, 0);
  const auto Y = h.Item(HistoryBuilder::kB, 1);

  const SubTxnId t1 = Sub(1);
  h.Write(t1, X);
  h.Write(t1, Y);
  h.Prepare(t1, HistoryBuilder::kA);
  h.Prepare(t1, HistoryBuilder::kB);
  h.GlobalCommit(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  h.LocalCommit(t1, HistoryBuilder::kB);

  const SubTxnId t2 = Sub(2);
  h.Write(t2, X);
  h.GlobalAbort(t2.txn);
  h.LocalAbort(t2, HistoryBuilder::kA, /*unilateral=*/false);

  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, BothDecisionsRecordedIsAViolation) {
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.GlobalCommit(t1.txn);
  h.GlobalAbort(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  EXPECT_NE(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, LocalCommitWithoutGlobalDecisionIsAViolation) {
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.Prepare(t1, HistoryBuilder::kA);
  h.LocalCommit(t1, HistoryBuilder::kA);
  EXPECT_NE(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, RollbackAfterCommitDecisionIsAViolation) {
  // The split the coordinator decision log exists to prevent: C_k was
  // recorded, one site committed, the other was told presumed abort.
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.Write(t1, h.Item(HistoryBuilder::kB, 1));
  h.Prepare(t1, HistoryBuilder::kA);
  h.Prepare(t1, HistoryBuilder::kB);
  h.GlobalCommit(t1.txn);
  h.LocalCommit(t1, HistoryBuilder::kA);
  h.LocalAbort(t1, HistoryBuilder::kB, /*unilateral=*/false);
  EXPECT_NE(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, UnilateralAbortAfterCommitIsNotAViolation) {
  // A unilateral abort after C_k is the paper's resubmission case — a
  // liveness obligation (the agent must re-run the subtransaction), not an
  // atomicity violation. The resubmission then closes it with a commit.
  HistoryBuilder h;
  const SubTxnId t10 = Sub(1, 0), t11 = Sub(1, 1);
  h.Write(t10, h.Item(HistoryBuilder::kA, 0));
  h.Prepare(t10, HistoryBuilder::kA);
  h.GlobalCommit(t10.txn);
  h.LocalAbort(t10, HistoryBuilder::kA);  // unilateral
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");

  h.Write(t11, h.Item(HistoryBuilder::kA, 0));
  h.LocalCommit(t11, HistoryBuilder::kA);
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, PendingSubtransactionsAreTolerated) {
  // A run truncated mid-protocol (or mid-resubmission) leaves sites
  // pending; that is a liveness question, not an atomicity one.
  HistoryBuilder h;
  const SubTxnId t1 = Sub(1);
  h.Write(t1, h.Item(HistoryBuilder::kA, 0));
  h.Prepare(t1, HistoryBuilder::kA);
  h.GlobalCommit(t1.txn);
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

TEST(GlobalAtomicity, LocalTransactionsAreIgnored) {
  HistoryBuilder h;
  const SubTxnId l = Local(HistoryBuilder::kA, 1);
  h.Write(l, h.Item(HistoryBuilder::kA, 0));
  h.LocalCommit(l, HistoryBuilder::kA);
  EXPECT_EQ(CheckGlobalAtomicity(h.ops()), "");
}

// --- differential: reduced graphs against the all-pairs closure --------------

// The paper's CG(H) arcs, all pairs per site: the closure the stored
// per-site chain must reach.
TxnGraph ClosureCommitOrderGraph(const std::vector<Op>& ops) {
  TxnGraph g;
  std::set<TxnId> migrated;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kMigrateOut) migrated.insert(op.subtxn.txn);
  }
  std::map<SiteId, std::vector<TxnId>> commits;
  for (const Op& op : ops) {
    if (op.kind != OpKind::kLocalCommit) continue;
    if (migrated.count(op.subtxn.txn) != 0) continue;
    commits[op.site].push_back(op.subtxn.txn);
    g.AddNode(op.subtxn.txn);
  }
  for (const auto& [site, seq] : commits) {
    for (size_t i = 0; i < seq.size(); ++i) {
      for (size_t j = i + 1; j < seq.size(); ++j) g.AddEdge(seq[i], seq[j]);
    }
  }
  return g;
}

// The classical SG(H) arcs, all conflicting pairs per item.
TxnGraph ClosureSerializationGraph(const std::vector<Op>& ops) {
  TxnGraph g;
  std::map<ItemId, std::vector<const Op*>> per_item;
  for (const Op& op : ops) {
    if (IsDataKind(op.kind)) per_item[op.item].push_back(&op);
    g.AddNode(op.subtxn.txn);
  }
  for (const auto& [item, item_ops] : per_item) {
    for (size_t i = 0; i < item_ops.size(); ++i) {
      for (size_t j = i + 1; j < item_ops.size(); ++j) {
        const Op& a = *item_ops[i];
        const Op& b = *item_ops[j];
        if (a.subtxn.txn == b.subtxn.txn) continue;
        if (IsWriteKind(a.kind) || IsWriteKind(b.kind)) {
          g.AddEdge(a.subtxn.txn, b.subtxn.txn);
        }
      }
    }
  }
  return g;
}

// Replay by scanning every item stack at each local abort: the reference
// the indexed replay must reproduce.
void ReferenceReplay(const std::vector<Op>& ops,
                     std::map<uint64_t, db::VersionTag>* reads_from,
                     std::map<ItemId, db::VersionTag>* finals) {
  std::map<ItemId, std::vector<std::pair<SubTxnId, db::VersionTag>>> stacks;
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kRead: {
        const auto it = stacks.find(op.item);
        (*reads_from)[op.seq] = it == stacks.end() || it->second.empty()
                                    ? db::VersionTag{}
                                    : it->second.back().second;
        break;
      }
      case OpKind::kWrite:
      case OpKind::kDelete:
        stacks[op.item].emplace_back(op.subtxn, op.version);
        break;
      case OpKind::kLocalAbort:
        for (auto& [item, stack] : stacks) {
          if (item.site != op.site) continue;
          std::erase_if(stack,
                        [&](const auto& v) { return v.first == op.subtxn; });
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [item, stack] : stacks) {
    (*finals)[item] = stack.empty() ? db::VersionTag{} : stack.back().second;
  }
}

// A random history in the recorder's shape: global transactions over
// several sites and local ones, reads of the visible version, writes and
// deletes, unilateral aborts before and after prepare with resubmission,
// global aborts, shard handoffs (kMigrateOut), and transactions
// interleaved step by step so that local commit orders invert across
// sites.
std::vector<Op> RandomHistory(uint32_t seed, int num_txns) {
  std::mt19937 rng(seed);
  auto pick = [&](int n) { return static_cast<int>(rng() % n); };
  HistoryBuilder h;
  const int sites = 2 + pick(3);
  const int keys = 1 + pick(4);
  // The versions the LDBSs expose: per item, a stack of (owner, tag).
  std::map<ItemId, std::vector<std::pair<SubTxnId, db::VersionTag>>> visible;

  struct Txn {
    TxnId id;
    std::map<SiteId, int> resubmission;
    std::deque<std::function<void()>> steps;
  };
  std::vector<Txn> txns(num_txns);
  auto sub = [](Txn& t, SiteId s) {
    return SubTxnId{t.id, t.resubmission[s]};
  };
  auto data_ops = [&](Txn& t, SiteId s) {
    for (int n = 1 + pick(3); n > 0; --n) {
      t.steps.push_back([&, s] {
        const ItemId item = h.Item(s, pick(keys));
        auto& stack = visible[item];
        const int kind = pick(10);
        if (kind < 5) {
          h.Read(sub(t, s), item,
                 stack.empty() ? db::VersionTag{} : stack.back().second);
        } else {
          stack.emplace_back(sub(t, s),
                             h.Write(sub(t, s), item, /*is_delete=*/kind > 7));
        }
      });
    }
  };
  auto abort = [&](Txn& t, SiteId s, bool unilateral) {
    t.steps.push_back([&, s, unilateral] {
      const SubTxnId aborted = sub(t, s);
      h.LocalAbort(aborted, s, unilateral);
      for (auto& [item, stack] : visible) {
        if (item.site != s) continue;
        std::erase_if(stack,
                      [&](const auto& v) { return v.first == aborted; });
      }
      if (unilateral) ++t.resubmission[s];
    });
  };
  auto commit = [&](Txn& t, SiteId s) {
    t.steps.push_back([&, s] { h.LocalCommit(sub(t, s), s); });
  };

  for (int k = 0; k < num_txns; ++k) {
    Txn& t = txns[k];
    if (pick(3) == 0) {  // a local transaction
      const SiteId s = pick(sites);
      t.id = TxnId::MakeLocal(s, k);
      data_ops(t, s);
      if (pick(8) == 0) {
        abort(t, s, /*unilateral=*/false);
      } else {
        commit(t, s);
      }
      continue;
    }
    t.id = Sub(k).txn;
    std::vector<SiteId> at;
    for (SiteId s = 0; s < sites; ++s) {
      if (pick(2) == 0) at.push_back(s);
    }
    if (at.empty()) at.push_back(pick(sites));
    for (SiteId s : at) {
      data_ops(t, s);
      if (pick(6) == 0) {  // unilateral abort before prepare, resubmitted
        abort(t, s, /*unilateral=*/true);
        data_ops(t, s);
      }
    }
    for (SiteId s : at) {
      t.steps.push_back([&, s] { h.Prepare(sub(t, s), s); });
    }
    if (pick(8) == 0) {
      t.steps.push_back([&] { h.GlobalAbort(t.id); });
      for (SiteId s : at) abort(t, s, /*unilateral=*/false);
      continue;
    }
    t.steps.push_back([&] { h.GlobalCommit(t.id); });
    for (SiteId s : at) {
      if (pick(5) == 0) {  // prepared subtransaction aborted, resubmitted
        abort(t, s, /*unilateral=*/true);
        data_ops(t, s);
      }
      if (pick(10) == 0) {  // the residue moves to another site's shard
        const SiteId adopter = (s + 1) % sites;
        t.steps.push_back([&, s, adopter] {
          h.MigrateOut(sub(t, s), s);
          h.LocalCommit(sub(t, s), adopter);
        });
      } else {
        commit(t, s);
      }
    }
  }
  // Run one step of a random unfinished transaction at a time.
  for (;;) {
    std::vector<Txn*> live;
    for (Txn& t : txns) {
      if (!t.steps.empty()) live.push_back(&t);
    }
    if (live.empty()) break;
    Txn& t = *live[pick(static_cast<int>(live.size()))];
    const std::function<void()> step = std::move(t.steps.front());
    t.steps.pop_front();
    step();
  }
  return h.ops();
}

void ExpectSameGraphVerdicts(const TxnGraph& reduced, const TxnGraph& closure) {
  EXPECT_EQ(reduced.node_count(), closure.node_count());
  EXPECT_EQ(reduced.HasCycle(), closure.HasCycle());
  EXPECT_EQ(reduced.TopologicalOrder(), closure.TopologicalOrder());
}

TEST(Differential, ReducedGraphsAgreeWithTheClosureOnRandomHistories) {
  int cyclic_cg = 0, serializable = 0, not_serializable = 0;
  for (uint32_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    // Small histories reach the exhaustive search; larger ones stop at the
    // CG and SG certificates.
    const int num_txns = seed % 3 == 0 ? 24 : 3 + static_cast<int>(seed % 4);
    const std::vector<Op> ops = RandomHistory(seed, num_txns);
    const std::vector<Op> committed = CommittedProjection(ops);
    for (const std::vector<Op>* h : {&ops, &committed}) {
      ExpectSameGraphVerdicts(BuildCommitOrderGraph(*h),
                              ClosureCommitOrderGraph(*h));
      ExpectSameGraphVerdicts(BuildSerializationGraph(*h),
                              ClosureSerializationGraph(*h));
    }
    if (BuildCommitOrderGraph(committed).HasCycle()) ++cyclic_cg;

    const ViewCheckResult reduced =
        CheckViewSerializability(committed, /*max_txns=*/6);
    const ViewCheckResult closure = CheckViewSerializability(
        committed, ClosureCommitOrderGraph(committed), /*max_txns=*/6);
    EXPECT_EQ(reduced.verdict, closure.verdict);
    EXPECT_EQ(reduced.witness, closure.witness);
    EXPECT_EQ(reduced.reason, closure.reason);
    EXPECT_EQ(reduced.orders_tried, closure.orders_tried);
    if (reduced.verdict == Verdict::kSerializable) ++serializable;
    if (reduced.verdict == Verdict::kNotSerializable) ++not_serializable;

    for (const std::vector<Op>* h : {&ops, &committed}) {
      std::map<uint64_t, db::VersionTag> reads_from;
      std::map<ItemId, db::VersionTag> finals;
      ReferenceReplay(*h, &reads_from, &finals);
      const ReplayOutcome out = Replay(*h);
      for (const auto& [seq, tag] : reads_from) {
        EXPECT_EQ(out.reads_from.at(seq), tag) << "read op#" << seq;
      }
      for (size_t i = 0; i < out.items.size(); ++i) {
        const auto it = finals.find(out.items[i]);
        EXPECT_EQ(out.final_versions[i],
                  it == finals.end() ? db::VersionTag{} : it->second);
      }
    }
    // The generator records what the replay of H sees.
    EXPECT_EQ(VerifyReplayMatchesRecorded(ops), "");
  }
  // The generator reaches both sides of every verdict.
  EXPECT_GT(cyclic_cg, 0);
  EXPECT_GT(serializable, 0);
  EXPECT_GT(not_serializable, 0);
}


// --- differential: the flat oracles against the map-based references --------

// The projection and the two protocol oracles as they were written over
// ordered maps keyed by TxnId: the references the flat versions must match
// byte for byte. An ordered map's walk reports the smallest violating id
// first, and a violating transaction's sites in ascending order.
struct RefFate {
  bool global = false;
  bool committed = false;
  bool complete = false;
  std::set<SiteId> sites, committed_sites, migrated_sites;
};

std::vector<Op> RefCommittedProjection(const std::vector<Op>& h) {
  std::map<TxnId, RefFate> fates;
  for (const Op& op : h) {
    RefFate& f = fates[op.subtxn.txn];
    f.global = op.subtxn.txn.global();
    switch (op.kind) {
      case OpKind::kRead:
      case OpKind::kWrite:
      case OpKind::kDelete:
      case OpKind::kPrepare:
        f.sites.insert(op.site);
        break;
      case OpKind::kLocalCommit:
        f.committed_sites.insert(op.site);
        if (!f.global) f.committed = true;
        break;
      case OpKind::kLocalAbort:
        break;
      case OpKind::kGlobalCommit:
        f.committed = true;
        break;
      case OpKind::kGlobalAbort:
        f.committed = false;
        break;
      case OpKind::kMigrateOut:
        f.migrated_sites.insert(op.site);
        break;
    }
  }
  for (auto& [id, f] : fates) {
    f.complete = f.committed &&
                 (!f.global ||
                  std::all_of(f.sites.begin(), f.sites.end(), [&](SiteId s) {
                    return f.committed_sites.count(s) != 0 ||
                           f.migrated_sites.count(s) != 0;
                  }));
  }
  std::vector<Op> out;
  for (const Op& op : h) {
    const RefFate& f = fates.at(op.subtxn.txn);
    if (f.global ? f.committed && f.complete : f.committed) out.push_back(op);
  }
  return out;
}

std::string RefCheckOrderInvariant(const std::vector<Op>& h) {
  struct Marks {
    int64_t last_prepare = -1;
    int64_t global_commit = -1;
    int64_t first_local_commit = -1;
    std::set<SiteId> write_sites;
  };
  std::map<TxnId, Marks> marks;
  for (const Op& op : h) {
    if (!op.subtxn.txn.global()) continue;
    Marks& m = marks[op.subtxn.txn];
    const int64_t at = static_cast<int64_t>(op.seq);
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete:
        m.write_sites.insert(op.site);
        break;
      case OpKind::kPrepare:
        if (at > m.last_prepare) m.last_prepare = at;
        break;
      case OpKind::kGlobalCommit:
        m.global_commit = at;
        break;
      case OpKind::kLocalCommit:
        if (m.first_local_commit < 0 && m.write_sites.count(op.site) != 0) {
          m.first_local_commit = at;
        }
        break;
      default:
        break;
    }
  }
  for (const auto& [txn, m] : marks) {
    if (m.global_commit < 0) continue;
    if (m.last_prepare >= 0 && m.last_prepare > m.global_commit) {
      return StrCat("invariant (1) violated for ", txn.ToString(),
                    ": a prepare (op#", m.last_prepare,
                    ") follows the global commit (op#", m.global_commit,
                    ")");
    }
    if (m.first_local_commit >= 0 &&
        m.first_local_commit < m.global_commit) {
      return StrCat("invariant (1) violated for ", txn.ToString(),
                    ": local commit (op#", m.first_local_commit,
                    ") precedes the global commit (op#", m.global_commit,
                    ")");
    }
  }
  return "";
}

std::string RefCheckGlobalAtomicity(const std::vector<Op>& h) {
  enum class Outcome { kPending, kCommitted, kAborted, kUnilateral, kMigrated };
  struct TxnState {
    bool global_commit = false;
    bool global_abort = false;
    std::map<SiteId, Outcome> sites;
    std::set<SiteId> write_sites;
  };
  std::map<TxnId, TxnState> txns;
  for (const Op& op : h) {
    if (!op.subtxn.txn.global()) continue;
    TxnState& t = txns[op.subtxn.txn];
    switch (op.kind) {
      case OpKind::kWrite:
      case OpKind::kDelete:
        t.write_sites.insert(op.site);
        [[fallthrough]];
      case OpKind::kRead:
      case OpKind::kPrepare:
        t.sites[op.site] = Outcome::kPending;
        break;
      case OpKind::kLocalCommit:
        t.sites[op.site] = Outcome::kCommitted;
        break;
      case OpKind::kLocalAbort:
        t.sites[op.site] =
            op.unilateral ? Outcome::kUnilateral : Outcome::kAborted;
        break;
      case OpKind::kGlobalCommit:
        t.global_commit = true;
        break;
      case OpKind::kGlobalAbort:
        t.global_abort = true;
        break;
      case OpKind::kMigrateOut:
        t.sites[op.site] = Outcome::kMigrated;
        break;
    }
  }
  for (const auto& [id, t] : txns) {
    if (t.global_commit && t.global_abort) {
      return StrCat("atomicity violated for ", id.ToString(),
                    ": both C_k and A_k recorded");
    }
    for (const auto& [site, outcome] : t.sites) {
      if (!t.global_commit && outcome == Outcome::kCommitted &&
          t.write_sites.count(site) != 0) {
        return StrCat("atomicity violated for ", id.ToString(), ": site ",
                      site,
                      " committed locally without a global commit decision");
      }
      if (t.global_commit && outcome == Outcome::kAborted) {
        return StrCat("atomicity violated for ", id.ToString(), ": site ",
                      site, " rolled back after the commit decision C_k");
      }
    }
  }
  return "";
}

// Appends violations of invariant (1) and of atomicity to a few random
// global transactions of `ops`, each at several sites in descending site
// order, so that neither the first violating transaction seen nor a
// violator's first site seen is the one an ordered walk reports.
// `injected` receives the transactions given a violation.
std::vector<Op> InjectViolations(std::vector<Op> ops, uint32_t seed,
                                 std::set<TxnId>* injected) {
  std::mt19937 rng(seed);
  std::vector<TxnId> globals;
  std::map<TxnId, std::set<SiteId>> sites;
  for (const Op& op : ops) {
    if (!op.subtxn.txn.global()) continue;
    if (sites.count(op.subtxn.txn) == 0) globals.push_back(op.subtxn.txn);
    if (IsDataKind(op.kind)) sites[op.subtxn.txn].insert(op.site);
  }
  if (globals.empty()) return ops;
  auto append = [&](OpKind kind, const TxnId& txn, SiteId site,
                    bool unilateral = false) {
    Op op;
    op.kind = kind;
    op.subtxn = SubTxnId{txn, 0};
    op.site = site;
    op.unilateral = unilateral;
    op.seq = ops.size();
    ops.push_back(op);
  };
  for (int n = 1 + static_cast<int>(rng() % 3); n > 0; --n) {
    const TxnId txn = globals[rng() % globals.size()];
    injected->insert(txn);
    const std::set<SiteId>& at = sites[txn];
    switch (rng() % 5) {
      case 0:  // a prepare after C_k
        append(OpKind::kGlobalCommit, txn, 2);
        append(OpKind::kPrepare, txn, at.empty() ? 0 : *at.begin());
        break;
      case 1:  // C_k after the local commits
        append(OpKind::kGlobalCommit, txn, 2);
        break;
      case 2:  // both C_k and A_k
        append(OpKind::kGlobalCommit, txn, 2);
        append(OpKind::kGlobalAbort, txn, 2);
        break;
      case 3:  // requested rollbacks after C_k
        append(OpKind::kGlobalCommit, txn, 2);
        for (auto s = at.rbegin(); s != at.rend(); ++s) {
          append(OpKind::kLocalAbort, txn, *s, /*unilateral=*/false);
        }
        break;
      case 4:  // writes committed locally under a global abort
        append(OpKind::kGlobalAbort, txn, 2);
        for (auto s = at.rbegin(); s != at.rend(); ++s) {
          Op w;
          w.kind = OpKind::kWrite;
          w.subtxn = SubTxnId{txn, 0};
          w.site = *s;
          w.item = ItemId{*s, 0, 0};
          w.seq = ops.size();
          ops.push_back(w);
          append(OpKind::kLocalCommit, txn, *s);
        }
        break;
    }
  }
  return ops;
}

// True if `error` names the first transaction of `txns` to appear in `ops`.
bool NamesFirstSeen(const std::vector<Op>& ops, const std::set<TxnId>& txns,
                    const std::string& error) {
  for (const Op& op : ops) {
    if (txns.count(op.subtxn.txn) != 0) {
      return error.find(StrCat("for ", op.subtxn.txn.ToString(), ":")) !=
             std::string::npos;
    }
  }
  return false;
}

TEST(Differential, FlatOraclesMatchTheMapReferencesOnRandomHistories) {
  int order_violations = 0, atomicity_violations = 0, not_first_seen = 0;
  for (uint32_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(seed);
    const int num_txns = seed % 3 == 0 ? 24 : 3 + static_cast<int>(seed % 4);
    const std::vector<Op> clean = RandomHistory(seed, num_txns);
    std::set<TxnId> injected;
    const std::vector<Op> broken = InjectViolations(clean, seed, &injected);
    for (const std::vector<Op>* ops : {&clean, &broken}) {
      const std::vector<Op> committed = CommittedProjection(*ops);
      const std::vector<Op> reference = RefCommittedProjection(*ops);
      ASSERT_EQ(committed.size(), reference.size());
      for (size_t i = 0; i < committed.size(); ++i) {
        EXPECT_EQ(committed[i].seq, reference[i].seq);
      }
      EXPECT_EQ(CheckOrderInvariant(*ops), RefCheckOrderInvariant(*ops));
      EXPECT_EQ(CheckGlobalAtomicity(*ops), RefCheckGlobalAtomicity(*ops));
    }
    // The generator's histories are well formed; the injected ones are not.
    EXPECT_EQ(CheckOrderInvariant(clean), "");
    EXPECT_EQ(CheckGlobalAtomicity(clean), "");
    for (const std::string& error :
         {CheckOrderInvariant(broken), CheckGlobalAtomicity(broken)}) {
      if (error.empty()) continue;
      (error.starts_with("invariant") ? order_violations
                                      : atomicity_violations)++;
      if (!NamesFirstSeen(broken, injected, error)) ++not_first_seen;
    }
  }
  EXPECT_GT(order_violations, 50);
  EXPECT_GT(atomicity_violations, 50);
  // Often the smallest violating id is not the first violator seen.
  EXPECT_GT(not_first_seen, 20);
}

TEST(DenseIndex, NumbersKeysInFirstSeenOrderAcrossRehashes) {
  std::mt19937 rng(7);
  DenseIndex<TxnId> txns;
  DenseIndex<ItemId, ItemIdHash> items;
  std::unordered_map<TxnId, uint32_t> txn_ref;
  std::unordered_map<ItemId, uint32_t, ItemIdHash> item_ref;
  for (int i = 0; i < 200000; ++i) {
    // Narrow ranges repeat keys; sequential seqs stress a weak hash.
    const TxnId txn = rng() % 2 == 0
                          ? TxnId::MakeGlobal(rng() % 16, rng() % 30000)
                          : TxnId::MakeLocal(rng() % 16, i);
    const uint32_t t = txns.Insert(txn);
    const uint32_t t_ref =
        txn_ref.try_emplace(txn, static_cast<uint32_t>(txn_ref.size()))
            .first->second;
    ASSERT_EQ(t, t_ref);
    const ItemId item{static_cast<SiteId>(rng() % 64),
                      static_cast<int32_t>(rng() % 3),
                      static_cast<int64_t>(rng() % 5000)};
    ASSERT_EQ(items.Insert(item),
              item_ref.try_emplace(item, static_cast<uint32_t>(item_ref.size()))
                  .first->second);
  }
  ASSERT_EQ(txns.size(), txn_ref.size());
  ASSERT_EQ(items.size(), item_ref.size());
  for (const auto& [txn, t] : txn_ref) {
    EXPECT_EQ(txns.Find(txn), t);
    EXPECT_EQ(txns[t], txn);
  }
  for (const auto& [item, i] : item_ref) EXPECT_EQ(items.keys()[i], item);
  EXPECT_FALSE(txns.Contains(TxnId::MakeGlobal(99, 0)));
  EXPECT_EQ(items.Find(ItemId{99, 0, 0}), items.kAbsent);
  EXPECT_FALSE(DenseIndex<TxnId>().Contains(TxnId{}));
}

static_assert(sizeof(TxnId) == 16);
static_assert(sizeof(Op) == 96);

TEST(TxnIdOrder, MatchesKindThenSeqThenSite) {
  std::mt19937 rng(11);
  auto random_id = [&] {
    TxnId id;
    id.kind = static_cast<TxnId::Kind>(rng() % 3);
    id.seq = static_cast<int64_t>(rng() % 7) - 1;
    id.site = static_cast<SiteId>(rng() % 5) - 1;
    return id;
  };
  for (int i = 0; i < 20000; ++i) {
    const TxnId a = random_id(), b = random_id();
    EXPECT_EQ(a <=> b, std::tie(a.kind, a.seq, a.site) <=>
                           std::tie(b.kind, b.seq, b.site));
    EXPECT_EQ(a == b, std::tie(a.kind, a.seq, a.site) ==
                          std::tie(b.kind, b.seq, b.site));
  }
}

}  // namespace
}  // namespace hermes::history
