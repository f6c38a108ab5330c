// Focused tests of the view-serializability oracle beyond the paper
// histories: blind-write cases that are view- but not conflict-
// serializable, the tri-state verdict, witness validity, and final-write
// handling.

#include "history/view_checker.h"

#include <gtest/gtest.h>

#include "history/graphs.h"

namespace hermes::history {
namespace {

struct Builder {
  std::vector<Op> ops;
  std::map<SubTxnId, uint64_t> seqs;

  SubTxnId L(int64_t n) { return SubTxnId{TxnId::MakeLocal(0, n), 0}; }
  ItemId Item(int64_t key) { return ItemId{0, 0, key}; }

  db::VersionTag W(const SubTxnId& t, int64_t key) {
    db::VersionTag tag{t, ++seqs[t]};
    Op op;
    op.kind = OpKind::kWrite;
    op.subtxn = t;
    op.site = 0;
    op.item = Item(key);
    op.version = tag;
    op.seq = ops.size();
    ops.push_back(op);
    return tag;
  }
  void R(const SubTxnId& t, int64_t key, const db::VersionTag& from) {
    Op op;
    op.kind = OpKind::kRead;
    op.subtxn = t;
    op.site = 0;
    op.item = Item(key);
    op.version = from;
    op.seq = ops.size();
    ops.push_back(op);
  }
  void C(const SubTxnId& t) {
    Op op;
    op.kind = OpKind::kLocalCommit;
    op.subtxn = t;
    op.site = 0;
    op.seq = ops.size();
    ops.push_back(op);
  }
};

TEST(ViewChecker, BlindWritesViewButNotConflictSerializable) {
  // The classical example: w1(x) w2(x) w2(y) w1(y) w3(x) w3(y).
  // SG has a T1<->T2 cycle, but T3 overwrites everything, so the history is
  // view equivalent to T1 T2 T3 (and T2 T1 T3).
  Builder b;
  const SubTxnId t1 = b.L(1), t2 = b.L(2), t3 = b.L(3);
  b.W(t1, 0);
  b.W(t2, 0);
  b.W(t2, 1);
  b.W(t1, 1);
  // Commit T3 *first* in commit order so the CG-topological shortcut fails
  // and the permutation search must find the witness.
  b.C(t3);  // (commit order: T3, T1, T2)
  b.W(t3, 0);
  b.W(t3, 1);
  b.C(t1);
  b.C(t2);

  EXPECT_TRUE(BuildSerializationGraph(b.ops).HasCycle());
  const auto check = CheckViewSerializability(b.ops);
  EXPECT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
  // The witness must place T3 last.
  ASSERT_EQ(check.witness.size(), 3u);
  EXPECT_EQ(check.witness.back(), t3.txn);
}

TEST(ViewChecker, LostUpdateIsRejected) {
  // r1(x) r2(x) w1(x) w2(x): both read the initial value, T2 overwrites
  // T1's update — classic lost update, not serializable in any order.
  Builder b;
  const SubTxnId t1 = b.L(1), t2 = b.L(2);
  const db::VersionTag initial{};
  b.R(t1, 0, initial);
  b.R(t2, 0, initial);
  b.W(t1, 0);
  b.W(t2, 0);
  b.C(t1);
  b.C(t2);
  const auto check = CheckViewSerializability(b.ops);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable);
}

TEST(ViewChecker, TooManyTransactionsYieldsUnknown) {
  // Pairwise lost updates on distinct items make every fast certificate
  // fail; above the permutation limit the verdict must be kUnknown rather
  // than wrong.
  Builder b;
  const db::VersionTag initial{};
  for (int64_t i = 0; i < 12; i += 2) {
    const SubTxnId a = b.L(i), c = b.L(i + 1);
    b.R(a, i, initial);
    b.R(c, i, initial);
    b.W(a, i);
    b.W(c, i);
    b.C(a);
    b.C(c);
  }
  const auto check = CheckViewSerializability(b.ops, /*max_txns=*/4);
  EXPECT_EQ(check.verdict, Verdict::kUnknown);
  // The reason carries the first candidate order's mismatch.
  EXPECT_TRUE(check.reason.starts_with(
      "too many transactions (12) for exhaustive search; e.g. read op#"))
      << check.reason;
}

// T1 reads item 0, T2 overwrites it, and T1 reads it again; `fillers`
// more transactions write items of their own. With `own_write`, T1 also
// writes item 0 between its two reads.
std::vector<Op> TwoReadsOfOneItem(bool own_write, int fillers) {
  Builder b;
  const SubTxnId t1 = b.L(1), t2 = b.L(2);
  b.R(t1, 0, db::VersionTag{});
  if (own_write) b.W(t1, 0);
  const db::VersionTag overwrite = b.W(t2, 0);
  b.C(t2);
  b.R(t1, 0, overwrite);
  b.C(t1);
  for (int i = 0; i < fillers; ++i) {
    const SubTxnId f = b.L(10 + i);
    b.W(f, 10 + i);
    b.C(f);
  }
  return b.ops;
}

TEST(ViewChecker, TwoViewsOfOneItemRefuteALargeHistory) {
  // Ten transactions: past the permutation limit, yet refuted, because no
  // serial order lets T1 read item 0 from two versions.
  const auto check =
      CheckViewSerializability(TwoReadsOfOneItem(false, 8), /*max_txns=*/8);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable);
  EXPECT_EQ(check.reason,
            "R_L1@0.0[s0.t0.k0 from T0] (op#0) and R_L1@0.0[s0.t0.k0 from "
            "L2@0.0#1] (op#3) read two versions of one item before their "
            "transaction writes it: no serial order gives it both views");
  // A small history still goes through the exhaustive search.
  const auto small = CheckViewSerializability(TwoReadsOfOneItem(false, 0));
  EXPECT_EQ(small.verdict, Verdict::kNotSerializable);
  EXPECT_TRUE(small.reason.starts_with("no serial order of 2 transactions"))
      << small.reason;
}

TEST(ViewChecker, TwoViewsAfterAnOwnWriteAreNotACertificate) {
  // After T1 writes item 0 itself, its later read may legitimately see
  // another version than its first: the certificate does not apply.
  const auto check =
      CheckViewSerializability(TwoReadsOfOneItem(true, 8), /*max_txns=*/8);
  EXPECT_EQ(check.verdict, Verdict::kUnknown);
  EXPECT_TRUE(check.reason.starts_with("too many transactions (10)"))
      << check.reason;
}

TEST(ViewChecker, EmptyHistoryIsSerializable) {
  const auto check = CheckViewSerializability({});
  EXPECT_EQ(check.verdict, Verdict::kSerializable);
}

TEST(ViewChecker, FinalWriteMismatchIsDetected) {
  // w1(x) w2(x): final value from T2. Any serial order placing T1 last
  // changes the final write; the checker must pick T1 before T2.
  Builder b;
  const SubTxnId t1 = b.L(1), t2 = b.L(2);
  b.W(t1, 0);
  b.W(t2, 0);
  b.C(t2);
  b.C(t1);  // commit order reversed relative to the writes
  const auto check = CheckViewSerializability(b.ops);
  ASSERT_EQ(check.verdict, Verdict::kSerializable) << check.reason;
  ASSERT_EQ(check.witness.size(), 2u);
  EXPECT_EQ(check.witness.back(), t2.txn);
}

TEST(ViewChecker, ReadFromExcludedTransactionFailsFast) {
  // A read observing a version whose writer is not in C(H): dirty read.
  Builder b;
  const SubTxnId reader = b.L(1);
  const SubTxnId ghost = b.L(99);  // never appears in the projection
  b.R(reader, 0, db::VersionTag{ghost, 1});
  b.C(reader);
  const auto check = CheckViewSerializability(b.ops);
  EXPECT_EQ(check.verdict, Verdict::kNotSerializable);
  EXPECT_NE(check.reason.find("outside C(H)"), std::string::npos);
}

TEST(ViewChecker, WitnessOrderReplaysEquivalently) {
  // Chain: T1 writes x, T2 reads x writes y, T3 reads y. The only witness
  // is T1 T2 T3.
  Builder b;
  const SubTxnId t1 = b.L(1), t2 = b.L(2), t3 = b.L(3);
  const auto w1 = b.W(t1, 0);
  b.C(t1);
  b.R(t2, 0, w1);
  const auto w2 = b.W(t2, 1);
  b.C(t2);
  b.R(t3, 1, w2);
  b.C(t3);
  const auto check = CheckViewSerializability(b.ops);
  ASSERT_EQ(check.verdict, Verdict::kSerializable);
  EXPECT_EQ(check.witness,
            (std::vector<TxnId>{t1.txn, t2.txn, t3.txn}));
}

}  // namespace
}  // namespace hermes::history
