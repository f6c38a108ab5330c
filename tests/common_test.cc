// Unit tests for ids, status, string helpers, JSON strings and the seeded
// RNG.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/ids.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str.h"

namespace hermes {
namespace {

TEST(Ids, TxnIdOrderingAndKinds) {
  const TxnId g = TxnId::MakeGlobal(2, 7);
  const TxnId l = TxnId::MakeLocal(2, 7);
  EXPECT_TRUE(g.global());
  EXPECT_TRUE(l.local());
  EXPECT_NE(g, l);
  EXPECT_FALSE(TxnId{}.valid());
  EXPECT_EQ(g.ToString(), "G7@2");
  EXPECT_EQ(l.ToString(), "L7@2");
  const SubTxnId sub{g, 3};
  EXPECT_EQ(sub.ToString(), "G7@2.3");
}

TEST(Ids, ItemIdComparesLexicographically) {
  const ItemId a{0, 1, 5};
  const ItemId b{0, 1, 6};
  const ItemId c{1, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (ItemId{0, 1, 5}));
  std::hash<TxnId> h1;
  ItemIdHash h2;
  EXPECT_NE(h1(TxnId::MakeGlobal(0, 1)), h1(TxnId::MakeGlobal(0, 2)));
  EXPECT_NE(h2(a), h2(b));
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::Aborted("deadlock");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_EQ(s.ToString(), "ABORTED: deadlock");
  EXPECT_EQ(Status::Ok().ToString(), "OK");
}

TEST(Status, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> bad(Status::NotFound("x"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(Str, CatJoinAppend) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5, true), "a1b2.500000true");
  EXPECT_EQ(StrJoin(std::vector<int>{1, 2, 3}, ","), "1,2,3");
  std::string s = "x";
  StrAppend(s, "y", 7);
  EXPECT_EQ(s, "xy7");
}

TEST(Json, StringEscapesRoundTrip) {
  // Every character the writer escapes reads back as itself.
  const std::string text =
      std::string("q\" b\\ n\n t\t r\r bell") + static_cast<char>(7);
  std::string encoded;
  json::AppendString(encoded, text);
  EXPECT_EQ(encoded, R"("q\" b\\ n\n t\t r\r bell\u0007")");
  json::Reader in(encoded, "test");
  std::string decoded;
  ASSERT_TRUE(in.String(decoded));
  EXPECT_EQ(decoded, text);
  EXPECT_TRUE(in.End());

  // The reader also takes `\/` and ASCII `\u`, and nothing else.
  json::Reader other(R"("a\/b\u0041")", "test");
  ASSERT_TRUE(other.String(decoded));
  EXPECT_EQ(decoded, "a/bA");
  for (const char* bad : {R"("\q")", R"("\u00zz")", R"("\u00e9")", R"("\)",
                          R"("open)"}) {
    json::Reader r(bad, "test");
    EXPECT_FALSE(r.String(decoded)) << bad;
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
  bool differ = false;
  Rng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.Next() != c.Next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(99);
  int buckets[10] = {0};
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) ++buckets[rng.NextUint64(10)];
  for (int b : buckets) {
    EXPECT_NEAR(b, kSamples / 10, kSamples / 100);
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng rng(1);
  ZipfGenerator zipf(100, 0.0);
  int low = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(rng) < 50) ++low;
  }
  EXPECT_NEAR(low, kSamples / 2, kSamples / 20);
}

TEST(Zipf, SkewConcentratesOnSmallRanks) {
  Rng rng(1);
  ZipfGenerator zipf(1000, 0.99);
  int top10 = 0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(rng) < 10) ++top10;
  }
  // Under theta=0.99 the top-1% of ranks draw a large share of accesses.
  EXPECT_GT(top10, kSamples / 4);
}

TEST(Zipf, LargeDomainUsesApproximation) {
  Rng rng(5);
  ZipfGenerator zipf(1 << 20, 0.8);  // beyond the CDF table limit
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(zipf.Next(rng), static_cast<uint64_t>(1) << 20);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.Fork();
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (parent.Next() != child.Next()) differ = true;
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace hermes
