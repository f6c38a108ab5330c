// End-to-end tests of epoch-fenced online reconfiguration: live site
// add/remove/replace against a running Mdbs, with the history oracles
// judging every run and the handoff invariants (no transaction lost or
// duplicated, zero stale-epoch commits) asserted directly.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/sweeps.h"
#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"
#include "shard/reconfig.h"
#include "trace/trace.h"

namespace hermes {
namespace {

using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;
using shard::ReconfigKind;
using shard::ReconfigOp;

constexpr int64_t kKeys = 16;

class ReconfigTest : public ::testing::Test {
 protected:
  void Build(int sites, int num_shards, int max_sites,
             consensus::ProtocolKind protocol = consensus::ProtocolKind::k2PC,
             cert::CertifierKind certifier = cert::CertifierKind::kSn) {
    MdbsConfig config;
    config.num_sites = sites;
    config.num_shards = num_shards;
    config.max_sites = max_sites;
    config.protocol = protocol;
    config.agent.certifier = certifier;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (int64_t k = 0; k < kKeys; ++k) {
      const SiteId owner = mdbs_->directory()->Current().OwnerOfKey(k);
      ASSERT_TRUE(mdbs_->LoadRow(owner, table_, k,
                                 db::Row{{"val", db::Value(int64_t{0})}})
                      .ok());
    }
    loop_.set_max_events(20'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  // Submits `n` two-key global transactions back to back (each next one
  // from the previous one's completion callback), re-reading the shard map
  // for routing every time. Key pairs cycle deterministically.
  void RunWorkload(int n) {
    submitted_ = completed_ = committed_ = 0;
    SubmitNext(n);
  }

  void SubmitNext(int remaining) {
    if (remaining == 0) return;
    const int64_t a = next_key_ % kKeys;
    const int64_t b = (next_key_ + 5) % kKeys;
    next_key_ += 3;
    const shard::ShardMap& map = mdbs_->directory()->Current();
    GlobalTxnSpec spec;
    spec.steps.push_back(
        {map.OwnerOfKey(a), db::MakeAddKey(table_, a, "val", int64_t{1})});
    spec.steps.push_back(
        {map.OwnerOfKey(b), db::MakeAddKey(table_, b, "val", int64_t{1})});
    ++submitted_;
    mdbs_->Submit(spec, [this, remaining](const GlobalTxnResult& r) {
      ++completed_;
      if (r.status.ok()) ++committed_;
      SubmitNext(remaining - 1);
    });
  }

  // Sum of "val" over all keys, read at each key's current owner.
  int64_t TotalValue() {
    int64_t sum = 0;
    for (int64_t k = 0; k < kKeys; ++k) {
      const SiteId owner = mdbs_->directory()->Current().OwnerOfKey(k);
      const db::RowEntry* e =
          mdbs_->storage(owner)->GetTable(table_)->Get(k);
      EXPECT_NE(e, nullptr) << "key " << k << " missing at site " << owner;
      if (e == nullptr || !e->live()) continue;
      sum += std::get<int64_t>(*e->row->Get("val"));
    }
    return sum;
  }

  void CheckOracles() {
    const auto& ops = mdbs_->recorder().ops();
    EXPECT_EQ(history::CheckGlobalAtomicity(ops), "");
    const auto committed = history::CommittedProjection(ops);
    EXPECT_EQ(history::VerifyReplayMatchesRecorded(committed), "");
    EXPECT_TRUE(history::CommitGraphAcyclic(committed));
    const auto check = history::CheckViewSerializability(committed,
                                                         /*max_txns=*/8);
    EXPECT_NE(check.verdict, history::Verdict::kNotSerializable)
        << check.reason;
  }

  sim::EventLoop loop_;
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
  int64_t next_key_ = 0;
  int submitted_ = 0;
  int completed_ = 0;
  int committed_ = 0;
};

TEST_F(ReconfigTest, AddSiteUnderLoadKeepsEveryInvariant) {
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/3);
  std::optional<Status> reconfig_done;
  loop_.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    ASSERT_TRUE(mdbs_
                    ->StartReconfig(ReconfigOp{ReconfigKind::kAddSite,
                                               kInvalidSite},
                                    [&](Status s) { reconfig_done = s; })
                    .ok());
  });
  RunWorkload(40);
  loop_.Run();

  ASSERT_TRUE(reconfig_done.has_value());
  EXPECT_TRUE(reconfig_done->ok());
  EXPECT_EQ(completed_, 40);  // no transaction lost across the handoff
  EXPECT_EQ(mdbs_->num_sites(), 3);
  EXPECT_FALSE(mdbs_->directory()->Current().ShardsOf(2).empty());
  const auto m = mdbs_->metrics();
  EXPECT_EQ(m.reconfig_completed, 1);
  EXPECT_GT(m.reconfig_rows_moved, 0);
  EXPECT_EQ(m.commits_stale_epoch, 0);
  // Every commit applied exactly once: two increments per committed txn.
  EXPECT_EQ(TotalValue(), 2 * committed_);
  CheckOracles();
}

TEST_F(ReconfigTest, RemoveSiteMovesRowsRetiresAndKeepsRouting) {
  Build(/*sites=*/3, /*num_shards=*/9, /*max_sites=*/3);
  std::optional<Status> reconfig_done;
  loop_.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    ASSERT_TRUE(mdbs_
                    ->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 2},
                                    [&](Status s) { reconfig_done = s; })
                    .ok());
  });
  RunWorkload(40);
  loop_.Run();

  ASSERT_TRUE(reconfig_done.has_value() && reconfig_done->ok());
  EXPECT_EQ(completed_, 40);
  EXPECT_TRUE(mdbs_->SiteRemoved(2));
  EXPECT_TRUE(mdbs_->directory()->Current().ShardsOf(2).empty());
  // A retired site is rejected by the crash/recover API from now on.
  EXPECT_EQ(mdbs_->CrashSite(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mdbs_->RecoverSite(2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mdbs_->metrics().commits_stale_epoch, 0);
  EXPECT_EQ(TotalValue(), 2 * committed_);
  CheckOracles();

  // The survivors still serve the whole key space.
  RunWorkload(5);
  loop_.Run();
  EXPECT_EQ(completed_, 5);
  EXPECT_GT(committed_, 0);
}

TEST_F(ReconfigTest, ReplaceSiteHandsEverythingToTheSuccessor) {
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/3);
  const std::vector<int> before = mdbs_->directory()->Current().ShardsOf(1);
  std::optional<Status> reconfig_done;
  loop_.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    ASSERT_TRUE(
        mdbs_
            ->StartReconfig(ReconfigOp{ReconfigKind::kReplaceSite, 1},
                            [&](Status s) { reconfig_done = s; })
            .ok());
  });
  RunWorkload(40);
  loop_.Run();

  ASSERT_TRUE(reconfig_done.has_value() && reconfig_done->ok());
  EXPECT_EQ(completed_, 40);
  EXPECT_TRUE(mdbs_->SiteRemoved(1));
  EXPECT_EQ(mdbs_->directory()->Current().ShardsOf(2), before);
  EXPECT_EQ(mdbs_->metrics().commits_stale_epoch, 0);
  EXPECT_EQ(TotalValue(), 2 * committed_);
  CheckOracles();
}

TEST_F(ReconfigTest, AddSiteUnderPaxosCommitKeepsAcceptorsProtected) {
  Build(/*sites=*/3, /*num_shards=*/9, /*max_sites=*/4,
        consensus::ProtocolKind::kPaxosCommit);
  // Acceptors 0..2f are protected for life (f=1 -> all three founding
  // sites); only an add can reshape this federation.
  EXPECT_EQ(mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 1})
                .code(),
            StatusCode::kInvalidArgument);
  std::optional<Status> reconfig_done;
  loop_.ScheduleAfter(10 * sim::kMillisecond, [&]() {
    ASSERT_TRUE(mdbs_
                    ->StartReconfig(ReconfigOp{ReconfigKind::kAddSite,
                                               kInvalidSite},
                                    [&](Status s) { reconfig_done = s; })
                    .ok());
  });
  RunWorkload(30);
  loop_.Run();

  ASSERT_TRUE(reconfig_done.has_value() && reconfig_done->ok());
  EXPECT_EQ(completed_, 30);
  EXPECT_EQ(mdbs_->num_sites(), 4);
  EXPECT_EQ(mdbs_->metrics().commits_stale_epoch, 0);
  EXPECT_EQ(TotalValue(), 2 * committed_);
  CheckOracles();
}

TEST_F(ReconfigTest, PreparedResidueMigratesAndCommitsExactlyOnce) {
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/3);
  // Freeze a subtransaction at site 1 in the prepared state by cutting the
  // 0<->1 link the moment it prepares, then replace site 1. The drain
  // cannot complete (the prepared residue blocks quiescence), so at the
  // deadline the transfer is forced and the residue migrates to the new
  // site, which answers the coordinator's retried protocol messages on
  // behalf of the retired one.
  bool cut = false;
  mdbs_->agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    if (cut) return;
    cut = true;
    mdbs_->network().Partition(0, 1, loop_.Now() + 400 * sim::kMillisecond);
    loop_.ScheduleAfter(1 * sim::kMillisecond, [&]() {
      ASSERT_TRUE(
          mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kReplaceSite, 1})
              .ok());
    });
  });

  int64_t key = -1;
  for (int64_t k = 0; k < kKeys; ++k) {
    if (mdbs_->directory()->Current().OwnerOfKey(k) == 1) {
      key = k;
      break;
    }
  }
  ASSERT_NE(key, -1);
  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, key % 2 == 0 ? key + 1
                                                              : key - 1,
                                          "val", int64_t{1})});
  spec.steps.push_back({1, db::MakeAddKey(table_, key, "val", int64_t{1})});
  // Route the first step at the actual owner of its key.
  spec.steps[0].site = mdbs_->directory()->Current().OwnerOfKey(
      key % 2 == 0 ? key + 1 : key - 1);
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/0);
  loop_.Run();

  ASSERT_TRUE(cut);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  const auto m = mdbs_->metrics();
  EXPECT_GE(m.reconfig_residue_adopted, 1);
  EXPECT_EQ(m.reconfig_completed, 1);
  EXPECT_EQ(m.commits_stale_epoch, 0);
  EXPECT_TRUE(mdbs_->SiteRemoved(1));
  // Applied exactly once, at the adopting site.
  EXPECT_EQ(TotalValue(), 2);
  CheckOracles();
}

TEST_F(ReconfigTest, ForcedHandoffWaitsWhileTheDestinationKnowsTheResidue) {
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/2);
  // One global transaction with a subtransaction at each site, coordinated
  // at site 0. Site 1 prepares and votes; then the 0<->1 link is cut, so
  // the COMMIT reaches site 0 (local delivery) but not site 1. Removing
  // site 1 hands its shards, and its prepared residue, to site 0 — the
  // site that has already committed its own subtransaction of the same
  // transaction. The forced handoff must wait for the decision to reach
  // site 1 instead of adopting the residue over the committed entry (which
  // would re-run site 0's own command a second time).
  const shard::ShardMap& map = mdbs_->directory()->Current();
  int64_t key0 = -1;
  int64_t key1 = -1;
  for (int64_t k = 0; k < kKeys; ++k) {
    if (map.OwnerOfKey(k) == 0 && key0 < 0) key0 = k;
    if (map.OwnerOfKey(k) == 1 && key1 < 0) key1 = k;
  }
  ASSERT_NE(key0, -1);
  ASSERT_NE(key1, -1);

  bool cut = false;
  std::optional<Status> reconfig_done;
  mdbs_->agent(1)->add_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    if (cut) return;
    cut = true;
    // The READY vote leaves in this instant; the decision, a network
    // latency later, finds the link cut.
    loop_.ScheduleAfter(sim::kMillisecond / 2, [&]() {
      mdbs_->network().Partition(0, 1, loop_.Now() + 400 * sim::kMillisecond);
    });
    loop_.ScheduleAfter(2 * sim::kMillisecond, [&]() {
      ASSERT_TRUE(mdbs_
                      ->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 1},
                                      [&](Status s) { reconfig_done = s; })
                      .ok());
    });
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, key0, "val", int64_t{1})});
  spec.steps.push_back({1, db::MakeAddKey(table_, key1, "val", int64_t{1})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/0);
  loop_.Run();

  ASSERT_TRUE(cut);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  ASSERT_TRUE(reconfig_done.has_value());
  EXPECT_TRUE(reconfig_done->ok());
  EXPECT_TRUE(mdbs_->SiteRemoved(1));
  const auto m = mdbs_->metrics();
  EXPECT_EQ(m.reconfig_residue_adopted, 0);
  EXPECT_EQ(m.commits_stale_epoch, 0);
  // Each of the two increments applied exactly once.
  EXPECT_EQ(TotalValue(), 2);
  CheckOracles();
}

// A residue whose COMMIT arrived but could not be performed yet migrates
// with the decision: the adopter re-enters it commit-pending (no inquiry)
// and commits it once its blocker is gone. A subtransaction that stays at
// the source, waiting behind the residue, commits as the residue leaves.
class CommitPendingResidueTest
    : public ReconfigTest,
      public ::testing::WithParamInterface<cert::CertifierKind> {};

TEST_P(CommitPendingResidueTest, AdopterCommitsWithTheCarriedDecision) {
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/2,
        consensus::ProtocolKind::k2PC, GetParam());
  // Two subtransactions at site 1, driven by hand from a phantom
  // coordinator at site 0 (its real coordinator does not know them and
  // answers inquiries with presumed abort). Both prepare, a < b in SN
  // order; only b gets COMMIT. Commit certification holds b back behind
  // the undecided a, so b is commit-pending when site 1 is removed, and
  // the forced handoff moves both to site 0. A third, c, has no commands,
  // so it touches no moving shard and stays; its COMMIT waits behind a
  // and b.
  const shard::ShardMap& map = mdbs_->directory()->Current();
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < kKeys && keys.size() < 2; ++k) {
    if (map.OwnerOfKey(k) == 1) keys.push_back(k);
  }
  ASSERT_EQ(keys.size(), 2u);
  const TxnId a = TxnId::MakeGlobal(0, 1000);
  const TxnId b = TxnId::MakeGlobal(0, 1001);
  const TxnId c = TxnId::MakeGlobal(0, 1002);
  const auto send = [&](const core::Message& msg) {
    mdbs_->network().Send(0, 1, msg);
  };
  for (int i = 0; i < 2; ++i) {
    const TxnId g = i == 0 ? a : b;
    send(core::Message{core::BeginMsg{g}});
    send(core::Message{core::DmlRequestMsg{
        g, 0, db::MakeAddKey(table_, keys[i], "val", int64_t{1})}});
  }
  send(core::Message{core::BeginMsg{c}});
  loop_.RunUntil(loop_.Now() + 10 * sim::kMillisecond);
  send(core::Message{core::PrepareMsg{a, core::SerialNumber{100, 0, 0}}});
  send(core::Message{core::PrepareMsg{b, core::SerialNumber{200, 0, 0}}});
  send(core::Message{core::PrepareMsg{c, core::SerialNumber{300, 0, 0}}});
  loop_.RunUntil(loop_.Now() + 5 * sim::kMillisecond);
  send(core::Message{core::DecisionMsg{b, /*commit=*/true, /*csn=*/1}});
  send(core::Message{core::DecisionMsg{c, /*commit=*/true, /*csn=*/2}});
  loop_.RunUntil(loop_.Now() + 5 * sim::kMillisecond);
  ASSERT_TRUE(mdbs_->agent(1)->log().PrepareRecordOf(b).has_value());
  ASSERT_FALSE(mdbs_->agent(1)->log().HasCommit(b));
  ASSERT_TRUE(mdbs_->agent(1)->log().PrepareRecordOf(c).has_value());
  ASSERT_FALSE(mdbs_->agent(1)->log().HasCommit(c));

  std::optional<Status> reconfig_done;
  ASSERT_TRUE(mdbs_
                  ->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 1},
                                  [&](Status s) { reconfig_done = s; })
                  .ok());
  loop_.RunUntil(loop_.Now() + 2 * sim::kSecond);

  ASSERT_TRUE(reconfig_done.has_value());
  EXPECT_TRUE(reconfig_done->ok()) << *reconfig_done;
  EXPECT_TRUE(mdbs_->SiteRemoved(1));
  const auto m = mdbs_->metrics();
  EXPECT_EQ(m.reconfig_residue_adopted, 2);
  EXPECT_EQ(m.commits_stale_epoch, 0);
  // b committed at the adopter with the carried decision, a was presumed
  // aborted there; each increment applied at most once.
  const core::AgentLog& adopter = mdbs_->agent(0)->log();
  EXPECT_TRUE(adopter.HasCommit(b));
  EXPECT_TRUE(adopter.HasComplete(b));
  EXPECT_TRUE(adopter.HasAbort(a));
  EXPECT_TRUE(adopter.InDoubt().empty());
  EXPECT_EQ(TotalValue(), 1);
  // c committed at the source in the instant the residue left it.
  sim::Time migrated_at = -1, c_at = -1;
  for (const auto& op : mdbs_->recorder().ops()) {
    if (op.kind == history::OpKind::kMigrateOut && op.subtxn.txn == a) {
      migrated_at = op.at;
    }
    if (op.kind == history::OpKind::kLocalCommit && op.subtxn.txn == c) {
      c_at = op.at;
    }
  }
  EXPECT_TRUE(mdbs_->agent(1)->log().HasComplete(c));
  EXPECT_GE(migrated_at, 0);
  EXPECT_EQ(c_at, migrated_at);
}

INSTANTIATE_TEST_SUITE_P(
    Certifiers, CommitPendingResidueTest,
    ::testing::Values(cert::CertifierKind::kSn, cert::CertifierKind::kCsn),
    [](const ::testing::TestParamInfo<cert::CertifierKind>& info) {
      return std::string(cert::CertifierKindName(info.param));
    });

TEST_F(ReconfigTest, HandoffStallsWhileTheSourceIsCrashed) {
  Build(/*sites=*/3, /*num_shards=*/9, /*max_sites=*/3);
  // Crash the removal target mid-drain: the controller must wait (a dead
  // site can neither be drained nor forced), then finish after recovery.
  ASSERT_TRUE(mdbs_->CrashSite(2, /*downtime=*/-1).ok());
  std::optional<Status> reconfig_done;
  ASSERT_TRUE(mdbs_
                  ->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 2},
                                  [&](Status s) { reconfig_done = s; })
                  .code() == StatusCode::kInvalidArgument)
      << "a down site cannot start a drain";
  ASSERT_TRUE(mdbs_->RecoverSite(2).ok());
  ASSERT_TRUE(mdbs_
                  ->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 2},
                                  [&](Status s) { reconfig_done = s; })
                  .ok());
  // Crash it again right after the fence: the poll loop must stall.
  ASSERT_TRUE(mdbs_->CrashSite(2, /*downtime=*/-1).ok());
  loop_.RunUntil(300 * sim::kMillisecond);
  EXPECT_FALSE(reconfig_done.has_value());
  EXPECT_TRUE(mdbs_->reconfiguring());
  ASSERT_TRUE(mdbs_->RecoverSite(2).ok());
  loop_.Run();
  ASSERT_TRUE(reconfig_done.has_value());
  EXPECT_TRUE(reconfig_done->ok());
  EXPECT_TRUE(mdbs_->SiteRemoved(2));
  EXPECT_EQ(mdbs_->metrics().commits_stale_epoch, 0);
}

TEST_F(ReconfigTest, StartReconfigValidatesItsTarget) {
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/2);
  // Capacity exhausted: no headroom for a provisioned site.
  EXPECT_EQ(
      mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kAddSite, kInvalidSite})
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kReplaceSite, 1}).code(),
      StatusCode::kInvalidArgument);
  // Unknown target.
  EXPECT_EQ(
      mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kRemoveSite, 7}).code(),
      StatusCode::kInvalidArgument);

  // Busy controller: a second reconfiguration is rejected outright.
  Build(/*sites=*/2, /*num_shards=*/8, /*max_sites=*/4);
  ASSERT_TRUE(
      mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kAddSite, kInvalidSite})
          .ok());
  EXPECT_EQ(
      mdbs_->StartReconfig(ReconfigOp{ReconfigKind::kAddSite, kInvalidSite})
          .code(),
      StatusCode::kRejected);
  loop_.Run();
  EXPECT_FALSE(mdbs_->reconfiguring());
}

TEST_F(ReconfigTest, UnshardedMdbsRejectsReconfiguration) {
  MdbsConfig config;
  config.num_sites = 2;  // num_shards stays 0: legacy mode
  Mdbs mdbs(config, &loop_);
  EXPECT_EQ(mdbs.directory(), nullptr);
  EXPECT_EQ(
      mdbs.StartReconfig(ReconfigOp{ReconfigKind::kAddSite, kInvalidSite})
          .code(),
      StatusCode::kInvalidArgument);
}

// E19's timeline (bench/sweep_reconfig.cpp) of a trace with three commits
// before the fence at 10 ms, `during` commits inside the handoff, which
// ends at `done`, and one commit 2 ms later.
bench::ReconfigTimeline Timeline(sim::Time done, int during) {
  sim::EventLoop loop;
  trace::Tracer tracer(&loop);
  const auto at = [&](sim::Time t, trace::EventKind kind) {
    loop.ScheduleAfter(t, [&tracer, kind] {
      trace::Event e;
      e.kind = kind;
      e.ok = true;
      tracer.Record(std::move(e));
    });
  };
  for (int i = 1; i <= 3; ++i) {
    at(i * 2 * sim::kMillisecond, trace::EventKind::kTxnEnd);
  }
  at(10 * sim::kMillisecond, trace::EventKind::kReconfigBegin);
  for (int i = 0; i < during; ++i) {
    at(10 * sim::kMillisecond + 1, trace::EventKind::kTxnEnd);
  }
  at(done, trace::EventKind::kReconfigDone);
  at(done + 2 * sim::kMillisecond, trace::EventKind::kTxnEnd);
  loop.Run();
  return bench::AnalyzeTimeline(tracer.ToBinary());
}

TEST(ReconfigTimeline, AWindowOfNoLengthLosesNoCommit) {
  const bench::ReconfigTimeline t = Timeline(10 * sim::kMillisecond, 0);
  ASSERT_TRUE(t.valid);
  EXPECT_EQ(t.window_ms, 0.0);
  EXPECT_EQ(t.dip_pct, 0.0);
  EXPECT_EQ(t.recovery_ms, 2.0);
}

TEST(ReconfigTimeline, ACommitlessWindowIsAFullDip) {
  const bench::ReconfigTimeline t = Timeline(15 * sim::kMillisecond, 0);
  ASSERT_TRUE(t.valid);
  EXPECT_EQ(t.window_ms, 5.0);
  EXPECT_EQ(t.dip_pct, 100.0);
  // Three commits in 10 ms before the fence and one in the 5 ms window:
  // a third of the rate is lost.
  const bench::ReconfigTimeline busy = Timeline(15 * sim::kMillisecond, 1);
  EXPECT_NEAR(busy.dip_pct, 100.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace hermes
