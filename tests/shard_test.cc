// Unit tests of the shard subsystem: the versioned ShardMap / Directory,
// the reconfiguration controller against a fake host, and the epoch
// fencing of agent-bound protocol messages (stale senders are refused and
// re-driven against the refreshed map).

#include "shard/shard_map.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/mdbs.h"
#include "shard/reconfig.h"
#include "sim/event_loop.h"

namespace hermes {
namespace {

using shard::Controller;
using shard::Directory;
using shard::HostOps;
using shard::ReconfigKind;
using shard::ReconfigOp;
using shard::ShardMap;

TEST(ShardMapTest, MakeInitialRoundRobinsOwnership) {
  const ShardMap map = ShardMap::MakeInitial(8, 3);
  EXPECT_EQ(map.epoch, 1);
  ASSERT_EQ(map.num_shards(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(map.shards[i].owner, i % 3);
    EXPECT_FALSE(map.shards[i].wedged);
  }
  EXPECT_EQ(map.ShardsOf(0), (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(map.ShardsOf(1), (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(map.ShardsOf(2), (std::vector<int>{2, 5}));
  EXPECT_EQ(map.Owners(), (std::vector<SiteId>{0, 1, 2}));
}

TEST(ShardMapTest, ShardOfHandlesNegativeKeys) {
  const ShardMap map = ShardMap::MakeInitial(4, 2);
  EXPECT_EQ(map.ShardOf(0), 0);
  EXPECT_EQ(map.ShardOf(7), 3);
  EXPECT_EQ(map.ShardOf(-1), 3);  // mathematical modulus, not truncation
  EXPECT_EQ(map.ShardOf(-4), 0);
  EXPECT_EQ(map.OwnerOfKey(-1), map.shards[3].owner);
}

TEST(ShardMapTest, WedgedKeyReflectsShardState) {
  ShardMap map = ShardMap::MakeInitial(4, 2);
  map.shards[1].wedged = true;
  EXPECT_TRUE(map.WedgedKey(1));
  EXPECT_TRUE(map.WedgedKey(5));
  EXPECT_FALSE(map.WedgedKey(0));
}

TEST(DirectoryTest, FetchIsCountedAndInstallAdvancesEpoch) {
  Directory dir(ShardMap::MakeInitial(4, 2));
  EXPECT_EQ(dir.epoch(), 1);
  EXPECT_EQ(dir.fetches(), 0);
  (void)dir.Fetch();
  (void)dir.Fetch();
  EXPECT_EQ(dir.fetches(), 2);

  ShardMap next = dir.Current();
  next.epoch += 1;
  next.shards[0].owner = 1;
  dir.Install(std::move(next));
  EXPECT_EQ(dir.epoch(), 2);
  EXPECT_EQ(dir.Current().shards[0].owner, 1);
}

TEST(DirectoryTest, ForwardIsTransitive) {
  Directory dir(ShardMap::MakeInitial(4, 4));
  EXPECT_EQ(dir.Forward(2), 2);  // no entry: identity
  dir.SetForward(1, 2);
  EXPECT_EQ(dir.Forward(1), 2);
  // 2 was itself later replaced by 3: forwarding chains.
  dir.SetForward(2, 3);
  EXPECT_EQ(dir.Forward(1), 3);
  EXPECT_EQ(dir.Forward(2), 3);
}

// ---------------------------------------------------------------------------
// Controller state machine against a scripted fake host.

class FakeHost : public HostOps {
 public:
  explicit FakeHost(sim::EventLoop* loop) : loop_(loop) {}

  SiteId ProvisionSite() override {
    provisioned.push_back(next_site);
    return next_site++;
  }
  bool SiteUsable(SiteId site) override {
    for (SiteId s : unusable) {
      if (s == site) return false;
    }
    return true;
  }
  bool QuiescentForShards(SiteId site, const std::vector<int>& shards,
                          bool and_coordinator) override {
    (void)shards;
    (void)and_coordinator;
    for (SiteId s : busy_sites) {
      if (s == site) return false;
    }
    return true;
  }
  bool CanForceTransfer(SiteId, SiteId, const std::vector<int>&,
                        bool) override {
    return can_force;
  }
  int64_t TransferShards(SiteId from, SiteId to,
                         const std::vector<int>& shards) override {
    transfers.push_back({from, to, shards});
    return static_cast<int64_t>(shards.size());
  }
  void DeactivateSite(SiteId site) override { deactivated.push_back(site); }
  void Schedule(sim::Time delay, std::function<void()> fn) override {
    loop_->ScheduleAfter(delay, std::move(fn));
  }

  struct Transfer {
    SiteId from;
    SiteId to;
    std::vector<int> shards;
  };

  sim::EventLoop* loop_;
  SiteId next_site = 3;
  std::vector<SiteId> provisioned;
  std::vector<SiteId> unusable;    // SiteUsable() == false for these
  std::vector<SiteId> busy_sites;  // never quiescent
  bool can_force = false;
  std::vector<Transfer> transfers;
  std::vector<SiteId> deactivated;
};

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : dir_(ShardMap::MakeInitial(9, 3)),
        host_(&loop_),
        controller_(/*protected_sites=*/{}, &dir_, &host_, &metrics_,
                    /*tracer=*/nullptr) {}

  sim::EventLoop loop_;
  Directory dir_;
  FakeHost host_;
  core::Metrics metrics_;
  Controller controller_;
};

TEST_F(ControllerTest, AddSiteStealsQuotaAndInstallsPerMoveEpochs) {
  std::optional<Status> done;
  ASSERT_TRUE(controller_
                  .Start(ReconfigOp{ReconfigKind::kAddSite, kInvalidSite},
                         [&](Status s) { done = s; })
                  .ok());
  EXPECT_TRUE(controller_.busy());
  EXPECT_EQ(dir_.epoch(), 2);  // fence installed synchronously
  loop_.Run();

  ASSERT_TRUE(done.has_value());
  EXPECT_TRUE(done->ok());
  EXPECT_FALSE(controller_.busy());
  // quota = 9 / (3 + 1) = 2 shards stolen; one commit epoch per move after
  // the fence.
  int moved = 0;
  for (const auto& t : host_.transfers) {
    EXPECT_EQ(t.to, 3);
    moved += static_cast<int>(t.shards.size());
  }
  EXPECT_EQ(moved, 2);
  EXPECT_EQ(dir_.epoch(), 2 + static_cast<int64_t>(host_.transfers.size()));
  EXPECT_EQ(dir_.Current().ShardsOf(3).size(), 2u);
  for (const auto& e : dir_.Current().shards) EXPECT_FALSE(e.wedged);
  EXPECT_TRUE(host_.deactivated.empty());
  EXPECT_EQ(metrics_.reconfig_started, 1);
  EXPECT_EQ(metrics_.reconfig_completed, 1);
  EXPECT_EQ(metrics_.reconfig_rows_moved, 2);
}

TEST_F(ControllerTest, RemoveSiteMovesAllShardsToSmallestOwnerAndRetires) {
  std::optional<Status> done;
  ASSERT_TRUE(controller_
                  .Start(ReconfigOp{ReconfigKind::kRemoveSite, 1},
                         [&](Status s) { done = s; })
                  .ok());
  loop_.Run();

  ASSERT_TRUE(done.has_value() && done->ok());
  ASSERT_EQ(host_.transfers.size(), 1u);
  EXPECT_EQ(host_.transfers[0].from, 1);
  // Site 2 owns 3 shards like site 0; the tie breaks to the lowest id —
  // but 0 and 2 both hold 3 of 9, so site 0 wins.
  EXPECT_EQ(host_.transfers[0].to, 0);
  EXPECT_EQ(host_.transfers[0].shards, (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(host_.deactivated, (std::vector<SiteId>{1}));
  EXPECT_TRUE(dir_.Current().ShardsOf(1).empty());
  EXPECT_EQ(dir_.Forward(1), 0);
  EXPECT_TRUE(host_.provisioned.empty());
}

TEST_F(ControllerTest, ReplaceSiteProvisionsSuccessorAndForwards) {
  std::optional<Status> done;
  ASSERT_TRUE(controller_
                  .Start(ReconfigOp{ReconfigKind::kReplaceSite, 2},
                         [&](Status s) { done = s; })
                  .ok());
  loop_.Run();

  ASSERT_TRUE(done.has_value() && done->ok());
  EXPECT_EQ(host_.provisioned, (std::vector<SiteId>{3}));
  ASSERT_EQ(host_.transfers.size(), 1u);
  EXPECT_EQ(host_.transfers[0].from, 2);
  EXPECT_EQ(host_.transfers[0].to, 3);
  EXPECT_EQ(dir_.Current().ShardsOf(3), dir_.Current().ShardsOf(3));
  EXPECT_EQ(host_.deactivated, (std::vector<SiteId>{2}));
  EXPECT_EQ(dir_.Forward(2), 3);
}

TEST_F(ControllerTest, SecondStartWhileBusyIsRejected) {
  ASSERT_TRUE(
      controller_.Start(ReconfigOp{ReconfigKind::kAddSite, kInvalidSite})
          .ok());
  const Status s =
      controller_.Start(ReconfigOp{ReconfigKind::kRemoveSite, 1});
  EXPECT_EQ(s.code(), StatusCode::kRejected);
  loop_.Run();
  EXPECT_FALSE(controller_.busy());
}

TEST_F(ControllerTest, ProtectedSiteCannotBeRemoved) {
  Controller c(/*protected_sites=*/{0, 1}, &dir_, &host_, &metrics_, nullptr);
  EXPECT_EQ(c.Start(ReconfigOp{ReconfigKind::kRemoveSite, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(c.Start(ReconfigOp{ReconfigKind::kReplaceSite, 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(c.Start(ReconfigOp{ReconfigKind::kRemoveSite, 2}).ok());
  loop_.Run();
}

TEST_F(ControllerTest, DrainWaitsForQuiescenceThenTransfers) {
  host_.busy_sites = {1};  // source never quiescent at first
  std::optional<Status> done;
  ASSERT_TRUE(controller_
                  .Start(ReconfigOp{ReconfigKind::kRemoveSite, 1},
                         [&](Status s) { done = s; })
                  .ok());
  // Let a few polls elapse with the site still busy.
  loop_.RunUntil(20'000);
  EXPECT_FALSE(done.has_value());
  EXPECT_TRUE(host_.transfers.empty());
  host_.busy_sites.clear();
  loop_.Run();
  ASSERT_TRUE(done.has_value() && done->ok());
  EXPECT_EQ(host_.transfers.size(), 1u);
}

TEST_F(ControllerTest, DeadlineForcesTransferWhenHostPermits) {
  host_.busy_sites = {1};  // never quiescent
  host_.can_force = true;
  std::optional<Status> done;
  ASSERT_TRUE(controller_
                  .Start(ReconfigOp{ReconfigKind::kRemoveSite, 1},
                         [&](Status s) { done = s; })
                  .ok());
  loop_.Run();
  ASSERT_TRUE(done.has_value() && done->ok());
  EXPECT_EQ(host_.transfers.size(), 1u);
  // The force only kicks in after the drain deadline elapsed.
  EXPECT_GE(loop_.Now(), shard::kDrainDeadline);
}

TEST_F(ControllerTest, HandoffStallsWhileEitherEndIsUnusable) {
  host_.unusable = {1};  // crashed source: neither drain nor adopt
  std::optional<Status> done;
  ASSERT_TRUE(controller_
                  .Start(ReconfigOp{ReconfigKind::kRemoveSite, 1},
                         [&](Status s) { done = s; })
                  .ok());
  loop_.RunUntil(500'000);  // well past the drain deadline
  EXPECT_FALSE(done.has_value());
  EXPECT_TRUE(host_.transfers.empty());
  // The site comes back: the stalled handoff proceeds.
  host_.unusable.clear();
  loop_.Run();
  ASSERT_TRUE(done.has_value() && done->ok());
  EXPECT_EQ(host_.transfers.size(), 1u);
}

// ---------------------------------------------------------------------------
// Epoch fencing at the agents (satellite: stale-epoch refusal paths).

class EpochFencingTest : public ::testing::Test {
 protected:
  void Build() {
    core::MdbsConfig config;
    config.num_sites = 2;
    config.num_shards = 8;
    config.max_sites = 3;
    mdbs_ = std::make_unique<core::Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (int64_t k = 0; k < 8; ++k) {
      const SiteId owner = mdbs_->directory()->Current().OwnerOfKey(k);
      ASSERT_TRUE(mdbs_->LoadRow(owner, table_, k,
                                 db::Row{{"val", db::Value(int64_t{0})}})
                      .ok());
    }
    loop_.set_max_events(10'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  // Installs an ownership-identical successor map, so every cached epoch
  // view in the system becomes stale without any shard actually moving.
  void BumpEpoch() {
    shard::ShardMap next = mdbs_->directory()->Current();
    next.epoch += 1;
    mdbs_->directory()->Install(std::move(next));
  }

  sim::EventLoop loop_;
  std::unique_ptr<core::Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(EpochFencingTest, StaleBeginPrepareAndDecisionAreAllRefused) {
  Build();
  BumpEpoch();  // directory now at epoch 2; epoch-1 senders are stale
  const TxnId gtid = TxnId::MakeGlobal(0, 1);

  mdbs_->network().Send(0, 1, core::Message{core::BeginMsg{gtid, 1}});
  loop_.Run();
  EXPECT_EQ(mdbs_->metrics().epoch_refusals, 1);
  EXPECT_EQ(mdbs_->ltm(1)->stats().begun, 0);  // BEGIN never reached the LTM

  mdbs_->network().Send(
      0, 1, core::Message{core::PrepareMsg{gtid, core::SerialNumber{}, 1}});
  loop_.Run();
  EXPECT_EQ(mdbs_->metrics().epoch_refusals, 2);
  EXPECT_EQ(mdbs_->metrics().prepares_received, 0);

  mdbs_->network().Send(
      0, 1, core::Message{core::DecisionMsg{gtid, true, /*csn=*/-1, 1}});
  loop_.Run();
  EXPECT_EQ(mdbs_->metrics().epoch_refusals, 3);

  mdbs_->network().Send(0, 1,
                        core::Message{core::OnePhaseCommitMsg{gtid, 1}});
  loop_.Run();
  EXPECT_EQ(mdbs_->metrics().epoch_refusals, 4);
  EXPECT_EQ(mdbs_->metrics().global_committed, 0);
  EXPECT_EQ(mdbs_->metrics().commits_stale_epoch, 0);
}

TEST_F(EpochFencingTest, EpochZeroSendersAreNeverFenced) {
  Build();
  BumpEpoch();
  // Epoch 0 marks non-sharded senders (legacy mode, Paxos resolvers);
  // fencing must wave them through even when the directory moved on.
  const TxnId gtid = TxnId::MakeGlobal(0, 1);
  mdbs_->network().Send(0, 1, core::Message{core::BeginMsg{gtid, 0}});
  loop_.Run();
  EXPECT_EQ(mdbs_->metrics().epoch_refusals, 0);
  EXPECT_EQ(mdbs_->ltm(1)->stats().begun, 1);
}

TEST_F(EpochFencingTest, RefusedCoordinatorRefreshesAndCommits) {
  Build();
  // Pick a key owned by site 1 so the coordinator at site 0 must cross the
  // network; bump the epoch after submission but before delivery, so the
  // in-flight BEGIN carries a stale view.
  int64_t key = -1;
  for (int64_t k = 0; k < 8; ++k) {
    if (mdbs_->directory()->Current().OwnerOfKey(k) == 1) {
      key = k;
      break;
    }
  }
  ASSERT_NE(key, -1);
  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, key, "val", int64_t{7})});
  std::optional<core::GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const core::GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/0);
  BumpEpoch();  // same virtual instant: the sent BEGIN is now stale
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_GE(mdbs_->metrics().epoch_refusals, 1);
  EXPECT_GE(mdbs_->metrics().epoch_map_refreshes, 1);
  EXPECT_EQ(mdbs_->metrics().global_committed, 1);
  EXPECT_EQ(mdbs_->metrics().commits_stale_epoch, 0);
  // The refused-and-retried write landed exactly once.
  const db::RowEntry* row = mdbs_->storage(1)->GetTable(table_)->Get(key);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(std::get<int64_t>(*row->row->Get("val")), 7);
}

}  // namespace
}  // namespace hermes
