// Protocol branches that only late, duplicated or unusual messages reach,
// driven through core::Mdbs and its network: a probe endpoint plays the
// coordinator (or a Paxos leader) and records every reply it gets. Each
// test fails when its branch is dropped.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "core/mdbs.h"
#include "shard/reconfig.h"
#include "trace/trace.h"

namespace hermes {
namespace {

using core::Message;
using core::SerialNumber;

class ReachTest : public ::testing::Test {
 protected:
  static constexpr SiteId kProbe = 9;

  void Build(core::MdbsConfig config) {
    mdbs_ = std::make_unique<core::Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    // Unsharded, every site holds keys 0-7; sharded, only their owner.
    for (SiteId s = 0; s < config.num_sites; ++s) {
      for (int64_t k = 0; k < 8; ++k) {
        if (mdbs_->directory() != nullptr &&
            mdbs_->directory()->Current().OwnerOfKey(k) != s) {
          continue;
        }
        ASSERT_TRUE(mdbs_->LoadRow(s, table_, k,
                                   db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }
    mdbs_->network().RegisterEndpoint(kProbe, [this](const net::Envelope& e) {
      if (const auto* msg = std::any_cast<Message>(&e.payload)) {
        replies_.push_back(*msg);
      }
    });
    loop_.set_max_events(1'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  TxnId Gtid(int64_t n) { return TxnId::MakeGlobal(kProbe, n); }

  // Sends without running the loop: messages posted back to back on one
  // link arrive in the same instant, in order.
  void Post(SiteId to, Message msg) {
    mdbs_->network().Send(kProbe, to, std::move(msg));
  }
  void Send(SiteId to, Message msg) {
    Post(to, std::move(msg));
    Drain();
  }
  void Drain() { loop_.RunUntil(loop_.Now() + 10 * sim::kMillisecond); }

  core::DmlRequestMsg AddOne(const TxnId& g, int32_t index, int64_t key) {
    return core::DmlRequestMsg{g, index,
                               db::MakeAddKey(table_, key, "v", int64_t{1})};
  }

  std::vector<core::DmlResponseMsg> DmlResponses(const TxnId& g,
                                                 int32_t index) const {
    std::vector<core::DmlResponseMsg> out;
    for (const Message& m : replies_) {
      const auto* r = std::get_if<core::DmlResponseMsg>(&m);
      if (r != nullptr && r->gtid == g && r->cmd_index == index) {
        out.push_back(*r);
      }
    }
    return out;
  }

  template <typename T>
  int Count() const {
    int n = 0;
    for (const Message& m : replies_) n += std::holds_alternative<T>(m);
    return n;
  }

  int64_t Val(SiteId site, int64_t key) {
    const db::RowEntry* e = mdbs_->storage(site)->GetTable(table_)->Get(key);
    return std::get<int64_t>(*e->row->Get("v"));
  }

  core::MdbsConfig Sharded(int sites, int max_sites) {
    core::MdbsConfig config;
    config.num_sites = sites;
    config.num_shards = 8;
    config.max_sites = max_sites;
    return config;
  }

  // Runs a reconfiguration to its end.
  void Reconfigure(shard::ReconfigOp op) {
    std::optional<Status> done;
    ASSERT_TRUE(
        mdbs_->StartReconfig(op, [&](Status st) { done = st; }).ok());
    loop_.RunUntil(loop_.Now() + sim::kSecond);
    ASSERT_TRUE(done.has_value());
    ASSERT_TRUE(done->ok()) << *done;
  }

  sim::EventLoop loop_;
  std::unique_ptr<core::Mdbs> mdbs_;
  db::TableId table_ = -1;
  std::vector<Message> replies_;
};

TEST_F(ReachTest, DmlForAPreparedSubtransactionIsRefusedUnexecuted) {
  // A DML request that reaches a subtransaction after its PREPARE (a
  // command the coordinator gave up on and re-sent late) must not run
  // inside the prepared work.
  core::MdbsConfig config;
  config.num_sites = 1;
  Build(config);
  const TxnId g = Gtid(1);
  Send(0, core::BeginMsg{g});
  Send(0, AddOne(g, 0, 1));
  Send(0, core::PrepareMsg{g, SerialNumber{10, kProbe, 0}});
  Send(0, AddOne(g, 1, 2));
  const auto late = DmlResponses(g, 1);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].status.code(), StatusCode::kAborted);
  EXPECT_EQ(late[0].status.message(), "no active subtransaction");
  EXPECT_EQ(Val(0, 2), 0);
  EXPECT_EQ(mdbs_->agent(0)->log().CommandsOf(g).size(), 1u);
}

TEST_F(ReachTest, OnePhaseCommitOfDeadWorkAbortsAndIsTraced) {
  // The LDBS kills a single-site transaction's work before its 1PC-COMMIT
  // arrives: with no prepare record there is nothing to resubmit, so the
  // agent, the commit point, decides abort, records it in the trace and
  // answers with a ROLLBACK-ACK.
  core::MdbsConfig config;
  config.num_sites = 1;
  trace::Tracer tracer(&loop_);
  config.tracer = &tracer;
  Build(config);
  const TxnId g = Gtid(1);
  Send(0, core::BeginMsg{g});
  Send(0, AddOne(g, 0, 1));
  ASSERT_TRUE(
      mdbs_->ltm(0)->InjectUnilateralAbort(mdbs_->agent(0)->HandleOf(g)).ok());
  Drain();
  Send(0, core::OnePhaseCommitMsg{g});
  ASSERT_EQ(Count<core::AckMsg>(), 1);
  EXPECT_FALSE(std::get<core::AckMsg>(replies_.back()).commit);
  EXPECT_EQ(mdbs_->agent(0)->StateOf(g), core::AgentState::kRolledBack);
  EXPECT_EQ(Val(0, 1), 0);
  int aborts = 0;
  tracer.ForEach([&](const trace::Event& e) {
    if (e.kind == trace::EventKind::kLocalAbort && e.txn == g) {
      ++aborts;
      EXPECT_EQ(e.site, 0);
      EXPECT_EQ(e.resubmission, 0);
      EXPECT_FALSE(e.ok);
    }
  });
  EXPECT_EQ(aborts, 1);
  mdbs_.reset();  // before the tracer it records into
}

TEST_F(ReachTest, RollbackDuringALockWaitAnswersTheDmlOnce) {
  // g2's command waits for g1's lock when its ROLLBACK arrives, followed in
  // the same instant by a retransmission of that command. The retired
  // subtransaction absorbs the retransmission (the command is still in
  // flight), then the failing command records its outcome, so a later
  // retransmission gets the cached answer: one reply per delivery that
  // completes, never a second execution.
  core::MdbsConfig config;
  config.num_sites = 1;
  Build(config);
  const TxnId g1 = Gtid(1), g2 = Gtid(2);
  Send(0, core::BeginMsg{g1});
  Send(0, AddOne(g1, 0, 1));
  Send(0, core::BeginMsg{g2});
  Send(0, AddOne(g2, 0, 1));
  ASSERT_TRUE(DmlResponses(g2, 0).empty());  // waiting for g1's lock

  Post(0, core::DecisionMsg{g2, /*commit=*/false});
  Post(0, AddOne(g2, 0, 1));
  Drain();
  const int64_t absorbed = mdbs_->metrics().dup_msgs_absorbed;
  ASSERT_EQ(DmlResponses(g2, 0).size(), 1u);
  EXPECT_EQ(DmlResponses(g2, 0)[0].status.code(), StatusCode::kAborted);
  EXPECT_EQ(absorbed, 1);

  Send(0, AddOne(g2, 0, 1));
  const auto answers = DmlResponses(g2, 0);
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[1].status.code(), StatusCode::kAborted);
  EXPECT_EQ(mdbs_->metrics().dup_msgs_absorbed, absorbed + 1);
  EXPECT_EQ(Val(0, 1), 1);  // g1's increment only
}

TEST_F(ReachTest, DuplicatePaxosBeginIsReackedWithoutASecondForce) {
  // A retransmitted (or network-duplicated) BEGIN finds the membership
  // already accepted at ballot 0: the acceptor acknowledges again and
  // forces nothing.
  core::MdbsConfig config;
  config.num_sites = 3;
  config.protocol = consensus::ProtocolKind::kPaxosCommit;
  config.paxos_f = 1;
  Build(config);
  const TxnId g = Gtid(1);
  const core::PaxosBeginMsg begin{g, kProbe, {0, 1}};
  Send(0, begin);
  const int64_t forced = mdbs_->metrics().paxos_forced_writes;
  EXPECT_EQ(forced, 1);
  Send(0, begin);
  EXPECT_EQ(Count<core::PaxosBeginAckMsg>(), 2);
  EXPECT_EQ(mdbs_->metrics().paxos_forced_writes, forced);
}

TEST_F(ReachTest, PaxosCoordinatorMissingAVoteResolvesAtOnce) {
  // The link between the coordinator's site 0 and site 1 is cut while the
  // PREPARE to site 1 is on the wire: site 1 prepares and its READY reaches
  // the acceptors (sites 1 and 2), but never the coordinator. When the
  // coordinator gives up on the vote the outcome is open, and only a
  // consensus round may seal it: the round starts at once, instead of
  // after the fast-path wait a READY decision gets, and it finds the vote.
  core::MdbsConfig config;
  config.num_sites = 3;
  config.protocol = consensus::ProtocolKind::kPaxosCommit;
  config.paxos_f = 1;
  // Prepared agents do not inquire, so no escalation settles the outcome
  // before the coordinator gives up.
  config.agent.decision_inquiry_timeout = 0;
  Build(config);
  core::GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{1}), {}});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{1}), {}});
  std::optional<core::GlobalTxnResult> result;
  const TxnId g =
      mdbs_->Submit(spec, [&](const core::GlobalTxnResult& r) { result = r; },
                    /*coordinator_site=*/0);
  // Site 0's agent prepares 10 us after the PREPAREs leave.
  while (mdbs_->agent(0)->alive_table().size() == 0) {
    ASSERT_TRUE(loop_.Step());
  }
  mdbs_->network().Partition(0, 1, loop_.Now() + 10 * sim::kSecond);
  while (mdbs_->metrics().global_aborted_timeout == 0) {
    ASSERT_TRUE(loop_.Step());
  }
  const sim::Time gave_up = loop_.Now();
  loop_.RunUntil(gave_up + 200 * sim::kMillisecond);
  sim::Time decided_at = -1;
  for (const history::Op& op : mdbs_->recorder().ops()) {
    if (op.kind == history::OpKind::kGlobalCommit && op.subtxn.txn == g) {
      decided_at = op.at;
    }
  }
  ASSERT_GE(decided_at, gave_up);
  // A resolution round takes a few one-way latencies; the fast-path wait
  // alone would take 60 ms.
  EXPECT_LT(decided_at - gave_up, 20 * sim::kMillisecond);
  loop_.Run();  // the partition heals; site 1 gets its COMMIT
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), 1);
  EXPECT_EQ(Val(1, 1), 1);
}

// --- shard handoff ------------------------------------------------------

TEST_F(ReachTest, DmlForAKeyWhoseShardMovedIsRefused) {
  // A subtransaction opened before an add-site handoff (it had no commands,
  // so the drain did not wait for it) gets a command for a key whose shard
  // now lives at the new site: executing it would write a row the old
  // owner no longer serves.
  Build(Sharded(1, 2));
  const TxnId g = Gtid(1);
  Send(0, core::BeginMsg{g});
  Reconfigure(shard::ReconfigOp{shard::ReconfigKind::kAddSite});
  const shard::ShardMap& map = mdbs_->directory()->Current();
  int64_t moved = -1;
  for (int64_t k = 0; k < 8 && moved < 0; ++k) {
    if (map.OwnerOfKey(k) != 0) moved = k;
  }
  ASSERT_NE(moved, -1);
  Send(0, AddOne(g, 0, moved));
  const auto answer = DmlResponses(g, 0);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0].status.code(), StatusCode::kAborted);
  EXPECT_EQ(answer[0].status.message(), "key's shard moved to another site");
  EXPECT_TRUE(mdbs_->agent(0)->log().CommandsOf(g).empty());
}

TEST_F(ReachTest, PreparedResidueSpanningAStayingShardHoldsTheDrain) {
  // A prepared subtransaction that touches a moving shard and a staying
  // one cannot relocate whole, so even past the drain deadline the handoff
  // waits for its decision instead of migrating it.
  Build(Sharded(1, 2));
  // A dry run on a twin system shows which shards the add moves: its fence
  // is installed at once, and wedged shards are the moving ones.
  std::vector<bool> wedged(8);
  {
    sim::EventLoop twin_loop;
    core::Mdbs twin(Sharded(1, 2), &twin_loop);
    ASSERT_TRUE(
        twin.StartReconfig(shard::ReconfigOp{shard::ReconfigKind::kAddSite})
            .ok());
    for (int64_t k = 0; k < 8; ++k) {
      wedged[k] = twin.directory()->Current().WedgedKey(k);
    }
  }
  int64_t moving = -1, staying = -1;
  for (int64_t k = 0; k < 8; ++k) {
    if (wedged[k] && moving < 0) moving = k;
    if (!wedged[k] && staying < 0) staying = k;
  }
  ASSERT_NE(moving, -1);
  ASSERT_NE(staying, -1);
  const TxnId g = Gtid(1);
  Send(0, core::BeginMsg{g});
  Send(0, AddOne(g, 0, staying));
  Send(0, AddOne(g, 1, moving));
  Send(0, core::PrepareMsg{g, SerialNumber{10, kProbe, 0}});
  ASSERT_TRUE(
      mdbs_->StartReconfig(shard::ReconfigOp{shard::ReconfigKind::kAddSite})
          .ok());
  loop_.RunUntil(loop_.Now() + 4 * shard::kDrainDeadline);
  EXPECT_TRUE(mdbs_->reconfiguring());
  EXPECT_EQ(mdbs_->metrics().reconfig_residue_adopted, 0);

  Send(0, core::DecisionMsg{g, /*commit=*/true});
  loop_.RunUntil(loop_.Now() + 100 * sim::kMillisecond);
  EXPECT_FALSE(mdbs_->reconfiguring());
  EXPECT_EQ(mdbs_->metrics().reconfig_residue_adopted, 0);
  EXPECT_EQ(mdbs_->metrics().reconfig_completed, 1);
}

TEST_F(ReachTest, AdoptedResidueKeepsItsIncarnationCount) {
  // A prepared subtransaction resubmitted once at site 1 migrates in a
  // forced replace handoff. The adopter's next incarnation must be number
  // 2: number 1 already ran at site 1, and the history keys every local
  // subtransaction by (transaction, incarnation).
  Build(Sharded(2, 3));
  int64_t key = -1;
  for (int64_t k = 0; k < 8 && key < 0; ++k) {
    if (mdbs_->directory()->Current().OwnerOfKey(k) == 1) key = k;
  }
  ASSERT_NE(key, -1);
  const TxnId g = Gtid(1);
  Send(1, core::BeginMsg{g});
  Send(1, AddOne(g, 0, key));
  Send(1, core::PrepareMsg{g, SerialNumber{10, kProbe, 0}});
  ASSERT_TRUE(
      mdbs_->ltm(1)->InjectUnilateralAbort(mdbs_->agent(1)->HandleOf(g)).ok());
  Drain();  // the UAN resubmits
  ASSERT_EQ(mdbs_->metrics().resubmissions, 1);

  Reconfigure(shard::ReconfigOp{shard::ReconfigKind::kReplaceSite, 1});
  ASSERT_EQ(mdbs_->metrics().reconfig_residue_adopted, 1);
  const SiteId adopter = mdbs_->directory()->Current().OwnerOfKey(key);
  ASSERT_EQ(adopter, 2);
  std::vector<int> incarnations;
  for (const history::Op& op : mdbs_->recorder().ops()) {
    if (op.subtxn.txn == g && op.site == adopter) {
      incarnations.push_back(op.subtxn.resubmission);
    }
  }
  ASSERT_FALSE(incarnations.empty());
  for (int i : incarnations) EXPECT_EQ(i, 2);

  Send(adopter, core::DecisionMsg{g, /*commit=*/true});
  EXPECT_EQ(Val(adopter, key), 1);
}

TEST_F(ReachTest, RemovedSiteForwardsTheCommitProtocolOnly) {
  // After a remove-site handoff the retired site forwards PREPARE and
  // decisions to its successor, which answers on its behalf; it does not
  // forward BEGIN or DML.
  Build(Sharded(2, 2));
  Reconfigure(shard::ReconfigOp{shard::ReconfigKind::kRemoveSite, 1});
  ASSERT_TRUE(mdbs_->SiteRemoved(1));
  const TxnId g = Gtid(1);
  Send(1, core::BeginMsg{g});
  Send(1, AddOne(g, 0, 0));
  EXPECT_TRUE(DmlResponses(g, 0).empty());
  Send(1, core::DecisionMsg{g, /*commit=*/false});
  EXPECT_EQ(Count<core::AckMsg>(), 1);
  EXPECT_FALSE(mdbs_->agent(0)->log().Knows(g));
}

TEST_F(ReachTest, AckFromTheForwardOfARemovedParticipantIsBookedForIt) {
  // T executes at site 1, then waits for site 2 while site 1 is removed:
  // the forced handoff aborts T's active subtransaction there, and site 1
  // forwards to a successor that never held T. T's PREPARE, routed to the
  // successor, is refused; the successor acks the ROLLBACK under its own
  // id, and the coordinator books that ACK for site 1, else the ROLLBACK
  // would be retransmitted forever.
  Build(Sharded(3, 3));
  const shard::ShardMap& map = mdbs_->directory()->Current();
  int64_t key1 = -1, key2 = -1;
  for (int64_t k = 0; k < 8; ++k) {
    if (map.OwnerOfKey(k) == 1 && key1 < 0) key1 = k;
    if (map.OwnerOfKey(k) == 2 && key2 < 0) key2 = k;
  }
  ASSERT_GE(key1, 0);
  ASSERT_GE(key2, 0);
  mdbs_->network().SetLinkLoss(0, 2, 1.0);
  core::GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, key1, "v", int64_t{1})});
  spec.steps.push_back({2, db::MakeAddKey(table_, key2, "v", int64_t{1})});
  std::optional<core::GlobalTxnResult> result;
  mdbs_->Submit(
      spec, [&](const core::GlobalTxnResult& r) { result = r; },
      /*coordinator_site=*/0);
  loop_.RunUntil(loop_.Now() + 5 * sim::kMillisecond);
  Reconfigure(shard::ReconfigOp{shard::ReconfigKind::kRemoveSite, 1});
  ASSERT_TRUE(mdbs_->SiteRemoved(1));
  ASSERT_FALSE(result.has_value());
  mdbs_->network().ClearLinkLoss(0, 2);
  loop_.RunUntil(loop_.Now() + 5 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->status.ok());
  EXPECT_EQ(mdbs_->metrics().global_aborted, 1);
  EXPECT_EQ(mdbs_->coordinator(0)->active_transactions(), 0);
}

}  // namespace
}  // namespace hermes
