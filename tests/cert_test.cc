// CSN-certifier tests: unit tests of the CsnSource / CsnCertifier
// machinery (decision-time ordering numbers, snapshot check, what a crash
// loses), agent-level protocol tests driving one agent with hand-crafted
// messages (mirroring agent_test.cc's SN scenarios), and system-level
// crash/recovery tests showing the CSN survives both participant and
// coordinator crashes. Each site's CSN is read from its local-commit trace
// event. See docs/DESIGN-SPACE.md for the SN/CSN comparison these tests
// pin down.

#include "cert/csn_certifier.h"

#include <gtest/gtest.h>

#include "cert/sn_certifier.h"
#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"
#include "trace/trace.h"

namespace hermes {
namespace {

using core::AliveInterval;
using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;
using core::Mdbs;
using core::MdbsConfig;
using core::Message;
using core::SerialNumber;

// CSN under which `site` committed `gtid` locally, from its kLocalCommit
// event; -1 if there is none.
int64_t CommitCsnAt(const trace::Tracer& tracer, SiteId site,
                    const TxnId& gtid) {
  int64_t csn = -1;
  tracer.ForEach([&](const trace::Event& e) {
    if (e.kind == trace::EventKind::kLocalCommit && e.site == site &&
        e.txn == gtid) {
      csn = e.value;
    }
  });
  return csn;
}

// --- source & factory -------------------------------------------------------

TEST(CsnSource, StrictlyMonotonicFromOne) {
  cert::CsnSource source;
  EXPECT_EQ(source.last_assigned(), 0);
  EXPECT_EQ(source.Next(), 1);
  EXPECT_EQ(source.Next(), 2);
  EXPECT_EQ(source.Next(), 3);
  EXPECT_EQ(source.last_assigned(), 3);
}

TEST(Certifier, FactoryBuildsRequestedScheme) {
  auto sn = cert::MakeCertifier(cert::CertifierKind::kSn, CertPolicy::kFull);
  auto csn = cert::MakeCertifier(cert::CertifierKind::kCsn, CertPolicy::kFull);
  EXPECT_EQ(sn->kind(), cert::CertifierKind::kSn);
  EXPECT_EQ(csn->kind(), cert::CertifierKind::kCsn);
  EXPECT_STREQ(cert::CertifierKindName(sn->kind()), "sn");
  EXPECT_STREQ(cert::CertifierKindName(csn->kind()), "csn");
}

// --- prepare-time ordering admission ---------------------------------------

TEST(CsnCertifier, NoOrderingRefusalWhereSnSchemeRefuses) {
  // The paper's section 5.3 overtaking scenario: a PREPARE whose serial
  // number is below the committed high-water mark. The SN scheme must
  // refuse (the submit-time order already contradicts the commit order);
  // decision-time CSNs cannot contradict the commit order, so the same
  // arrival is admitted.
  const TxnId a = TxnId::MakeGlobal(0, 1);

  cert::SnCertifier sn(CertPolicy::kFull);
  sn.OnPrepared(a, {0, 10}, SerialNumber{500, 0, 0});
  sn.OnCommitted(a, SerialNumber{500, 0, 0});
  const auto sn_out = sn.CertifyPrepare(SerialNumber{300, 0, 0}, {15, 25},
                                        /*want_detail=*/true);
  EXPECT_FALSE(sn_out.admit);
  EXPECT_EQ(sn_out.refuse, trace::RefuseKind::kExtension);
  EXPECT_EQ(sn_out.related, std::vector<TxnId>{a});

  cert::CsnCertifier csn(CertPolicy::kFull);
  csn.OnPrepared(a, {0, 10}, SerialNumber{});
  csn.OnCommitDecision(a, 1);
  csn.OnCommitted(a, SerialNumber{});
  const auto csn_out =
      csn.CertifyPrepare(SerialNumber{300, 0, 0}, {15, 25}, false);
  EXPECT_TRUE(csn_out.admit);
}

// --- commit-order certification ---------------------------------------------

TEST(CsnCertifier, UndecidedPeerBlocksDecidedCommit) {
  cert::CsnCertifier csn(CertPolicy::kFull);
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(0, 2);
  csn.OnPrepared(a, {0, 10}, SerialNumber{});
  csn.OnPrepared(b, {0, 10}, SerialNumber{});

  // a is decided, b is not: b's CSN, once assigned, could be smaller than
  // a's, so a must wait (the invalid serial number parks below every valid
  // one).
  csn.OnCommitDecision(a, 5);
  std::vector<TxnId> waiting;
  EXPECT_FALSE(csn.CertifyCommit(a, &waiting));
  ASSERT_EQ(waiting.size(), 1u);
  EXPECT_EQ(waiting[0], b);

  // b's decision resolves the order: 5 < 7, so a commits first.
  csn.OnCommitDecision(b, 7);
  EXPECT_TRUE(csn.CertifyCommit(a, nullptr));
  EXPECT_FALSE(csn.CertifyCommit(b, nullptr));
  csn.OnCommitted(a, SerialNumber{});
  EXPECT_TRUE(csn.CertifyCommit(b, nullptr));
}

// --- crash ---------------------------------------------------------------------

TEST(CsnCertifier, CrashLosesVolatileState) {
  // The prepared table is all the state a CSN certifier keeps: a crash
  // empties it, and an entry re-entered without its decision parks below
  // every decided peer again.
  cert::CsnCertifier csn(CertPolicy::kFull);
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(0, 2);
  csn.OnPrepared(a, {0, 10}, SerialNumber{});
  csn.OnCommitDecision(a, 3);  // decided, not yet committed
  csn.OnPrepared(b, {0, 10}, SerialNumber{});
  csn.OnCommitDecision(b, 4);
  EXPECT_TRUE(csn.CertifyCommit(a, nullptr));

  csn.Crash();
  EXPECT_EQ(csn.table().size(), 0u);
  EXPECT_FALSE(csn.CommitHead().valid());
  csn.OnPrepared(a, {50, 50}, SerialNumber{});
  csn.OnPrepared(b, {50, 50}, SerialNumber{});
  csn.OnCommitDecision(b, 4);
  EXPECT_FALSE(csn.CertifyCommit(b, nullptr));
  EXPECT_EQ(csn.CommitHead(), a);
}

// --- agent-level protocol behavior ------------------------------------------

// Drives the agent at site 0 of a single-site Mdbs configured with the CSN
// certifier, using hand-crafted 2PC messages from a phantom coordinator
// (agent_test.cc's AgentProtocolTest idiom).
class AgentCsnTest : public ::testing::Test {
 protected:
  void Build(CertPolicy policy) {
    MdbsConfig config;
    config.num_sites = 1;
    config.tracer = &tracer_;
    config.agent.certifier = cert::CertifierKind::kCsn;
    config.agent.policy = policy;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTable(0, "t");
    for (int64_t k = 0; k < 8; ++k) {
      ASSERT_TRUE(mdbs_->LoadRow(0, table_, k,
                                 db::Row{{"v", db::Value(int64_t{0})}})
                      .ok());
    }
    loop_.set_max_events(1'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  TxnId Gtid(int64_t n) { return TxnId::MakeGlobal(0, 1000 + n); }

  void Send(const Message& msg) { mdbs_->network().Send(0, 0, msg); }

  void Drain() { loop_.RunUntil(loop_.Now() + 50 * sim::kMillisecond); }

  void RunDml(const TxnId& gtid, int64_t key) {
    Send(Message{core::BeginMsg{gtid}});
    Send(Message{core::DmlRequestMsg{
        gtid, 0, db::MakeAddKey(table_, key, "v", int64_t{1})}});
    Drain();
  }

  bool CommittedBefore(const TxnId& a, const TxnId& b) {
    int64_t a_at = -1, b_at = -1;
    for (const auto& op : mdbs_->recorder().ops()) {
      if (op.kind != history::OpKind::kLocalCommit) continue;
      if (op.subtxn.txn == a) a_at = static_cast<int64_t>(op.seq);
      if (op.subtxn.txn == b) b_at = static_cast<int64_t>(op.seq);
    }
    EXPECT_GE(a_at, 0);
    EXPECT_GE(b_at, 0);
    return a_at < b_at;
  }

  sim::EventLoop loop_;
  trace::Tracer tracer_{&loop_};
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(AgentCsnTest, CommitsFollowCsnOrderNotArrivalOrder) {
  Build(CertPolicy::kFull);
  const TxnId a = Gtid(1), b = Gtid(2);
  RunDml(a, 1);
  RunDml(b, 2);
  // The submit-time serial numbers on the PREPAREs are ignored by the CSN
  // scheme: both park with invalid SNs.
  Send(Message{core::PrepareMsg{a, SerialNumber{100, 0, 0}}});
  Send(Message{core::PrepareMsg{b, SerialNumber{200, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 2u);

  // b's COMMIT (csn 2) arrives first, but a is still undecided: b must
  // wait — a's CSN could have been (and here is) smaller.
  Send(Message{core::DecisionMsg{b, true, /*csn=*/2}});
  Drain();
  EXPECT_GE(mdbs_->metrics().commit_cert_retries, 1);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 2u);

  Send(Message{core::DecisionMsg{a, true, /*csn=*/1}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  EXPECT_TRUE(CommittedBefore(a, b));
  EXPECT_EQ(CommitCsnAt(tracer_, 0, a), 1);
  EXPECT_EQ(CommitCsnAt(tracer_, 0, b), 2);
}

TEST_F(AgentCsnTest, StampOfTheUndecidedBlockerReleasesTheWaiterAtOnce) {
  Build(CertPolicy::kFull);
  const TxnId a = Gtid(1), b = Gtid(2);
  RunDml(a, 1);
  RunDml(b, 2);
  Send(Message{core::PrepareMsg{a, SerialNumber{100, 0, 0}}});
  Send(Message{core::PrepareMsg{b, SerialNumber{200, 0, 0}}});
  Drain();
  // b is decided (csn 1) but waits on the undecided a.
  Send(Message{core::DecisionMsg{b, true, /*csn=*/1}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, 1);
  ASSERT_EQ(mdbs_->agent(0)->alive_table().size(), 2u);

  // a is stamped with a larger CSN: b no longer waits on anything and
  // commits at the stamp, then a in the same instant. a never waits.
  Send(Message{core::DecisionMsg{a, true, /*csn=*/2}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  EXPECT_TRUE(CommittedBefore(b, a));
  sim::Time a_at = -1, b_at = -1;
  for (const auto& op : mdbs_->recorder().ops()) {
    if (op.kind != history::OpKind::kLocalCommit) continue;
    if (op.subtxn.txn == a) a_at = op.at;
    if (op.subtxn.txn == b) b_at = op.at;
  }
  EXPECT_GE(b_at, 0);
  EXPECT_EQ(b_at, a_at);
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, 1);
  EXPECT_EQ(CommitCsnAt(tracer_, 0, b), 1);
  EXPECT_EQ(CommitCsnAt(tracer_, 0, a), 2);
}

TEST_F(AgentCsnTest, LatePrepareAfterCommitIsAdmitted) {
  // Agent-level mirror of agent_test.cc's
  // ExtensionRefusesPrepareBehindCommittedSn: identical message sequence,
  // opposite outcome — decision-time numbering has no "late" prepares.
  Build(CertPolicy::kFull);
  const TxnId first = Gtid(1), late = Gtid(2);
  RunDml(first, 1);
  Send(Message{core::PrepareMsg{first, SerialNumber{500, 0, 0}}});
  Send(Message{core::DecisionMsg{first, true, /*csn=*/1}});
  Drain();

  RunDml(late, 2);
  Send(Message{core::PrepareMsg{late, SerialNumber{300, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().refuse_extension, 0);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 1u);
}

// --- system-level crash recovery --------------------------------------------

class CsnRecoveryTest : public ::testing::Test {
 protected:
  void Build(int sites) {
    MdbsConfig config;
    config.num_sites = sites;
    config.tracer = &tracer_;
    config.agent.certifier = cert::CertifierKind::kCsn;
    mdbs_ = std::make_unique<Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (SiteId s = 0; s < sites; ++s) {
      for (int64_t k = 0; k < 8; ++k) {
        ASSERT_TRUE(mdbs_->LoadRow(s, table_, k,
                                   db::Row{{"v", db::Value(int64_t{0})}})
                        .ok());
      }
    }
    loop_.set_max_events(10'000'000);
  }

  // A livelock stops the loop at its event budget; fail the test then.
  void TearDown() override { EXPECT_FALSE(loop_.budget_exhausted()); }

  int64_t Val(SiteId site, int64_t key) {
    const db::RowEntry* e = mdbs_->storage(site)->GetTable(table_)->Get(key);
    EXPECT_NE(e, nullptr);
    EXPECT_TRUE(e->live());
    return std::get<int64_t>(*e->row->Get("v"));
  }

  int64_t CsnAt(SiteId site, const TxnId& gtid) {
    return CommitCsnAt(tracer_, site, gtid);
  }

  void ExpectSerializable() {
    const auto committed =
        history::CommittedProjection(mdbs_->recorder().ops());
    EXPECT_EQ(history::VerifyReplayMatchesRecorded(committed), "");
    EXPECT_NE(history::CheckViewSerializability(committed).verdict,
              history::Verdict::kNotSerializable);
  }

  sim::EventLoop loop_;
  trace::Tracer tracer_{&loop_};
  std::unique_ptr<Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(CsnRecoveryTest, EndToEndCsnRunCommitsAndNumbersEveryTransaction) {
  Build(2);
  std::vector<TxnId> gtids;
  int committed = 0;
  for (int i = 0; i < 3; ++i) {
    GlobalTxnSpec spec;
    spec.steps.push_back({0, db::MakeAddKey(table_, i, "v", int64_t{1})});
    spec.steps.push_back({1, db::MakeAddKey(table_, i, "v", int64_t{1})});
    gtids.push_back(mdbs_->Submit(spec, [&](const GlobalTxnResult& r) {
      if (r.status.ok()) ++committed;
    }));
  }
  loop_.Run();
  EXPECT_EQ(committed, 3);
  EXPECT_EQ(mdbs_->metrics().csn_assigned, 3);
  // Every commit drew a distinct decision-time number from the shared
  // source, recorded identically at both participants.
  std::set<int64_t> csns;
  for (const TxnId& g : gtids) {
    const int64_t csn = CsnAt(0, g);
    EXPECT_GE(csn, 1);
    EXPECT_EQ(csn, CsnAt(1, g));
    csns.insert(csn);
  }
  EXPECT_EQ(csns.size(), 3u);
  ExpectSerializable();
}

TEST_F(CsnRecoveryTest, ParticipantCrashRecoversWithTheAssignedCsn) {
  Build(2);
  // Crash the pure participant right after it prepares: the COMMIT (with
  // the CSN riding on it) is lost; recovery must resubmit, learn the
  // decision through the retransmission/inquiry machinery and commit with
  // the *same* CSN the decision originally drew.
  bool crashed = false;
  mdbs_->agent(0)->set_prepared_hook([&](const TxnId&, LtmTxnHandle) {
    if (crashed) return;
    crashed = true;
    loop_.ScheduleAfter(100, [this]() { mdbs_->CrashSite(0); });
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({0, db::MakeAddKey(table_, 1, "v", int64_t{-10})});
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{10})});
  std::optional<GlobalTxnResult> result;
  mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                /*coordinator_site=*/1);
  loop_.Run();

  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(crashed);
  EXPECT_TRUE(result->status.ok()) << result->status;
  EXPECT_EQ(Val(0, 1), -10);
  EXPECT_EQ(Val(1, 1), 10);
  EXPECT_EQ(mdbs_->metrics().csn_assigned, 1);
  EXPECT_EQ(CsnAt(0, result->gtid), 1);
  EXPECT_EQ(CsnAt(1, result->gtid), 1);
  ExpectSerializable();
}

TEST_F(CsnRecoveryTest, CoordinatorCrashRedeliversDecisionWithSameCsn) {
  Build(2);
  // The participant (site 1) crashes after preparing and stays down; the
  // coordinator (site 0) decides commit — force-writing the decision record
  // with its CSN — and then crashes itself. Its recovery must re-drive the
  // COMMIT from the log with the logged CSN, and the recovered participant
  // must commit under that number.
  TxnId gtid;
  bool crashed = false;
  mdbs_->agent(1)->set_prepared_hook([&](const TxnId& id, LtmTxnHandle) {
    if (crashed || !(id == gtid)) return;
    crashed = true;
    // The READY vote is already in flight to the coordinator; the COMMIT
    // reply will vanish against the downed site.
    loop_.ScheduleAfter(100, [this]() { mdbs_->CrashSite(1, /*downtime=*/-1); });
  });

  GlobalTxnSpec spec;
  spec.steps.push_back({1, db::MakeAddKey(table_, 1, "v", int64_t{7})});
  std::optional<GlobalTxnResult> result;
  gtid = mdbs_->Submit(spec, [&](const GlobalTxnResult& r) { result = r; },
                       /*coordinator_site=*/0);
  // Let the vote arrive and the decision be taken (and retransmitted into
  // the void a few times).
  loop_.RunUntil(loop_.Now() + 60 * sim::kMillisecond);
  ASSERT_TRUE(crashed);
  EXPECT_EQ(mdbs_->metrics().csn_assigned, 1);

  // Coordinator crash-and-recover: volatile transaction state is gone, the
  // decision log survives and re-drives delivery.
  mdbs_->CrashSite(0);
  mdbs_->RecoverSite(1);
  loop_.RunUntil(loop_.Now() + 500 * sim::kMillisecond);

  EXPECT_GE(mdbs_->metrics().coordinator_redelivered_decisions, 1);
  EXPECT_EQ(Val(1, 1), 7);
  EXPECT_EQ(CsnAt(1, gtid), 1);
  EXPECT_TRUE(mdbs_->agent(1)->log().HasComplete(gtid));
  EXPECT_TRUE(mdbs_->agent(1)->log().InDoubt().empty());
  ExpectSerializable();
}

}  // namespace
}  // namespace hermes
