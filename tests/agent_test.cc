// Agent-level tests of the Certifier algorithms (paper Appendix A-C),
// driving one 2PC agent with hand-crafted protocol messages, plus unit
// tests of the certifier's data structures (alive interval table, agent
// log, serial numbers).

#include "core/agent.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/mdbs.h"
#include "history/op.h"
#include "trace/trace.h"

namespace hermes {
namespace {

using core::AliveInterval;
using core::AliveIntervalTable;
using core::CertPolicy;
using core::Message;
using core::SerialNumber;

// --- alive interval table ------------------------------------------------------

TEST(AliveIntervalTable, IntersectionSemantics) {
  const AliveInterval i0_10{0, 10};
  const AliveInterval i5_7{5, 7};
  const AliveInterval i10_20{10, 20};
  const AliveInterval i11_20{11, 20};
  EXPECT_TRUE(i0_10.Intersects(i10_20));
  EXPECT_TRUE(i0_10.Intersects(i5_7));
  EXPECT_FALSE(i0_10.Intersects(i11_20));
  EXPECT_FALSE(i11_20.Intersects(i0_10));
}

TEST(AliveIntervalTable, CertifiableAgainstAllRequiresEveryIntersection) {
  AliveIntervalTable table;
  const TxnId g1 = TxnId::MakeGlobal(0, 1);
  const TxnId g2 = TxnId::MakeGlobal(0, 2);
  table.Insert(g1, {0, 10}, SerialNumber{1, 0, 0});
  table.Insert(g2, {5, 15}, SerialNumber{2, 0, 0});
  EXPECT_TRUE(table.CertifiableAgainstAll({7, 20}));   // hits both
  EXPECT_FALSE(table.CertifiableAgainstAll({12, 20})); // misses g1
  EXPECT_FALSE(table.CertifiableAgainstAll({20, 30})); // misses both
  // Empty table certifies anything.
  table.Remove(g1);
  table.Remove(g2);
  EXPECT_TRUE(table.CertifiableAgainstAll({100, 100}));
}

TEST(AliveIntervalTable, ExtendAndRestart) {
  AliveIntervalTable table;
  const TxnId g = TxnId::MakeGlobal(0, 1);
  table.Insert(g, {0, 0}, SerialNumber{1, 0, 0});
  table.ExtendEnd(g, 50);
  EXPECT_TRUE(table.CertifiableAgainstAll({40, 60}));
  table.Restart(g, 100);
  EXPECT_FALSE(table.CertifiableAgainstAll({40, 60}));
  EXPECT_TRUE(table.CertifiableAgainstAll({100, 101}));
}

TEST(AliveIntervalTable, SmallestSerialNumber) {
  AliveIntervalTable table;
  const TxnId g1 = TxnId::MakeGlobal(0, 1);
  const TxnId g2 = TxnId::MakeGlobal(0, 2);
  table.Insert(g1, {0, 10}, SerialNumber{5, 0, 0});
  table.Insert(g2, {0, 10}, SerialNumber{9, 0, 0});
  EXPECT_TRUE(table.SmallestSerialNumber(g1));
  EXPECT_FALSE(table.SmallestSerialNumber(g2));
}

TEST(AliveIntervalTable, MinSnCacheSurvivesRemovalsAndOverwrites) {
  // The smallest-SN entry is cached; removing or overwriting it must
  // lazily fall back to the next-smallest, and an insert below the cached
  // minimum must take over in O(1).
  AliveIntervalTable table;
  const TxnId g1 = TxnId::MakeGlobal(0, 1);
  const TxnId g2 = TxnId::MakeGlobal(0, 2);
  const TxnId g3 = TxnId::MakeGlobal(0, 3);
  EXPECT_FALSE(table.MinSnTxn().valid());
  table.Insert(g2, {0, 10}, SerialNumber{7, 0, 0});
  table.Insert(g3, {0, 10}, SerialNumber{9, 0, 0});
  EXPECT_EQ(table.MinSnTxn(), g2);
  table.Insert(g1, {0, 10}, SerialNumber{3, 0, 0});  // new minimum
  EXPECT_EQ(table.MinSnTxn(), g1);
  table.Remove(g1);  // cached min removed -> recompute
  EXPECT_EQ(table.MinSnTxn(), g2);
  EXPECT_TRUE(table.SmallestSerialNumber(g2));
  EXPECT_FALSE(table.SmallestSerialNumber(g3));
  // Overwriting the cached min with a larger SN must dethrone it.
  table.Insert(g2, {0, 10}, SerialNumber{20, 0, 0});
  EXPECT_EQ(table.MinSnTxn(), g3);
  table.Remove(g3);
  EXPECT_EQ(table.MinSnTxn(), g2);
  table.Remove(g2);
  EXPECT_FALSE(table.MinSnTxn().valid());
}

TEST(AliveIntervalTable, MinSnTieBreaksDeterministically) {
  // Equal serial numbers: the smallest TxnId wins, independent of
  // insertion or hash order (keeps traces deterministic).
  AliveIntervalTable table;
  const TxnId a = TxnId::MakeGlobal(0, 1);
  const TxnId b = TxnId::MakeGlobal(1, 1);
  table.Insert(b, {0, 10}, SerialNumber{5, 0, 0});
  table.Insert(a, {0, 10}, SerialNumber{5, 0, 0});
  table.Remove(b);
  table.Insert(b, {0, 10}, SerialNumber{5, 0, 0});
  EXPECT_EQ(table.MinSnTxn(), a);
  // Equal-SN entries do not block each other's commit certification.
  EXPECT_TRUE(table.SmallestSerialNumber(a));
  EXPECT_TRUE(table.SmallestSerialNumber(b));
}

// --- serial numbers --------------------------------------------------------------

TEST(SerialNumber, TotalOrderAndGenerator) {
  EXPECT_LT((SerialNumber{1, 0, 0}), (SerialNumber{2, 0, 0}));
  EXPECT_LT((SerialNumber{1, 0, 0}), (SerialNumber{1, 1, 0}));
  EXPECT_LT((SerialNumber{1, 1, 0}), (SerialNumber{1, 1, 1}));
  EXPECT_FALSE(SerialNumber{}.valid());

  sim::EventLoop loop;
  sim::SiteClock clock(&loop, /*offset=*/1000);
  core::SerialNumberGenerator gen(3, &clock);
  const SerialNumber a = gen.Next();
  const SerialNumber b = gen.Next();
  EXPECT_LT(a, b);
  EXPECT_EQ(a.coordinator, 3);
  EXPECT_EQ(a.clock, 1000);
}

TEST(SerialNumber, DriftingClockStillMonotonicPerSite) {
  sim::EventLoop loop;
  sim::SiteClock clock(&loop, 0, /*drift_ppm=*/100000);
  core::SerialNumberGenerator gen(0, &clock);
  SerialNumber prev = gen.Next();
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAfter(1, []() {});
    loop.Step();
    const SerialNumber next = gen.Next();
    EXPECT_LT(prev, next);
    prev = next;
  }
}

// --- agent log --------------------------------------------------------------------

TEST(AgentLog, CommandsReplayInOrder) {
  core::AgentLog log;
  const TxnId g = TxnId::MakeGlobal(0, 7);
  log.Append({.kind = core::LogRecordKind::kBegin, .gtid = g});
  log.Append({.kind = core::LogRecordKind::kCommand,
              .gtid = g,
              .command = db::MakeSelectKey(1, 10)});
  log.Append({.kind = core::LogRecordKind::kCommand,
              .gtid = g,
              .command = db::MakeDeleteKey(1, 11)});
  const auto commands = log.CommandsOf(g);
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<db::SelectCmd>(commands[0]));
  EXPECT_TRUE(std::holds_alternative<db::DeleteCmd>(commands[1]));
}

TEST(AgentLog, InDoubtTracksPreparedUnresolved) {
  core::AgentLog log;
  const TxnId g1 = TxnId::MakeGlobal(0, 1);
  const TxnId g2 = TxnId::MakeGlobal(0, 2);
  log.ForceAppend({.kind = core::LogRecordKind::kPrepare, .gtid = g1});
  log.ForceAppend({.kind = core::LogRecordKind::kPrepare, .gtid = g2});
  log.ForceAppend({.kind = core::LogRecordKind::kCommit, .gtid = g1});
  log.Append({.kind = core::LogRecordKind::kComplete, .gtid = g1});
  const auto in_doubt = log.InDoubt();
  ASSERT_EQ(in_doubt.size(), 1u);
  EXPECT_EQ(in_doubt[0], g2);
  EXPECT_EQ(log.forced_writes(), 3);
  EXPECT_TRUE(log.HasCommit(g1));
  EXPECT_FALSE(log.HasCommit(g2));
}

// Differential check of the log's per-transaction index and of
// retirement: on seeded random logs (every record kind, 4 to 64 gtids,
// forced and buffered appends) finished gtids retire at random points, and
// at every checkpoint each query answers what a scan of every record ever
// appended answers: the facts that survive retirement (Knows, HasCommit,
// HasAbort, HasComplete, MigratedToOf) for every gtid, the per-record
// queries for live ones, the InDoubt() order, the forced-write count, the
// live records in LSN order and the SN checkpoint.
TEST(AgentLog, QueriesMatchAFullScanOnRandomLogs) {
  using core::AgentOutcome;
  using core::LogRecord;
  using core::LogRecordKind;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    // From a few gtids with many records each to many with few.
    std::vector<TxnId> gtids;
    for (int64_t i = 0; i < 4 + static_cast<int64_t>(seed % 5) * 15; ++i) {
      gtids.push_back(TxnId::MakeGlobal(static_cast<SiteId>(i % 3), i));
    }
    core::AgentLog log;
    std::vector<LogRecord> all;  // every record appended, never retired
    std::map<TxnId, uint32_t> retired;  // gtid -> last late incarnation

    auto has = [&](const TxnId& g, LogRecordKind kind) {
      return std::any_of(all.begin(), all.end(), [&](const LogRecord& r) {
        return r.gtid == g && r.kind == kind;
      });
    };
    auto in_doubt_of = [&](const TxnId& g) {
      return has(g, LogRecordKind::kPrepare) &&
             !has(g, LogRecordKind::kComplete) &&
             !has(g, LogRecordKind::kAbort) &&
             !has(g, LogRecordKind::kMigrated);
    };

    auto check = [&](int step) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                   std::to_string(step));
      int64_t forced = 0;
      std::vector<int64_t> live_lsns;
      for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].lsn, static_cast<int64_t>(i));
        forced += all[i].forced;
        if (retired.count(all[i].gtid) == 0) live_lsns.push_back(all[i].lsn);
      }
      EXPECT_EQ(log.forced_writes(), forced);
      std::vector<int64_t> lsns;
      log.ForEachRecord([&](const LogRecord& r) { lsns.push_back(r.lsn); });
      EXPECT_EQ(lsns, live_lsns);
      EXPECT_EQ(log.size(), live_lsns.size());
      EXPECT_EQ(log.retired(), retired.size());

      // The SN checkpoint: the committed high-water mark recovery restored
      // before retirement existed, by replaying every prepare record of a
      // completed gtid in LSN order.
      SerialNumber max_sn;
      TxnId max_gtid;
      for (const LogRecord& r : all) {
        if (r.kind == LogRecordKind::kPrepare &&
            has(r.gtid, LogRecordKind::kComplete) && max_sn < r.sn) {
          max_sn = r.sn;
          max_gtid = r.gtid;
        }
      }
      const core::AgentLog::HighWater hw = log.CommittedHighWater();
      EXPECT_EQ(hw.sn, max_sn);
      EXPECT_EQ(hw.gtid, max_gtid);

      std::vector<TxnId> in_doubt;
      std::vector<TxnId> queried = gtids;
      queried.push_back(TxnId::MakeGlobal(0, 99));  // never logged
      for (const TxnId& g : queried) {
        SCOPED_TRACE(g.ToString());
        std::vector<std::string> commands;
        const LogRecord* prepare = nullptr;
        const LogRecord* commit = nullptr;
        const LogRecord* begin = nullptr;
        const LogRecord* migrated = nullptr;
        bool known = false, aborted = false, complete = false;
        int resubmissions = 0;
        for (const LogRecord& r : all) {
          if (r.gtid != g) continue;
          known = true;
          switch (r.kind) {
            case LogRecordKind::kBegin:
              if (begin == nullptr) begin = &r;
              break;
            case LogRecordKind::kCommand:
              commands.push_back(db::CommandToString(*r.command));
              break;
            case LogRecordKind::kPrepare:
              prepare = &r;
              break;
            case LogRecordKind::kResubmission:
              ++resubmissions;
              break;
            case LogRecordKind::kCommit:
              if (commit == nullptr) commit = &r;
              break;
            case LogRecordKind::kAbort:
              aborted = true;
              break;
            case LogRecordKind::kComplete:
              complete = true;
              break;
            case LogRecordKind::kMigrated:
              if (migrated == nullptr) migrated = &r;
              break;
          }
        }
        EXPECT_EQ(log.HasCommit(g), commit != nullptr);
        EXPECT_EQ(log.HasAbort(g), aborted);
        EXPECT_EQ(log.HasComplete(g), complete);
        EXPECT_EQ(log.Knows(g), known);
        EXPECT_EQ(log.MigratedToOf(g),
                  migrated == nullptr ? kInvalidSite : migrated->peer);
        if (prepare != nullptr && !complete && !aborted &&
            migrated == nullptr) {
          in_doubt.push_back(g);
        }
        const auto it = retired.find(g);
        if (it != retired.end()) {
          // Retired: only the outcome entry is left.
          const AgentOutcome* outcome = log.OutcomeOf(g);
          ASSERT_NE(outcome, nullptr);
          EXPECT_EQ(outcome->late.incarnation, it->second);
          EXPECT_TRUE(log.CommandsOf(g).empty());
          EXPECT_FALSE(log.PrepareRecordOf(g).has_value());
          continue;
        }
        EXPECT_EQ(log.OutcomeOf(g), nullptr);
        std::vector<std::string> logged;
        for (const db::Command& c : log.CommandsOf(g)) {
          logged.push_back(db::CommandToString(c));
        }
        EXPECT_EQ(logged, commands);
        const auto prepare_of = log.PrepareRecordOf(g);
        ASSERT_EQ(prepare_of.has_value(), prepare != nullptr);
        if (prepare != nullptr) {
          EXPECT_EQ(prepare_of->lsn, prepare->lsn);
          EXPECT_EQ(prepare_of->sn, prepare->sn);
        }
        EXPECT_EQ(log.CommitCsnOf(g), commit == nullptr ? -1 : commit->csn);
        EXPECT_EQ(log.CoordinatorOf(g),
                  begin == nullptr ? kInvalidSite : begin->peer);
        EXPECT_EQ(log.ResubmissionsOf(g), resubmissions);
      }
      std::sort(in_doubt.begin(), in_doubt.end());
      EXPECT_EQ(log.InDoubt(), in_doubt);
    };

    for (int n = 0; n < 300; ++n) {
      if (n % 50 == 49) check(n);
      const TxnId g = gtids[rng() % gtids.size()];
      const bool known =
          std::any_of(all.begin(), all.end(),
                      [&](const LogRecord& r) { return r.gtid == g; });
      if (rng() % 10 == 0) {
        // Retire `g` if it is known and not in doubt; re-retiring only
        // replaces the late answers.
        if (retired.count(g) == 0 && (!known || in_doubt_of(g))) continue;
        const auto incarnation = static_cast<uint32_t>(n + 1);
        log.Retire(g, AgentOutcome::Late{.incarnation = incarnation});
        retired[g] = incarnation;
        continue;
      }
      if (retired.count(g) != 0) continue;  // no appends after retirement
      LogRecord r;
      r.kind = static_cast<LogRecordKind>(rng() % 8);
      r.gtid = g;
      r.peer = static_cast<SiteId>(rng() % 4);
      if (r.kind == LogRecordKind::kCommand) {
        r.command = db::MakeAddKey(1, static_cast<int64_t>(rng() % 8), "v",
                                   int64_t{n});
      }
      // Few distinct serial numbers, so equal ones (and the invalid one of
      // a 1PC prepare) compete for the checkpoint.
      if (rng() % 5 != 0) {
        r.sn = SerialNumber{static_cast<sim::Time>(rng() % 20), 0, 0};
      }
      r.csn = static_cast<int64_t>(rng() % 5) - 1;
      const bool force = rng() % 2 == 0;
      LogRecord copy = r;
      copy.forced = force;
      copy.lsn = force ? log.ForceAppend(std::move(r))
                       : log.Append(std::move(r));
      all.push_back(std::move(copy));
    }
    check(300);
  }
}

// --- certifier protocol behavior ---------------------------------------------------

// Drives the agent at site 0 of a single-site Mdbs with hand-crafted 2PC
// messages from a phantom coordinator. Replies target unknown transactions
// at the real coordinator and are ignored there, so the agent's state is
// observed directly.
class AgentProtocolTest : public ::testing::Test {
 protected:
  void Build(CertPolicy policy, bool traced = true) {
    core::MdbsConfig config;
    config.num_sites = 1;
    if (traced) config.tracer = &tracer_;
    config.agent.policy = policy;
    mdbs_ = std::make_unique<core::Mdbs>(config, &loop_);
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

  // Prepared transactions keep probing their silent (phantom) coordinator,
  // so a full Run() would never return; drain a bounded slice of virtual
  // time instead.
  void Drain() { loop_.RunUntil(loop_.Now() + 50 * sim::kMillisecond); }

  // Opens a local transaction whose read of `key` queues behind a prepared
  // subtransaction's write lock. At that subtransaction's unilateral abort
  // the reader is granted ahead of the resubmission, which then waits for
  // the open reader.
  LtmTxnHandle QueueLocalReader(int64_t key) {
    ltm::Ltm* ltm = mdbs_->ltm(0);
    const LtmTxnHandle reader =
        ltm->Begin(SubTxnId{TxnId::MakeLocal(0, key), 0});
    ltm->Execute(reader, db::MakeSelectKey(table_, key),
                 [](const Status&, const db::CmdResult&) {});
    return reader;
  }

  // Runs BEGIN + one update command for `gtid` and waits for completion.
  void RunDml(const TxnId& gtid, int64_t key) {
    Send(Message{core::BeginMsg{gtid}});
    Send(Message{core::DmlRequestMsg{
        gtid, 0, db::MakeAddKey(table_, key, "v", int64_t{1})}});
    Drain();
  }

  // Commit order of two gtids in the recorded history at site 0.
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

  // Virtual time of `gtid`'s first op of `kind` at site 0 (-1 if none).
  sim::Time OpAt(const TxnId& gtid, history::OpKind kind) {
    for (const auto& op : mdbs_->recorder().ops()) {
      if (op.kind == kind && op.subtxn.txn == gtid) return op.at;
    }
    return -1;
  }

  int CommitRetryEvents() {
    int n = 0;
    tracer_.ForEach([&](const trace::Event& e) {
      if (e.kind == trace::EventKind::kCommitRetry) ++n;
    });
    return n;
  }

  sim::EventLoop loop_;
  trace::Tracer tracer_{&loop_};
  std::unique_ptr<core::Mdbs> mdbs_;
  db::TableId table_ = -1;
};

TEST_F(AgentProtocolTest, CommitCertificationReordersLocalCommitsBySn) {
  Build(CertPolicy::kFull);
  const TxnId low = Gtid(1), high = Gtid(2);
  // Both transactions execute (on different items) and are alive
  // simultaneously, so both pass prepare certification.
  RunDml(low, 1);
  RunDml(high, 2);
  Send(Message{core::PrepareMsg{low, SerialNumber{100, 0, 0}}});
  Send(Message{core::PrepareMsg{high, SerialNumber{200, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 2u);

  // COMMIT arrives for the *bigger* serial number first: commit
  // certification must defer it until the smaller one commits. The
  // blocked attempt is recorded once; nothing polls.
  Send(Message{core::DecisionMsg{high, true}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, 1);
  EXPECT_EQ(CommitRetryEvents(), 1);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 2u);  // both still there

  // The waiter commits in the instant its blocker does, right after it.
  Send(Message{core::DecisionMsg{low, true}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  EXPECT_TRUE(CommittedBefore(low, high));
  EXPECT_EQ(OpAt(high, history::OpKind::kLocalCommit),
            OpAt(low, history::OpKind::kLocalCommit));
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, 1);
  EXPECT_EQ(CommitRetryEvents(), 1);
  EXPECT_EQ(mdbs_->agent(0)->max_committed_sn(), (SerialNumber{200, 0, 0}));
}

TEST_F(AgentProtocolTest, RollbackOfTheBlockerReleasesTheWaiterAtOnce) {
  Build(CertPolicy::kFull);
  const TxnId low = Gtid(1), high = Gtid(2);
  RunDml(low, 1);
  RunDml(high, 2);
  Send(Message{core::PrepareMsg{low, SerialNumber{100, 0, 0}}});
  Send(Message{core::PrepareMsg{high, SerialNumber{200, 0, 0}}});
  Drain();
  Send(Message{core::DecisionMsg{high, true}});
  Drain();
  ASSERT_EQ(mdbs_->agent(0)->alive_table().size(), 2u);

  Send(Message{core::DecisionMsg{low, false}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  const sim::Time rolled_back = OpAt(low, history::OpKind::kLocalAbort);
  ASSERT_GE(rolled_back, 0);
  EXPECT_EQ(OpAt(high, history::OpKind::kLocalCommit), rolled_back);
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, 1);
}

TEST_F(AgentProtocolTest, ChainOfWaitersCommitsInSnOrderInOneInstant) {
  // Untraced: each waiter's commit_retry event would list every smaller
  // SN, O(n^2) trace context.
  Build(CertPolicy::kFull, /*traced=*/false);
  // One key per transaction, so every subtransaction holds its own lock
  // and all of them are alive, and then prepared, together.
  constexpr int kTxns = 1200;
  for (int64_t k = 8; k < kTxns; ++k) {
    ASSERT_TRUE(mdbs_->LoadRow(0, table_, k,
                               db::Row{{"v", db::Value(int64_t{0})}})
                    .ok());
  }
  for (int i = 0; i < kTxns; ++i) {
    Send(Message{core::BeginMsg{Gtid(i)}});
    Send(Message{core::DmlRequestMsg{
        Gtid(i), 0, db::MakeAddKey(table_, i, "v", int64_t{1})}});
  }
  Drain();
  for (int i = 0; i < kTxns; ++i) {
    Send(Message{core::PrepareMsg{Gtid(i), SerialNumber{100 + i, 0, 0}}});
  }
  Drain();
  ASSERT_EQ(mdbs_->agent(0)->alive_table().size(), static_cast<size_t>(kTxns));

  // Every COMMIT but the smallest SN's arrives first, largest SN first:
  // each one waits.
  for (int i = kTxns - 1; i >= 1; --i) {
    Send(Message{core::DecisionMsg{Gtid(i), true}});
  }
  Drain();
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, kTxns - 1);
  ASSERT_EQ(mdbs_->agent(0)->alive_table().size(), static_cast<size_t>(kTxns));

  Send(Message{core::DecisionMsg{Gtid(0), true}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, kTxns - 1);
  std::vector<TxnId> order;
  std::vector<sim::Time> at;
  for (const auto& op : mdbs_->recorder().ops()) {
    if (op.kind != history::OpKind::kLocalCommit) continue;
    order.push_back(op.subtxn.txn);
    at.push_back(op.at);
  }
  ASSERT_EQ(order.size(), static_cast<size_t>(kTxns));
  for (int i = 0; i < kTxns; ++i) {
    EXPECT_EQ(order[i], Gtid(i)) << "commit #" << i;
    EXPECT_EQ(at[i], at[0]) << "commit #" << i;
  }
}

TEST_F(AgentProtocolTest, WithoutCommitCertificationCommitsArriveOutOfOrder) {
  Build(CertPolicy::kPrepareExtended);
  const TxnId low = Gtid(1), high = Gtid(2);
  RunDml(low, 1);
  RunDml(high, 2);
  Send(Message{core::PrepareMsg{low, SerialNumber{100, 0, 0}}});
  Send(Message{core::PrepareMsg{high, SerialNumber{200, 0, 0}}});
  Drain();
  Send(Message{core::DecisionMsg{high, true}});
  Drain();
  Send(Message{core::DecisionMsg{low, true}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().commit_cert_retries, 0);
  EXPECT_TRUE(CommittedBefore(high, low));
}

TEST_F(AgentProtocolTest, ExtensionRefusesPrepareBehindCommittedSn) {
  Build(CertPolicy::kFull);
  const TxnId first = Gtid(1), late = Gtid(2);
  RunDml(first, 1);
  Send(Message{core::PrepareMsg{first, SerialNumber{500, 0, 0}}});
  Send(Message{core::DecisionMsg{first, true}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->max_committed_sn(), (SerialNumber{500, 0, 0}));

  // A PREPARE whose serial number is smaller than an already-committed one
  // arrives late (the paper's section 5.3 overtaking scenario): REFUSE.
  RunDml(late, 2);
  Send(Message{core::PrepareMsg{late, SerialNumber{300, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().refuse_extension, 1);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  // The local subtransaction was aborted by the refusal.
  EXPECT_FALSE(mdbs_->ltm(0)->IsActive(mdbs_->agent(0)->HandleOf(late)));
}

TEST_F(AgentProtocolTest, PrepareOnlyPolicySkipsExtension) {
  Build(CertPolicy::kPrepareOnly);
  const TxnId first = Gtid(1), late = Gtid(2);
  RunDml(first, 1);
  Send(Message{core::PrepareMsg{first, SerialNumber{500, 0, 0}}});
  Send(Message{core::DecisionMsg{first, true}});
  Drain();

  RunDml(late, 2);
  Send(Message{core::PrepareMsg{late, SerialNumber{300, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().refuse_extension, 0);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 1u);
}

TEST_F(AgentProtocolTest, PrepareOfDeadTransactionIsRefused) {
  Build(CertPolicy::kFull);
  const TxnId g = Gtid(1);
  RunDml(g, 1);
  // Unilateral abort while still active, before PREPARE arrives.
  ASSERT_TRUE(
      mdbs_->ltm(0)->InjectUnilateralAbort(mdbs_->agent(0)->HandleOf(g))
          .ok());
  Drain();
  Send(Message{core::PrepareMsg{g, SerialNumber{10, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().refuse_dead, 1);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
}

TEST_F(AgentProtocolTest, RollbackClearsPreparedState) {
  Build(CertPolicy::kFull);
  const TxnId g = Gtid(1);
  RunDml(g, 1);
  Send(Message{core::PrepareMsg{g, SerialNumber{10, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 1u);
  EXPECT_TRUE(mdbs_->ltm(0)->IsBound(ItemId{0, table_, 1}));

  Send(Message{core::DecisionMsg{g, false}});
  Drain();
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  EXPECT_FALSE(mdbs_->ltm(0)->IsBound(ItemId{0, table_, 1}));
  // The update was rolled back.
  const db::RowEntry* row = mdbs_->storage(0)->GetTable(table_)->Get(1);
  EXPECT_EQ(std::get<int64_t>(*row->row->Get("v")), 0);
}

TEST_F(AgentProtocolTest, BasicCertificationRefusesNonOverlappingIntervals) {
  Build(CertPolicy::kFull);
  const TxnId t1 = Gtid(1), t2 = Gtid(2);
  RunDml(t1, 1);
  Send(Message{core::PrepareMsg{t1, SerialNumber{10, 0, 0}}});
  Drain();
  // Kill T1's prepared subtransaction: its alive interval ends here. A
  // local reader of key 1 keeps T1 resubmitting while T2 prepares.
  QueueLocalReader(1);
  ASSERT_TRUE(
      mdbs_->ltm(0)->InjectUnilateralAbort(mdbs_->agent(0)->HandleOf(t1))
          .ok());
  Drain();
  // T2 becomes alive only after T1's death: intervals cannot intersect.
  RunDml(t2, 2);
  Send(Message{core::PrepareMsg{t2, SerialNumber{20, 0, 0}}});
  Drain();
  EXPECT_EQ(mdbs_->metrics().refuse_interval, 1);
}

// --- the alive check runs on UAN (Appendix A) --------------------------------

TEST_F(AgentProtocolTest, PreparedSubtransactionResubmitsAtItsAbort) {
  Build(CertPolicy::kFull);
  const TxnId t1 = Gtid(1);
  RunDml(t1, 1);
  Send(Message{core::PrepareMsg{t1, SerialNumber{10, 0, 0}}});
  Drain();
  const LtmTxnHandle dead = mdbs_->agent(0)->HandleOf(t1);
  ASSERT_TRUE(mdbs_->ltm(0)->InjectUnilateralAbort(dead).ok());
  // No decision is in sight (the coordinator is a phantom): nothing but the
  // UAN can start the resubmission, and it does so at once.
  loop_.RunUntil(loop_.Now() + 1 * sim::kMillisecond);
  EXPECT_EQ(mdbs_->metrics().resubmissions, 1);
  EXPECT_EQ(mdbs_->metrics().resubmission_failures, 0);
  const LtmTxnHandle fresh = mdbs_->agent(0)->HandleOf(t1);
  EXPECT_NE(fresh, dead);
  EXPECT_TRUE(mdbs_->ltm(0)->IsActive(fresh));
}

TEST_F(AgentProtocolTest, BlockedResubmissionsIntervalEndsAtTheAbort) {
  Build(CertPolicy::kFull);
  const TxnId t1 = Gtid(1);
  RunDml(t1, 1);
  Send(Message{core::PrepareMsg{t1, SerialNumber{10, 0, 0}}});
  Drain();
  const LtmTxnHandle reader = QueueLocalReader(1);
  ltm::Ltm* ltm = mdbs_->ltm(0);
  const sim::Time aborted_at = loop_.Now();
  ASSERT_TRUE(ltm->InjectUnilateralAbort(mdbs_->agent(0)->HandleOf(t1)).ok());
  Drain();
  ASSERT_EQ(mdbs_->metrics().resubmissions, 1);
  const AliveIntervalTable::Entry* entry =
      mdbs_->agent(0)->alive_table().Find(t1);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->interval.end, aborted_at);
  EXPECT_LT(entry->interval.begin, aborted_at);

  // Once the reader commits, the resubmission completes and restarts the
  // interval.
  ASSERT_TRUE(ltm->Commit(reader).ok());
  Drain();
  entry = mdbs_->agent(0)->alive_table().Find(t1);
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->interval.begin, aborted_at);
}

TEST_F(AgentProtocolTest, CommitInTheAbortsInstantResubmitsOnce) {
  Build(CertPolicy::kFull);
  const TxnId t1 = Gtid(1);
  RunDml(t1, 1);
  Send(Message{core::PrepareMsg{t1, SerialNumber{10, 0, 0}}});
  Drain();
  // The LTM delivers the UAN as a zero-delay event; a COMMIT handled in the
  // abort's instant runs before it, finds the work dead and resubmits
  // itself. The UAN then names a superseded handle and is dropped.
  ASSERT_TRUE(
      mdbs_->ltm(0)->InjectUnilateralAbort(mdbs_->agent(0)->HandleOf(t1))
          .ok());
  mdbs_->agent(0)->Handle(0, Message{core::DecisionMsg{t1, true}});
  EXPECT_EQ(mdbs_->metrics().resubmissions, 1);
  Drain();
  EXPECT_EQ(mdbs_->metrics().resubmissions, 1);
  EXPECT_EQ(mdbs_->agent(0)->alive_table().size(), 0u);
  EXPECT_TRUE(mdbs_->agent(0)->log().HasCommit(t1));
  int commits = 0;
  for (const auto& op : mdbs_->recorder().ops()) {
    if (op.kind == history::OpKind::kLocalCommit && op.subtxn.txn == t1) {
      ++commits;
      EXPECT_EQ(op.subtxn.resubmission, 1);
    }
  }
  EXPECT_EQ(commits, 1);
}

}  // namespace
}  // namespace hermes
