// The 2PC Agent's transition table, row by row: every (state, input, next
// state) triple that core::kAgentTransitions allows is driven through
// core::Mdbs, with a probe endpoint playing the coordinator, and checked
// with TwoPCAgent::StateOf before and after the input. The rows listed here
// must be exactly the table's, so the table cannot allow a transition that
// no test reaches.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/agent.h"
#include "core/mdbs.h"
#include "shard/reconfig.h"

namespace hermes {
namespace {

using core::AgentInput;
using core::AgentState;
using core::Message;
using core::SerialNumber;

const char* const kStateNames[] = {
    "unknown",        "active",
    "prepared",       "resubmitting",
    "commit-pending", "commit-resubmitting",
    "committed",      "rolled-back",
    "migrated"};
const char* const kInputNames[] = {
    "BEGIN",        "DML",           "DML-done",        "PREPARE",
    "COMMIT",       "ROLLBACK",      "1PC-COMMIT",      "UAN",
    "resubmit-done", "resubmit-failed", "retry-timer",  "inquiry-timer",
    "orphan-timer", "head",          "reenter",         "extract",
    "adopt"};

static_assert(std::size(kStateNames) ==
              static_cast<size_t>(AgentState::kMigrated) + 1);
static_assert(std::size(kInputNames) ==
              static_cast<size_t>(AgentInput::kAdopt) + 1);

std::string Name(AgentState s) { return kStateNames[static_cast<int>(s)]; }
std::string Name(AgentInput i) { return kInputNames[static_cast<int>(i)]; }

// One federation per row. The row's subject is `g` at site `site`; a probe
// endpoint plays its coordinator, hearing every reply and answering none.
class Rig {
 public:
  static constexpr SiteId kProbe = 9;

  static core::MdbsConfig OneSite() {
    core::MdbsConfig config;
    config.num_sites = 1;
    return config;
  }
  // One site whose add-site handoff moves some of keys 0-7 to site 1.
  static core::MdbsConfig Sharded() {
    core::MdbsConfig config;
    config.num_sites = 1;
    config.num_shards = 8;
    config.max_sites = 2;
    return config;
  }

  void Build(const core::MdbsConfig& config) {
    mdbs_ = std::make_unique<core::Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (int64_t k = 0; k < 8; ++k) {
      const SiteId owner = mdbs_->directory() != nullptr
                               ? mdbs_->directory()->Current().OwnerOfKey(k)
                               : 0;
      ASSERT_TRUE(mdbs_->LoadRow(owner, table_, k,
                                 db::Row{{"v", db::Value(int64_t{0})}})
                      .ok());
    }
    mdbs_->network().RegisterEndpoint(kProbe, [](const net::Envelope&) {});
    loop_.set_max_events(1'000'000);
    if (config.num_shards > 0) FindMovingKeys(config);
  }

  TxnId G(int64_t n) const { return TxnId::MakeGlobal(kProbe, n); }
  core::Mdbs* mdbs() { return mdbs_.get(); }
  AgentState State() const { return mdbs_->agent(site)->StateOf(g); }
  // True while the subject's current local subtransaction is active.
  bool LocalAlive() { return ltm()->IsActive(agent()->HandleOf(g)); }
  core::Metrics Metrics() const { return mdbs_->metrics(); }
  bool budget_exhausted() const { return loop_.budget_exhausted(); }

  // Delivers `msg` to the subject's agent at once, from the probe.
  void Handle(Message msg) { mdbs_->agent(site)->Handle(kProbe, msg); }
  void Drain(sim::Duration d = 10 * sim::kMillisecond) {
    loop_.RunUntil(loop_.Now() + d);
  }

  // BEGIN, then one increment per key, each run to completion.
  void Open(const TxnId& t, const std::vector<int64_t>& keys) {
    Handle(core::BeginMsg{t});
    for (size_t i = 0; i < keys.size(); ++i) {
      Handle(core::DmlRequestMsg{t, static_cast<int32_t>(i), Add(keys[i])});
      Drain();
    }
  }
  db::Command Add(int64_t key) const {
    return db::MakeAddKey(table_, key, "v", int64_t{1});
  }
  db::Command Select(int64_t key) const {
    return db::MakeSelectKey(table_, key);
  }
  void Prepare(const TxnId& t, int64_t sn) {
    Handle(core::PrepareMsg{t, SerialNumber{sn, kProbe, 0}});
    Drain();
  }
  void Decide(const TxnId& t, bool commit) {
    Handle(core::DecisionMsg{t, commit});
  }
  // Unilaterally aborts `t`'s current local subtransaction; the UAN
  // follows as a zero-delay event.
  void Kill(const TxnId& t) {
    ASSERT_TRUE(ltm()->InjectUnilateralAbort(agent()->HandleOf(t)).ok());
  }
  // A local transaction whose read of `key` queues behind the subject's
  // write lock: granted at the subject's abort, it holds the resubmission
  // back until Release().
  void QueueReader(int64_t key) {
    reader_ = ltm()->Begin(SubTxnId{TxnId::MakeLocal(site, key), 0});
    ltm()->Execute(reader_, db::MakeSelectKey(table_, key),
                   [](const Status&, const db::CmdResult&) {});
  }
  void Release() {
    ASSERT_TRUE(ltm()->Commit(reader_).ok());
    Drain();
  }

  // --- the standard way into each state (subject on key 1) ---------------
  void Reach(AgentState s) {
    switch (s) {
      case AgentState::kUnknown:
        Build(OneSite());
        return;
      case AgentState::kActive:
        Build(OneSite());
        Open(g, {1});
        return;
      case AgentState::kPrepared:
        Reach(AgentState::kActive);
        Prepare(g, 100);
        return;
      case AgentState::kResubmitting:
        Reach(AgentState::kPrepared);
        QueueReader(1);
        Kill(g);
        Drain();
        return;
      case AgentState::kCommitPending:
        // Waits behind G(2), prepared with a smaller serial number.
        Build(OneSite());
        Open(G(2), {2});
        Prepare(G(2), 50);
        Open(g, {1});
        Prepare(g, 100);
        Decide(g, true);
        Drain();
        return;
      case AgentState::kCommitResubmitting:
        Reach(AgentState::kResubmitting);
        Decide(g, true);
        Drain();
        return;
      case AgentState::kCommitted:
        Reach(AgentState::kPrepared);
        Decide(g, true);
        Drain();
        return;
      case AgentState::kRolledBack:
        Reach(AgentState::kActive);
        Decide(g, false);
        Drain();
        return;
      case AgentState::kMigrated:
        break;
    }
    FAIL() << "no standard way into " << Name(s);
  }

  // --- the standard way to apply each message input ----------------------
  void Apply(AgentInput input) {
    switch (input) {
      case AgentInput::kBegin:
        return Handle(core::BeginMsg{g});
      case AgentInput::kDml:
        return Handle(core::DmlRequestMsg{g, 1, Add(3)});
      case AgentInput::kPrepare:
        return Handle(core::PrepareMsg{g, SerialNumber{100, kProbe, 0}});
      case AgentInput::kCommit:
        return Decide(g, true);
      case AgentInput::kRollback:
        return Decide(g, false);
      case AgentInput::kOnePhaseCommit:
        return Handle(core::OnePhaseCommitMsg{g});
      default:
        FAIL() << "no standard way to apply " << Name(input);
    }
  }

  // --- shard handoff ------------------------------------------------------
  void StartAddSite() {
    ASSERT_TRUE(
        mdbs_->StartReconfig(shard::ReconfigOp{shard::ReconfigKind::kAddSite})
            .ok());
  }
  // Runs past the drain deadline, when the handoff is forced.
  void Handoff() { Drain(4 * shard::kDrainDeadline); }
  // Runs the handoff until site 1 exists, and makes the subject's
  // subtransaction there the subject.
  void UntilSiteJoins() {
    while (mdbs_->num_sites() < 2) ASSERT_TRUE(loop_.Step());
    site = 1;
  }
  void UntilAdopted() {
    while (Metrics().reconfig_residue_adopted == 0) {
      ASSERT_TRUE(loop_.Step());
    }
  }

  TxnId g = G(1);
  SiteId site = 0;
  int64_t moving = -1;   // a key the add-site handoff moves
  int64_t staying = -1;  // a key it leaves at site 0

 private:
  core::TwoPCAgent* agent() { return mdbs_->agent(site); }
  ltm::Ltm* ltm() { return mdbs_->ltm(site); }

  // A dry run on a twin system: the fence is installed at once, and the
  // wedged shards are the moving ones.
  void FindMovingKeys(const core::MdbsConfig& config) {
    sim::EventLoop twin_loop;
    core::Mdbs twin(config, &twin_loop);
    ASSERT_TRUE(
        twin.StartReconfig(shard::ReconfigOp{shard::ReconfigKind::kAddSite})
            .ok());
    for (int64_t k = 0; k < 8; ++k) {
      const bool wedged = twin.directory()->Current().WedgedKey(k);
      if (wedged && moving < 0) moving = k;
      if (!wedged && staying < 0) staying = k;
    }
    ASSERT_GE(moving, 0);
    ASSERT_GE(staying, 0);
  }

  sim::EventLoop loop_;
  std::unique_ptr<core::Mdbs> mdbs_;
  db::TableId table_ = -1;
  LtmTxnHandle reader_ = kInvalidLtmTxn;
};

// A prepared subtransaction on a key the handoff moves, at site 0 of a
// sharded federation; `moving` is its key.
void PreparedOnMovingKey(Rig& r) {
  r.Build(Rig::Sharded());
  r.Open(r.g, {r.moving});
  r.Prepare(r.g, 100);
}

// Its resubmission, held back by a local reader of its key.
void ResubmittingOnMovingKey(Rig& r) {
  PreparedOnMovingKey(r);
  r.QueueReader(r.moving);
  r.Kill(r.g);
  r.Drain();
}

// Commit-pending behind G(2), prepared on a key that stays.
void CommitPendingOnMovingKey(Rig& r) {
  r.Build(Rig::Sharded());
  r.Open(r.G(2), {r.staying});
  r.Prepare(r.G(2), 50);
  r.Open(r.g, {r.moving});
  r.Prepare(r.g, 100);
  r.Decide(r.g, true);
  r.Drain();
}

// A prepared subtransaction without a command: its resubmission completes
// in the instant it starts.
void PreparedWithoutCommands(Rig& r) {
  r.Build(Rig::OneSite());
  r.Handle(core::BeginMsg{r.g});
  r.Prepare(r.g, 100);
}

// The subject's resubmission runs its first of two commands; the second
// waits for a local reader.
void ResubmittingFirstOfTwo(Rig& r) {
  r.Build(Rig::OneSite());
  r.Open(r.g, {1, 2});
  r.Prepare(r.g, 100);
  r.QueueReader(2);
  r.Kill(r.g);
  for (int i = 0; i < 100 && r.Metrics().resubmissions == 0; ++i) {
    r.Drain(sim::kMicrosecond);
  }
}

struct Row {
  AgentState from;
  AgentInput input;
  AgentState to;
  // Brings the subject into `from`; null: Rig::Reach(from).
  void (*reach)(Rig&) = nullptr;
  // Applies `input`; null: Rig::Apply(input).
  void (*apply)(Rig&) = nullptr;
};

std::vector<Row> Rows() {
  using enum AgentState;
  using enum AgentInput;
  const auto kill = [](Rig& r) {
    r.Kill(r.g);
    r.Drain();
  };
  const auto kill_once = [](Rig& r) {
    // The failed command's callback runs; the 5 ms retry does not yet.
    r.Kill(r.g);
    r.Drain(sim::kMillisecond);
    EXPECT_EQ(r.Metrics().resubmission_failures, 1);
  };
  const auto retry = [](Rig& r) {
    r.Drain();
    EXPECT_EQ(r.Metrics().resubmissions, 2);
  };
  const auto release = [](Rig& r) { r.Release(); };
  const auto drain = [](Rig& r) { r.Drain(); };
  return {
      {kUnknown, kBegin, kActive},
      {kActive, kBegin, kActive},
      {kPrepared, kBegin, kPrepared},
      {kResubmitting, kBegin, kResubmitting},
      {kCommitPending, kBegin, kCommitPending},
      {kCommitResubmitting, kBegin, kCommitResubmitting},
      {kCommitted, kBegin, kCommitted},
      {kRolledBack, kBegin, kRolledBack},

      {kUnknown, kDml, kUnknown},
      {kActive, kDml, kActive},
      {kPrepared, kDml, kPrepared},
      {kResubmitting, kDml, kResubmitting},
      {kCommitPending, kDml, kCommitPending},
      {kCommitResubmitting, kDml, kCommitResubmitting},
      {kCommitted, kDml, kCommitted},
      {kRolledBack, kDml, kRolledBack},

      // A crash while the command waits for G(2)'s lock fails it.
      {kUnknown, kDmlDone, kUnknown,
       [](Rig& r) {
         r.Build(Rig::OneSite());
         r.Open(r.G(2), {1});
         r.Open(r.g, {1});
         ASSERT_TRUE(r.mdbs()->CrashSite(0, -1).ok());
       },
       drain},
      {kActive, kDmlDone, kActive,
       [](Rig& r) {
         r.Build(Rig::OneSite());
         r.Handle(core::BeginMsg{r.g});
         r.Handle(core::DmlRequestMsg{r.g, 0, r.Add(1)});
       },
       drain},
      // Rolled back while the command waits for G(2)'s lock.
      {kRolledBack, kDmlDone, kRolledBack,
       [](Rig& r) {
         r.Build(Rig::OneSite());
         r.Open(r.G(2), {1});
         r.Open(r.g, {1});
         r.Decide(r.g, false);
       },
       drain},

      {kUnknown, kPrepare, kUnknown},
      {kActive, kPrepare, kPrepared},
      // Refused: unilaterally aborted before the PREPARE.
      {kActive, kPrepare, kRolledBack,
       [](Rig& r) {
         r.Reach(kActive);
         r.Kill(r.g);
         r.Drain();
       }},
      // Short commit of a reader.
      {kActive, kPrepare, kCommitted,
       [](Rig& r) {
         core::MdbsConfig config = Rig::OneSite();
         config.agent.short_commit = true;
         r.Build(config);
         r.Handle(core::BeginMsg{r.g});
         r.Handle(core::DmlRequestMsg{r.g, 0, r.Select(1)});
         r.Drain();
       }},
      {kPrepared, kPrepare, kPrepared},
      {kResubmitting, kPrepare, kResubmitting},
      {kCommitPending, kPrepare, kCommitPending},
      {kCommitResubmitting, kPrepare, kCommitResubmitting},
      {kCommitted, kPrepare, kCommitted},
      {kRolledBack, kPrepare, kRolledBack},

      {kUnknown, kCommit, kUnknown},
      {kActive, kCommit, kActive},
      // Waits behind G(2), prepared with a smaller serial number.
      {kPrepared, kCommit, kCommitPending,
       [](Rig& r) {
         r.Build(Rig::OneSite());
         r.Open(r.G(2), {2});
         r.Prepare(r.G(2), 50);
         r.Open(r.g, {1});
         r.Prepare(r.g, 100);
       }},
      // The COMMIT runs in the abort's instant, before the UAN.
      {kPrepared, kCommit, kCommitResubmitting,
       [](Rig& r) {
         r.Reach(kPrepared);
         r.Kill(r.g);
       }},
      {kPrepared, kCommit, kCommitted},
      {kResubmitting, kCommit, kCommitResubmitting},
      {kCommitPending, kCommit, kCommitPending},
      {kCommitResubmitting, kCommit, kCommitResubmitting},
      {kCommitted, kCommit, kCommitted},
      {kRolledBack, kCommit, kRolledBack},
      // G(2) commits and the subject heads the commit order.
      {kCommitPending, kHead, kCommitted, nullptr,
       [](Rig& r) { r.Decide(r.G(2), true); }},
      // ... its work dead in that instant.
      {kCommitPending, kHead, kCommitResubmitting, nullptr,
       [](Rig& r) {
         r.Kill(r.g);
         r.Decide(r.G(2), false);
       }},

      {kUnknown, kRollback, kUnknown},
      {kActive, kRollback, kRolledBack},
      {kPrepared, kRollback, kRolledBack},
      {kResubmitting, kRollback, kRolledBack},
      {kCommitPending, kRollback, kRolledBack},
      {kCommitResubmitting, kRollback, kRolledBack},
      {kCommitted, kRollback, kCommitted},
      {kRolledBack, kRollback, kRolledBack},

      {kUnknown, kOnePhaseCommit, kUnknown},
      {kActive, kOnePhaseCommit, kCommitted},
      {kActive, kOnePhaseCommit, kRolledBack,
       [](Rig& r) {
         r.Reach(kActive);
         r.Kill(r.g);
         r.Drain();
       }},
      {kCommitted, kOnePhaseCommit, kCommitted,
       [](Rig& r) {
         r.Reach(kActive);
         r.Handle(core::OnePhaseCommitMsg{r.g});
       }},
      {kRolledBack, kOnePhaseCommit, kRolledBack},

      {kActive, kUan, kActive, nullptr, kill},
      // The resubmission waits for a local reader of the key.
      {kPrepared, kUan, kResubmitting,
       [](Rig& r) {
         r.Reach(kPrepared);
         r.QueueReader(1);
       },
       kill},
      {kPrepared, kUan, kPrepared, PreparedWithoutCommands, kill},
      // The UAN names the resubmission's own local subtransaction.
      {kResubmitting, kUan, kResubmitting, nullptr, kill},
      {kCommitPending, kUan, kCommitResubmitting,
       [](Rig& r) {
         r.Reach(kCommitPending);
         r.QueueReader(1);
       },
       kill},
      // Without a command the resubmission completes at once, and the
      // subject waits behind G(2) again.
      {kCommitPending, kUan, kCommitPending,
       [](Rig& r) {
         r.Build(Rig::OneSite());
         r.Open(r.G(2), {2});
         r.Prepare(r.G(2), 50);
         r.Handle(core::BeginMsg{r.g});
         r.Prepare(r.g, 100);
         r.Decide(r.g, true);
         r.Drain();
       },
       kill},
      {kCommitResubmitting, kUan, kCommitResubmitting, nullptr, kill},

      {kResubmitting, kResubmitDone, kResubmitting, ResubmittingFirstOfTwo,
       drain},
      {kResubmitting, kResubmitDone, kPrepared, nullptr, release},
      {kCommitResubmitting, kResubmitDone, kCommitResubmitting,
       [](Rig& r) {
         ResubmittingFirstOfTwo(r);
         r.Decide(r.g, true);
       },
       drain},
      // Completed, the resubmission waits behind G(2).
      {kCommitResubmitting, kResubmitDone, kCommitPending,
       [](Rig& r) {
         r.Build(Rig::OneSite());
         r.Open(r.G(2), {2});
         r.Prepare(r.G(2), 50);
         r.Open(r.g, {1});
         r.Prepare(r.g, 100);
         r.QueueReader(1);
         r.Kill(r.g);
         r.Drain();
         r.Decide(r.g, true);
         r.Drain();
       },
       release},
      {kCommitResubmitting, kResubmitDone, kCommitted, nullptr, release},
      {kResubmitting, kResubmitFailed, kResubmitting, nullptr, kill_once},
      {kCommitResubmitting, kResubmitFailed, kCommitResubmitting, nullptr,
       kill_once},
      {kResubmitting, kRetryTimer, kResubmitting,
       [](Rig& r) {
         r.Reach(kResubmitting);
         r.Kill(r.g);
         r.Drain(sim::kMillisecond);
       },
       retry},
      {kCommitResubmitting, kRetryTimer, kCommitResubmitting,
       [](Rig& r) {
         r.Reach(kCommitResubmitting);
         r.Kill(r.g);
         r.Drain(sim::kMillisecond);
       },
       retry},

      // The decision wait (500 ms) ends: the subject probes the probe.
      {kPrepared, kInquiryTimer, kPrepared, nullptr,
       [](Rig& r) {
         r.Drain(600 * sim::kMillisecond);
         EXPECT_GE(r.Metrics().inquiries_sent, 1);
       }},
      {kResubmitting, kInquiryTimer, kResubmitting, nullptr,
       [](Rig& r) {
         r.Drain(600 * sim::kMillisecond);
         EXPECT_GE(r.Metrics().inquiries_sent, 1);
       }},
      {kActive, kOrphanTimer, kActive,
       [](Rig& r) {
         core::MdbsConfig config = Rig::OneSite();
         config.agent.orphan_abort_timeout = 50 * sim::kMillisecond;
         r.Build(config);
         r.Open(r.g, {1});
       },
       [](Rig& r) {
         r.Drain(100 * sim::kMillisecond);
         EXPECT_FALSE(r.LocalAlive());
       }},

      // The site crashes, then recovers.
      {kUnknown, kReenter, kResubmitting,
       [](Rig& r) {
         r.Reach(kPrepared);
         ASSERT_TRUE(r.mdbs()->CrashSite(0, -1).ok());
       },
       [](Rig& r) { ASSERT_TRUE(r.mdbs()->RecoverSite(0).ok()); }},
      {kUnknown, kReenter, kRolledBack,
       [](Rig& r) {
         r.Reach(kActive);
         ASSERT_TRUE(r.mdbs()->CrashSite(0, -1).ok());
       },
       [](Rig& r) { ASSERT_TRUE(r.mdbs()->RecoverSite(0).ok()); }},

      // A site joins; the handoff is forced past the drain deadline.
      {kActive, kExtract, kActive,
       [](Rig& r) {
         r.Build(Rig::Sharded());
         r.Open(r.g, {r.moving});
         r.StartAddSite();
       },
       [](Rig& r) {
         r.Handoff();
         EXPECT_EQ(r.Metrics().reconfig_forced_aborts, 1);
       }},
      {kPrepared, kExtract, kMigrated, PreparedOnMovingKey,
       [](Rig& r) {
         r.StartAddSite();
         r.Handoff();
       }},
      {kResubmitting, kExtract, kMigrated, ResubmittingOnMovingKey,
       [](Rig& r) {
         r.StartAddSite();
         r.Handoff();
       }},
      {kCommitPending, kExtract, kMigrated, CommitPendingOnMovingKey,
       [](Rig& r) {
         r.StartAddSite();
         r.Handoff();
       }},
      {kCommitResubmitting, kExtract, kMigrated,
       [](Rig& r) {
         ResubmittingOnMovingKey(r);
         r.Decide(r.g, true);
         r.Drain();
       },
       [](Rig& r) {
         r.StartAddSite();
         r.Handoff();
       }},
      // The new site 1 adopts the residue.
      {kUnknown, kAdopt, kResubmitting,
       [](Rig& r) {
         PreparedOnMovingKey(r);
         r.StartAddSite();
         r.UntilSiteJoins();
       },
       [](Rig& r) { r.UntilAdopted(); }},
      {kUnknown, kAdopt, kCommitResubmitting,
       [](Rig& r) {
         CommitPendingOnMovingKey(r);
         r.StartAddSite();
         r.UntilSiteJoins();
       },
       [](Rig& r) { r.UntilAdopted(); }},
  };
}

TEST(AgentStateMachine, EveryTransitionIsDrivenAndNoOtherIsAllowed) {
  using Triple = std::tuple<AgentState, AgentInput, AgentState>;
  const std::vector<Row> rows = Rows();
  std::set<Triple> listed;
  for (const Row& row : rows) {
    const std::string label = Name(row.from) + " --" + Name(row.input) +
                              "--> " + Name(row.to);
    SCOPED_TRACE(label);
    EXPECT_TRUE(listed.insert({row.from, row.input, row.to}).second)
        << "listed twice";
    EXPECT_TRUE(core::TransitionAllowed(core::kAgentTransitions, row.from,
                                        row.input, row.to))
        << "not in kAgentTransitions";
    Rig r;
    if (row.reach != nullptr) {
      row.reach(r);
    } else {
      r.Reach(row.from);
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(Name(r.State()), Name(row.from));
    if (row.apply != nullptr) {
      row.apply(r);
    } else {
      r.Apply(row.input);
    }
    EXPECT_EQ(Name(r.State()), Name(row.to));
    EXPECT_FALSE(r.budget_exhausted());
  }
  constexpr int kInputs = std::size(kInputNames);
  for (const core::AgentTransition& t : core::kAgentTransitions) {
    EXPECT_EQ(t.inputs >> kInputs, 0u) << "an edge names an unknown input";
    for (int i = 0; i < kInputs; ++i) {
      const auto input = static_cast<AgentInput>(i);
      if ((t.inputs & core::Inputs(input)) == 0) continue;
      EXPECT_TRUE(listed.count({t.from, input, t.to}))
          << "kAgentTransitions allows " << Name(t.from) << " --"
          << Name(input) << "--> " << Name(t.to) << ", which no row drives";
    }
  }
}

}  // namespace
}  // namespace hermes
