// The Coordinator's transition table, row by row: every (state, input, next
// state) triple that core::kCoordTransitions allows is driven through
// core::Mdbs and checked with Coordinator::StateOf before and after the
// input. Probe endpoints play the participant agents, hearing every
// message and answering none: the test delivers their replies. A Paxos
// Commit federation with real agents holds a transaction in the deciding
// state, test hooks hold it before a step and in admission, and a decision
// protocol that answers when the test says so holds the aborts 2PC and
// Paxos Commit seal at once. The rows listed here must be exactly the
// table's, so the table cannot allow a transition that no test reaches.

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "consensus/decision.h"
#include "core/coordinator.h"
#include "core/mdbs.h"

namespace hermes {
namespace {

using core::CoordInput;
using core::CoordState;
using core::Message;

const char* const kStateNames[] = {
    "unknown",   "executing", "admitting",  "preparing",   "deciding",
    "one-phase", "committing", "aborting", "redelivering"};
const char* const kInputNames[] = {
    "submit",  "start",   "step-granted",  "DML-RESP",    "admitted",
    "VOTE",    "decided", "ACK",           "INQUIRY",     "EPOCH-REFUSED",
    "retry-timer", "crash", "recover"};

static_assert(std::size(kStateNames) ==
              static_cast<size_t>(CoordState::kRedelivering) + 1);
static_assert(std::size(kInputNames) ==
              static_cast<size_t>(CoordInput::kRecover) + 1);

std::string Name(CoordState s) { return kStateNames[static_cast<int>(s)]; }
std::string Name(CoordInput i) { return kInputNames[static_cast<int>(i)]; }

// A decision protocol that holds every Decide until the test releases it,
// so the deciding state is observable where 2PC decides in an instant.
class HeldDecision : public consensus::DecisionProtocol {
 public:
  void BeginDecision(const TxnId&, const std::vector<SiteId>&) override {}
  void Decide(const TxnId&, consensus::DecideMode,
              const std::vector<SiteId>&, int64_t, DecidedFn done) override {
    done_ = std::move(done);
  }
  std::optional<bool> AnswerInquiry(const TxnId&, SiteId) override {
    return false;
  }
  void Forget(const TxnId&) override {}
  void Crash() override {}
  std::vector<InFlight> RecoverInFlight() override { return {}; }
  bool PresumesAbortOnCrash() const override { return true; }

  void Release(const TxnId& gtid, bool commit) { done_(gtid, commit); }

 private:
  DecidedFn done_;
};

// One federation per row. The row's subject is `g`, the first transaction
// coordinated at site 0; its steps go to the probes kP1 and kP2 (or, in
// the Paxos Commit federation with agents, to sites 1 and 2).
class Rig {
 public:
  static constexpr SiteId kP1 = 7;
  static constexpr SiteId kP2 = 8;

  enum class Kind { k2pc, kShortCommit, kPaxos, kPaxosAgents };

  // Every rig gives up on a step or PREPARE at the second timeout: the
  // first, 25 ms in, retransmits, and the second, 75 ms in, aborts.
  void Build(Kind kind, core::CoordinatorHooks hooks = {}) {
    core::MdbsConfig config;
    config.num_sites = 1;
    config.coordinator_retry.max_attempts = 1;
    config.agent.short_commit = kind == Kind::kShortCommit;
    if (kind == Kind::kPaxos || kind == Kind::kPaxosAgents) {
      config.num_sites = 3;
      config.protocol = consensus::ProtocolKind::kPaxosCommit;
      config.paxos_f = 1;
    }
    agents_ = kind == Kind::kPaxosAgents;
    mdbs_ = std::make_unique<core::Mdbs>(config, &loop_);
    table_ = *mdbs_->CreateTableEverywhere("t");
    for (SiteId s = 1; s < config.num_sites; ++s) {
      ASSERT_TRUE(
          mdbs_->LoadRow(s, table_, 1, db::Row{{"v", db::Value(int64_t{0})}})
              .ok());
    }
    for (SiteId p : {kP1, kP2}) {
      mdbs_->network().RegisterEndpoint(p, [](const net::Envelope&) {});
    }
    if (hooks.before_step || hooks.before_prepare) {
      mdbs_->SetCoordinatorHooks(hooks);
    }
    loop_.set_max_events(1'000'000);
  }
  // Holds each step for Grant(), and the commit in admission for Admit().
  void BuildWithStepHook() {
    core::CoordinatorHooks hooks;
    hooks.before_step = [this](const TxnId&, const core::GlobalTxnSpec::Step&,
                               std::function<void(const Status&)> done) {
      step_done_ = std::move(done);
    };
    Build(Kind::k2pc, hooks);
  }
  void BuildWithAdmission() {
    core::CoordinatorHooks hooks;
    hooks.before_prepare = [this](const TxnId&, const std::vector<SiteId>&,
                                  std::function<void()> done) {
      admit_done_ = std::move(done);
    };
    Build(Kind::k2pc, hooks);
  }
  void Grant(const Status& status) { step_done_(status); }
  void Admit() { admit_done_(); }
  // Installs a decision protocol that holds the outcome (HeldDecision).
  void HoldDecisions() {
    mdbs_->coordinator(0)->set_decision_protocol(&held_);
  }
  void ReleaseDecision(bool commit) { held_.Release(g, commit); }

  CoordState State() const {
    return mdbs_->coordinator(0)->StateOf(g);
  }
  core::Metrics Metrics() const { return mdbs_->metrics(); }
  bool budget_exhausted() const { return loop_.budget_exhausted(); }

  // Submits the subject with `steps` steps (one per participant, at most
  // two) and leaves its start event pending.
  void Submit(int steps = 2) {
    core::GlobalTxnSpec spec;
    for (int i = 0; i < steps; ++i) {
      const SiteId site = agents_ ? static_cast<SiteId>(i + 1)
                                  : (i == 0 ? kP1 : kP2);
      spec.steps.push_back(
          {site, db::MakeAddKey(table_, 1, "v", int64_t{1})});
    }
    ASSERT_EQ(mdbs_->Submit(std::move(spec), nullptr, /*coordinator=*/0), g);
  }
  // Runs the events of the current instant.
  void Settle() { loop_.RunUntil(loop_.Now()); }
  void Drain(sim::Duration d) { loop_.RunUntil(loop_.Now() + d); }
  // Runs events one by one until the subject leaves its current state.
  void StepOut() {
    const CoordState from = State();
    while (State() == from) ASSERT_TRUE(loop_.Step());
  }

  // Delivers `msg` to the coordinator at once, from `from`.
  void Handle(SiteId from, Message msg) {
    mdbs_->coordinator(0)->Handle(from, msg);
  }
  void Respond(int32_t index, Status status = Status::Ok()) {
    Handle(index == 0 ? kP1 : kP2, core::DmlResponseMsg{g, index, status});
  }
  void Vote(SiteId from, bool ready, bool read_only = false) {
    Handle(from, core::VoteMsg{g, ready, Status::Ok(), read_only});
  }
  void Ack(SiteId from) { Handle(from, core::AckMsg{g, true}); }
  void Crash() { ASSERT_TRUE(mdbs_->CrashSite(0, -1).ok()); }
  void Recover() { ASSERT_TRUE(mdbs_->RecoverSite(0).ok()); }

  // --- the standard way into each state ----------------------------------
  void Reach(CoordState s) {
    switch (s) {
      case CoordState::kUnknown:
        Build(Kind::k2pc);
        return;
      case CoordState::kExecuting:
        Build(Kind::k2pc);
        Submit();
        Settle();
        return;
      case CoordState::kAdmitting:
        BuildWithAdmission();
        Submit();
        Settle();
        Respond(0);
        Respond(1);
        return;
      case CoordState::kPreparing:
        Reach(CoordState::kExecuting);
        Respond(0);
        Respond(1);
        return;
      case CoordState::kDeciding:
        // The READY votes are in; the acceptors' round is not.
        Build(Kind::kPaxosAgents);
        Submit();
        while (State() != CoordState::kDeciding) ASSERT_TRUE(loop_.Step());
        return;
      case CoordState::kOnePhase:
        Build(Kind::kShortCommit);
        Submit(1);
        Settle();
        Respond(0);
        return;
      case CoordState::kCommitting:
        Reach(CoordState::kPreparing);
        Vote(kP1, true);
        Vote(kP2, true);
        return;
      case CoordState::kAborting:
        Reach(CoordState::kPreparing);
        Vote(kP1, false);
        return;
      case CoordState::kRedelivering:
        Reach(CoordState::kCommitting);
        Crash();
        Recover();
        return;
    }
  }

  // --- the standard way to apply each input -------------------------------
  void Apply(CoordInput input) {
    switch (input) {
      case CoordInput::kSubmit:
        return Submit();
      case CoordInput::kStart:
        return Settle();
      case CoordInput::kDmlResponse:
        return Respond(0);
      case CoordInput::kVote:
        return Vote(kP1, true);
      case CoordInput::kAck:
        return Ack(kP1);
      case CoordInput::kInquiry:
        return Handle(kP1, core::InquiryMsg{g});
      case CoordInput::kEpochRefused:
        return Handle(kP1, core::EpochRefusedMsg{g});
      case CoordInput::kRetryTimer:
        // The first timeout: a retransmission.
        return Drain(30 * sim::kMillisecond);
      case CoordInput::kCrash:
        return Crash();
      case CoordInput::kRecover:
        return Recover();
      default:
        FAIL() << "no standard way to apply " << Name(input);
    }
  }

  // The first transaction a fresh coordinator at site 0 submits.
  TxnId g = TxnId::MakeGlobal(0, 0);

 private:
  sim::EventLoop loop_;
  std::unique_ptr<core::Mdbs> mdbs_;
  db::TableId table_ = -1;
  bool agents_ = false;
  std::function<void(const Status&)> step_done_;
  std::function<void()> admit_done_;
  HeldDecision held_;
};

// Preparing in a Paxos Commit federation whose participants are probes.
void PaxosPreparing(Rig& r) {
  r.Build(Rig::Kind::kPaxos);
  r.Submit();
  r.Settle();
  r.Respond(0);
  r.Respond(1);
}

struct Row {
  CoordState from;
  CoordInput input;
  CoordState to;
  // Brings the subject into `from`; null: Rig::Reach(from).
  void (*reach)(Rig&) = nullptr;
  // Applies `input`; null: Rig::Apply(input).
  void (*apply)(Rig&) = nullptr;
};

std::vector<Row> Rows() {
  using enum CoordState;
  using enum CoordInput;
  const auto step_out = [](Rig& r) { r.StepOut(); };
  // The second timeout gives up.
  const auto exhaust = [](Rig& r) { r.Drain(100 * sim::kMillisecond); };
  // An epoch refusal re-drives in a zero-delay retry event.
  const auto refused_retry = [](Rig& r) {
    r.Handle(Rig::kP1, core::EpochRefusedMsg{r.g});
    r.Settle();
  };
  const auto ack_p2 = [](Rig& r) { r.Ack(Rig::kP2); };
  const auto vote_p2 = [](Rig& r) { r.Vote(Rig::kP2, true); };
  return {
      // The subject is submitted and starts.
      {kUnknown, kSubmit, kExecuting},
      {kExecuting, kStart, kExecuting,
       [](Rig& r) {
         r.Build(Rig::Kind::k2pc);
         r.Submit();
       }},
      {kExecuting, kStart, kUnknown,
       [](Rig& r) {
         r.Build(Rig::Kind::k2pc);
         r.Submit(0);
       }},
      // The site crashed between the submission and the start.
      {kUnknown, kStart, kUnknown,
       [](Rig& r) {
         r.Build(Rig::Kind::k2pc);
         r.Submit();
         r.Crash();
       }},

      // A before_step hook grants or refuses a step.
      {kExecuting, kStepGranted, kExecuting,
       [](Rig& r) {
         r.BuildWithStepHook();
         r.Submit();
         r.Settle();
       },
       [](Rig& r) { r.Grant(Status::Ok()); }},
      {kExecuting, kStepGranted, kAborting,
       [](Rig& r) {
         r.BuildWithStepHook();
         r.Submit();
         r.Settle();
         r.Grant(Status::Ok());
         r.Respond(0);
       },
       [](Rig& r) { r.Grant(Status::Rejected("no lock")); }},
      // Refused before any participant began.
      {kExecuting, kStepGranted, kUnknown,
       [](Rig& r) {
         r.BuildWithStepHook();
         r.Submit();
         r.Settle();
       },
       [](Rig& r) { r.Grant(Status::Rejected("no lock")); }},

      {kUnknown, kDmlResponse, kUnknown},
      {kExecuting, kDmlResponse, kExecuting},
      {kExecuting, kDmlResponse, kAdmitting,
       [](Rig& r) {
         r.BuildWithAdmission();
         r.Submit();
         r.Settle();
         r.Respond(0);
       },
       [](Rig& r) { r.Respond(1); }},
      {kExecuting, kDmlResponse, kPreparing,
       [](Rig& r) {
         r.Reach(kExecuting);
         r.Respond(0);
       },
       [](Rig& r) { r.Respond(1); }},
      {kExecuting, kDmlResponse, kOnePhase,
       [](Rig& r) {
         r.Build(Rig::Kind::kShortCommit);
         r.Submit(1);
         r.Settle();
       }},
      {kExecuting, kDmlResponse, kAborting, nullptr,
       [](Rig& r) { r.Respond(0, Status::Rejected("constraint")); }},
      {kAdmitting, kDmlResponse, kAdmitting},
      {kPreparing, kDmlResponse, kPreparing},
      {kDeciding, kDmlResponse, kDeciding},
      {kOnePhase, kDmlResponse, kOnePhase},
      {kCommitting, kDmlResponse, kCommitting},
      {kAborting, kDmlResponse, kAborting},

      {kAdmitting, kAdmitted, kPreparing, nullptr,
       [](Rig& r) { r.Admit(); }},

      // READY from kP1 while kP2's vote is pending, or a duplicate.
      {kUnknown, kVote, kUnknown},
      {kPreparing, kVote, kPreparing},
      {kDeciding, kVote, kDeciding},
      {kCommitting, kVote, kCommitting},
      {kAborting, kVote, kAborting},
      {kPreparing, kVote, kAborting, nullptr,
       [](Rig& r) { r.Vote(Rig::kP1, false); }},
      // 2PC forces the commit decision at the last READY.
      {kPreparing, kVote, kCommitting,
       [](Rig& r) {
         r.Reach(kPreparing);
         r.Vote(Rig::kP1, true);
       },
       vote_p2},
      // Paxos Commit waits for the acceptors.
      {kPreparing, kVote, kDeciding,
       [](Rig& r) {
         PaxosPreparing(r);
         r.Vote(Rig::kP1, true);
       },
       vote_p2},
      // Both participants read-only: nothing to decide or deliver.
      {kPreparing, kVote, kUnknown,
       [](Rig& r) {
         r.Reach(kPreparing);
         r.Vote(Rig::kP1, true, /*read_only=*/true);
       },
       [](Rig& r) { r.Vote(Rig::kP2, true, /*read_only=*/true); }},

      // The acceptors choose the commit.
      {kDeciding, kDecided, kCommitting, nullptr, step_out},
      // No participant's READY reached the acceptors: the leader's round
      // seals an abort.
      {kDeciding, kDecided, kAborting,
       [](Rig& r) {
         PaxosPreparing(r);
         r.Vote(Rig::kP1, true);
         r.Vote(Rig::kP2, true);
       },
       step_out},
      // A transaction without steps aborts with no participant to tell.
      {kDeciding, kDecided, kUnknown,
       [](Rig& r) {
         r.Build(Rig::Kind::k2pc);
         r.HoldDecisions();
         r.Submit(0);
         r.Settle();
       },
       [](Rig& r) { r.ReleaseDecision(false); }},
      // The same aborts with a protocol that answers later.
      {kExecuting, kStart, kDeciding,
       [](Rig& r) {
         r.Build(Rig::Kind::k2pc);
         r.HoldDecisions();
         r.Submit(0);
       }},
      {kExecuting, kStepGranted, kDeciding,
       [](Rig& r) {
         r.BuildWithStepHook();
         r.HoldDecisions();
         r.Submit();
         r.Settle();
       },
       [](Rig& r) { r.Grant(Status::Rejected("no lock")); }},
      {kExecuting, kDmlResponse, kDeciding,
       [](Rig& r) {
         r.Reach(kExecuting);
         r.HoldDecisions();
       },
       [](Rig& r) { r.Respond(0, Status::Rejected("constraint")); }},
      {kExecuting, kRetryTimer, kDeciding,
       [](Rig& r) {
         r.Reach(kExecuting);
         r.HoldDecisions();
       },
       exhaust},

      // A Paxos Commit resolver at this site delivered the decision first.
      {kUnknown, kAck, kUnknown},
      {kPreparing, kAck, kPreparing},
      {kDeciding, kAck, kDeciding},
      {kCommitting, kAck, kCommitting},
      {kAborting, kAck, kAborting},
      {kRedelivering, kAck, kRedelivering},
      {kOnePhase, kAck, kUnknown},
      {kCommitting, kAck, kUnknown,
       [](Rig& r) {
         r.Reach(kCommitting);
         r.Ack(Rig::kP1);
       },
       ack_p2},
      {kAborting, kAck, kUnknown,
       [](Rig& r) {
         r.Reach(kAborting);
         r.Ack(Rig::kP1);
       },
       ack_p2},
      {kRedelivering, kAck, kUnknown,
       [](Rig& r) {
         r.Reach(kRedelivering);
         r.Ack(Rig::kP1);
       },
       ack_p2},

      {kUnknown, kInquiry, kUnknown},
      {kPreparing, kInquiry, kPreparing},
      {kDeciding, kInquiry, kDeciding},
      {kCommitting, kInquiry, kCommitting},
      {kAborting, kInquiry, kAborting},
      {kRedelivering, kInquiry, kRedelivering},

      {kUnknown, kEpochRefused, kUnknown},
      {kExecuting, kEpochRefused, kExecuting},
      {kPreparing, kEpochRefused, kPreparing},
      {kDeciding, kEpochRefused, kDeciding},
      {kOnePhase, kEpochRefused, kOnePhase},
      {kCommitting, kEpochRefused, kCommitting},
      {kAborting, kEpochRefused, kAborting},
      {kRedelivering, kEpochRefused, kRedelivering},

      // An epoch refusal's retry event runs after the last ACK.
      {kUnknown, kRetryTimer, kUnknown,
       [](Rig& r) {
         r.Reach(kCommitting);
         r.Ack(Rig::kP1);
         r.Handle(Rig::kP2, core::EpochRefusedMsg{r.g});
         r.Ack(Rig::kP2);
       },
       [](Rig& r) { r.Settle(); }},
      {kExecuting, kRetryTimer, kExecuting},
      {kPreparing, kRetryTimer, kPreparing},
      {kDeciding, kRetryTimer, kDeciding, nullptr, refused_retry},
      {kOnePhase, kRetryTimer, kOnePhase},
      {kCommitting, kRetryTimer, kCommitting},
      {kAborting, kRetryTimer, kAborting},
      {kRedelivering, kRetryTimer, kRedelivering},
      {kExecuting, kRetryTimer, kAborting, nullptr, exhaust},
      {kPreparing, kRetryTimer, kAborting, nullptr, exhaust},
      // Paxos Commit asks the acceptors to seal the timeout abort.
      {kPreparing, kRetryTimer, kDeciding, PaxosPreparing, step_out},

      {kExecuting, kCrash, kUnknown},
      {kAdmitting, kCrash, kUnknown},
      {kPreparing, kCrash, kUnknown},
      {kDeciding, kCrash, kUnknown},
      {kOnePhase, kCrash, kUnknown},
      {kCommitting, kCrash, kUnknown},
      {kAborting, kCrash, kUnknown},
      {kRedelivering, kCrash, kUnknown},
      {kUnknown, kRecover, kRedelivering,
       [](Rig& r) {
         r.Reach(kCommitting);
         r.Crash();
       }},
  };
}

TEST(CoordinatorStateMachine, EveryTransitionIsDrivenAndNoOtherIsAllowed) {
  using Triple = std::tuple<CoordState, CoordInput, CoordState>;
  const std::vector<Row> rows = Rows();
  std::set<Triple> listed;
  for (const Row& row : rows) {
    const std::string label = Name(row.from) + " --" + Name(row.input) +
                              "--> " + Name(row.to);
    SCOPED_TRACE(label);
    EXPECT_TRUE(listed.insert({row.from, row.input, row.to}).second)
        << "listed twice";
    EXPECT_TRUE(core::TransitionAllowed(core::kCoordTransitions, row.from,
                                        row.input, row.to))
        << "not in kCoordTransitions";
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
  for (const core::CoordTransition& t : core::kCoordTransitions) {
    EXPECT_EQ(t.inputs >> kInputs, 0u) << "an edge names an unknown input";
    for (int i = 0; i < kInputs; ++i) {
      const auto input = static_cast<CoordInput>(i);
      if ((t.inputs & core::Inputs(input)) == 0) continue;
      EXPECT_TRUE(listed.count({t.from, input, t.to}))
          << "kCoordTransitions allows " << Name(t.from) << " --"
          << Name(input) << "--> " << Name(t.to) << ", which no row drives";
    }
  }
}

}  // namespace
}  // namespace hermes
