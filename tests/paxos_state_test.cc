// Paxos Commit's leader and resolver transition table, row by row: every
// (state, input, next state) triple that consensus::kPaxosTransitions
// allows is driven through three PaxosCommit sites on one network (F = 1,
// sites 0-2 are the acceptors) and checked with PaxosCommit::StateOf
// before and after the input. The subject is site 0, the transaction's
// leader and resolver. Every message goes out as the network carries it,
// except the acceptors' replies to site 0: they wait until the test
// delivers them, so each reply is one input. The rows listed here must be
// exactly the table's, so the table cannot allow a transition that no test
// reaches.

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "consensus/paxos.h"
#include "core/messages.h"
#include "history/recorder.h"
#include "net/network.h"
#include "sim/event_loop.h"

namespace hermes {
namespace {

using consensus::DecideMode;
using consensus::PaxosInput;
using consensus::PaxosState;
using core::Message;

const char* const kStateNames[] = {
    "unknown",   "leading", "awaiting-fast-path", "promising",
    "proposing", "committed", "aborted", "aborted-promising",
    "aborted-proposing"};
const char* const kInputNames[] = {
    "decide-commit", "decide-abort-final", "decide-abort-timeout",
    "begin",         "inquiry",            "escalate",
    "BEGIN-ACK",     "VOTED",              "PROMISE",
    "ACCEPTED",      "decide-timer",       "retry-timer",
    "forget"};

static_assert(std::size(kStateNames) ==
              static_cast<size_t>(PaxosState::kAbortedProposing) + 1);
static_assert(std::size(kInputNames) ==
              static_cast<size_t>(PaxosInput::kForget) + 1);

std::string Name(PaxosState s) { return kStateNames[static_cast<int>(s)]; }
std::string Name(PaxosInput i) { return kInputNames[static_cast<int>(i)]; }

// The leader's wait for the fast path and the resolver's first retry
// (paxos.cc).
constexpr sim::Duration kDecideTimeout = 60 * sim::kMillisecond;
constexpr sim::Duration kRetry = 50 * sim::kMillisecond;

// One federation per row. The subject `g` is led by site 0, and sites 1
// and 2 are its participants.
class Rig {
 public:
  Rig() {
    network_ = std::make_unique<net::Network>(net::NetworkConfig{}, &loop_);
    recorder_ = std::make_unique<history::Recorder>(&loop_);
    metrics_.resize(3);
    for (SiteId s = 0; s < 3; ++s) {
      consensus::PaxosConfig pc;
      pc.site = s;
      pc.num_sites = 3;
      pc.f = 1;
      nodes_.push_back(std::make_unique<consensus::PaxosCommit>(
          pc, &loop_, network_.get(), recorder_.get(),
          &metrics_[static_cast<size_t>(s)]));
    }
    for (SiteId s = 0; s < 3; ++s) {
      network_->RegisterEndpoint(s, [this, s](const net::Envelope& env) {
        const auto* msg = std::any_cast<Message>(&env.payload);
        if (msg == nullptr) return;
        if (s == 0 && IsReply(*msg)) {
          held_.emplace_back(env.from, *msg);
        } else if (core::IsPaxosMessage(*msg)) {
          nodes_[static_cast<size_t>(s)]->Handle(env.from, *msg);
        }
      });
    }
    loop_.set_max_events(100'000);
  }

  const TxnId g = TxnId::MakeGlobal(0, 1);

  PaxosState State() const { return nodes_[0]->StateOf(g); }
  bool budget_exhausted() const { return loop_.budget_exhausted(); }
  consensus::PaxosCommit& subject() { return *nodes_[0]; }

  // Delivers what the network carries within 5 ms; no timer is that short.
  void Flush() { RunFor(5 * sim::kMillisecond); }
  void RunFor(sim::Duration d) { loop_.RunUntil(loop_.Now() + d); }
  void FireDecideTimer() { loop_.RunUntil(decide_at_ + kDecideTimeout); }
  void FireRetryTimer() { RunFor(kRetry); }

  void Begin() {
    subject().BeginDecision(g, {1, 2});
    Flush();
  }
  void Vote(SiteId participant) {
    nodes_[static_cast<size_t>(participant)]->BroadcastVote(g, true, 0);
    Flush();
  }
  void Decide(DecideMode mode) {
    decide_at_ = loop_.Now();
    subject().Decide(g, mode, {1, 2}, /*csn=*/-1,
                     [this](const TxnId&, bool commit) { outcome = commit; });
    Flush();
  }
  void Escalate() {
    subject().Escalate(g, /*coordinator=*/0, /*attempt=*/0);
    Flush();
  }
  void Inquire() {
    answer = subject().AnswerInquiry(g, /*requester=*/1);
    Flush();
  }
  // Delivers the first `n` held replies of type T to the subject, in the
  // order they arrived.
  template <typename T>
  void Deliver(int n = 1) {
    for (auto it = held_.begin(); n > 0 && it != held_.end();) {
      if (!std::holds_alternative<T>(it->second)) {
        ++it;
        continue;
      }
      auto [from, msg] = std::move(*it);
      it = held_.erase(it);
      subject().Handle(from, msg);
      --n;
    }
    Flush();
  }

  // --- the standard way into each state -----------------------------------
  // The acceptors hold the membership and both READY votes at ballot 0;
  // their replies to site 0 arrive in this order: 3 BEGIN-ACKs, then 3
  // VOTEDs for site 1 and 3 for site 2.
  void Lead() {
    Begin();
    Vote(1);
    Vote(2);
  }
  // Every ballot-0 reply the fast path needs.
  void Tally() {
    Deliver<core::PaxosBeginAckMsg>(3);
    Deliver<core::PaxosVotedMsg>(6);
  }
  void Reach(PaxosState s) {
    switch (s) {
      case PaxosState::kUnknown:
        return;
      case PaxosState::kLeading:
        return Lead();
      case PaxosState::kAwaitingFastPath:
        Lead();
        return Decide(DecideMode::kCommit);
      case PaxosState::kPromising:
        Lead();
        return Escalate();
      case PaxosState::kProposing:
        Reach(PaxosState::kPromising);
        return Deliver<core::PaxosPromiseMsg>(2);
      case PaxosState::kCommitted:
        // By the round, which leaves a late reply of every kind held.
        Reach(PaxosState::kProposing);
        return Deliver<core::PaxosAcceptedMsg>(2);
      case PaxosState::kAborted:
        Lead();
        return Decide(DecideMode::kAbortFinal);
      case PaxosState::kAbortedPromising:
        Reach(PaxosState::kPromising);
        return Decide(DecideMode::kAbortFinal);
      case PaxosState::kAbortedProposing:
        Reach(PaxosState::kProposing);
        return Decide(DecideMode::kAbortFinal);
    }
  }

  // --- the standard way to apply each input -------------------------------
  void Apply(PaxosInput input) {
    switch (input) {
      case PaxosInput::kBegin:
        return Begin();
      case PaxosInput::kDecideCommit:
        return Decide(DecideMode::kCommit);
      case PaxosInput::kDecideAbortFinal:
        return Decide(DecideMode::kAbortFinal);
      case PaxosInput::kDecideAbortTimeout:
        return Decide(DecideMode::kAbortTimeout);
      case PaxosInput::kInquiry:
        return Inquire();
      case PaxosInput::kEscalate:
        return Escalate();
      case PaxosInput::kBeginAck:
        return Deliver<core::PaxosBeginAckMsg>();
      case PaxosInput::kVoted:
        return Deliver<core::PaxosVotedMsg>();
      case PaxosInput::kPromise:
        return Deliver<core::PaxosPromiseMsg>();
      case PaxosInput::kAccepted:
        return Deliver<core::PaxosAcceptedMsg>();
      case PaxosInput::kDecideTimer:
        return FireDecideTimer();
      case PaxosInput::kRetryTimer:
        return FireRetryTimer();
      case PaxosInput::kForget:
        return subject().Forget(g);
    }
  }

  std::optional<bool> outcome;  // what the coordinator's callback heard
  std::optional<bool> answer;   // the last AnswerInquiry

 private:
  static bool IsReply(const Message& msg) {
    return std::holds_alternative<core::PaxosBeginAckMsg>(msg) ||
           std::holds_alternative<core::PaxosVotedMsg>(msg) ||
           std::holds_alternative<core::PaxosPromiseMsg>(msg) ||
           std::holds_alternative<core::PaxosAcceptedMsg>(msg);
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<history::Recorder> recorder_;
  std::vector<core::Metrics> metrics_;
  std::vector<std::unique_ptr<consensus::PaxosCommit>> nodes_;
  std::vector<std::pair<SiteId, Message>> held_;
  sim::Time decide_at_ = 0;
};

// Row-specific ways in.
void Crashed(Rig& r, PaxosState s) {
  r.Reach(s);
  r.subject().Crash();
}
// The coordinator asked, and one ballot-0 reply is missing: the next
// BEGIN-ACK or VOTED closes the fast path.
void OneAckShort(Rig& r) {
  r.Deliver<core::PaxosVotedMsg>(6);
  r.Deliver<core::PaxosBeginAckMsg>(1);
}
void OneVoteShort(Rig& r) {
  r.Deliver<core::PaxosBeginAckMsg>(3);
  r.Deliver<core::PaxosVotedMsg>(4);
}
// A round started by missing votes, which the fast path can still close.
void TimedOut(Rig& r) {
  r.Lead();
  r.Decide(DecideMode::kAbortTimeout);
}
// A round started after the coordinator asked to commit, while the decide
// timer still runs: it fires before the round's first retry.
void EscalatedWhileAwaiting(Rig& r) {
  r.Reach(PaxosState::kAwaitingFastPath);
  r.RunFor(20 * sim::kMillisecond);
  r.Escalate();
}
// A round whose proposal is out retried at a higher ballot: the accepts
// of the first ballot are stale.
void Retried(Rig& r) {
  r.Reach(PaxosState::kProposing);
  r.FireRetryTimer();
}

struct Row {
  PaxosState from;
  PaxosInput input;
  PaxosState to;
  std::function<void(Rig&)> reach;  // null: Rig::Reach(from)
  std::function<void(Rig&)> apply;  // null: Rig::Apply(input)
};

std::vector<Row> Rows() {
  using enum PaxosState;
  using enum PaxosInput;
  using core::PaxosPromiseMsg;
  const auto promise_quorum = [](Rig& r) {
    r.Deliver<PaxosPromiseMsg>(2);
  };
  return {
      // Replies that outlive the crash of their site.
      {kUnknown, kBeginAck, kUnknown,
       [](Rig& r) { Crashed(r, kLeading); }},
      {kUnknown, kVoted, kUnknown, [](Rig& r) { Crashed(r, kLeading); }},
      {kUnknown, kPromise, kUnknown,
       [](Rig& r) { Crashed(r, kPromising); }},
      {kUnknown, kAccepted, kUnknown,
       [](Rig& r) { Crashed(r, kProposing); }},
      {kUnknown, kBegin, kLeading},
      {kUnknown, kDecideAbortFinal, kAborted},
      {kUnknown, kInquiry, kPromising},
      {kUnknown, kEscalate, kPromising},

      {kLeading, kBeginAck, kLeading},
      {kLeading, kVoted, kLeading},
      {kLeading, kDecideCommit, kAwaitingFastPath},
      {kLeading, kDecideCommit, kCommitted,
       [](Rig& r) {
         r.Lead();
         r.Tally();
       }},
      {kLeading, kDecideAbortTimeout, kPromising},
      {kLeading, kEscalate, kPromising},
      {kLeading, kDecideAbortFinal, kAborted},

      {kAwaitingFastPath, kBeginAck, kAwaitingFastPath},
      {kAwaitingFastPath, kVoted, kAwaitingFastPath},
      {kAwaitingFastPath, kBeginAck, kCommitted,
       [](Rig& r) {
         r.Reach(kAwaitingFastPath);
         OneAckShort(r);
       }},
      {kAwaitingFastPath, kVoted, kCommitted,
       [](Rig& r) {
         r.Reach(kAwaitingFastPath);
         OneVoteShort(r);
       }},
      {kAwaitingFastPath, kEscalate, kPromising},
      {kAwaitingFastPath, kDecideTimer, kPromising},

      {kPromising, kBeginAck, kPromising},
      {kPromising, kVoted, kPromising},
      {kPromising, kPromise, kPromising},
      {kPromising, kAccepted, kPromising, Retried},
      {kPromising, kDecideCommit, kPromising},
      {kPromising, kDecideAbortTimeout, kPromising},
      {kPromising, kInquiry, kPromising},
      {kPromising, kEscalate, kPromising},
      {kPromising, kDecideTimer, kPromising, EscalatedWhileAwaiting},
      {kPromising, kRetryTimer, kPromising},
      {kPromising, kBeginAck, kCommitted,
       [](Rig& r) {
         TimedOut(r);
         OneAckShort(r);
       }},
      {kPromising, kVoted, kCommitted,
       [](Rig& r) {
         TimedOut(r);
         OneVoteShort(r);
       }},
      {kPromising, kDecideCommit, kCommitted,
       [](Rig& r) {
         r.Lead();
         r.Tally();
         r.Escalate();
       }},
      {kPromising, kPromise, kProposing,
       [](Rig& r) {
         r.Reach(kPromising);
         r.Deliver<PaxosPromiseMsg>(1);
       }},
      {kPromising, kDecideAbortFinal, kAbortedPromising},

      {kProposing, kBeginAck, kProposing},
      {kProposing, kVoted, kProposing},
      {kProposing, kPromise, kProposing},
      {kProposing, kAccepted, kProposing},
      {kProposing, kDecideCommit, kProposing},
      {kProposing, kDecideAbortTimeout, kProposing},
      {kProposing, kInquiry, kProposing},
      {kProposing, kEscalate, kProposing},
      {kProposing, kDecideTimer, kProposing,
       [=](Rig& r) {
         EscalatedWhileAwaiting(r);
         promise_quorum(r);
       }},
      {kProposing, kBeginAck, kCommitted,
       [=](Rig& r) {
         TimedOut(r);
         promise_quorum(r);
         OneAckShort(r);
       }},
      {kProposing, kVoted, kCommitted,
       [=](Rig& r) {
         TimedOut(r);
         promise_quorum(r);
         OneVoteShort(r);
       }},
      {kProposing, kDecideCommit, kCommitted,
       [=](Rig& r) {
         r.Lead();
         r.Tally();
         r.Escalate();
         promise_quorum(r);
       }},
      {kProposing, kRetryTimer, kPromising},
      {kProposing, kAccepted, kCommitted,
       [](Rig& r) {
         r.Reach(kProposing);
         r.Deliver<core::PaxosAcceptedMsg>(1);
       }},
      // No membership was accepted anywhere: the empty abort marker.
      {kProposing, kAccepted, kAborted,
       [=](Rig& r) {
         r.Escalate();
         promise_quorum(r);
         r.Deliver<core::PaxosAcceptedMsg>(1);
       }},
      {kProposing, kDecideAbortFinal, kAbortedProposing},

      {kCommitted, kBeginAck, kCommitted},
      {kCommitted, kVoted, kCommitted},
      {kCommitted, kPromise, kCommitted},
      {kCommitted, kAccepted, kCommitted},
      {kCommitted, kDecideCommit, kCommitted},
      {kCommitted, kDecideAbortFinal, kCommitted},
      {kCommitted, kDecideAbortTimeout, kCommitted},
      {kCommitted, kInquiry, kCommitted},
      {kCommitted, kEscalate, kCommitted},
      {kCommitted, kForget, kCommitted},

      {kAborted, kBeginAck, kAborted},
      {kAborted, kVoted, kAborted},
      {kAborted, kPromise, kAborted,
       [](Rig& r) {
         r.Reach(kAbortedProposing);
         r.FireRetryTimer();
       }},
      {kAborted, kAccepted, kAborted,
       [](Rig& r) {
         r.Reach(kAbortedProposing);
         r.FireRetryTimer();
       }},
      {kAborted, kDecideCommit, kAborted},
      {kAborted, kDecideAbortFinal, kAborted},
      {kAborted, kDecideAbortTimeout, kAborted},
      {kAborted, kInquiry, kAborted},
      {kAborted, kEscalate, kAborted},

      {kAbortedPromising, kBeginAck, kAbortedPromising},
      {kAbortedPromising, kVoted, kAbortedPromising},
      {kAbortedPromising, kPromise, kAbortedPromising},
      {kAbortedPromising, kAccepted, kAbortedPromising,
       [](Rig& r) {
         Retried(r);
         r.Decide(DecideMode::kAbortFinal);
       }},
      {kAbortedPromising, kInquiry, kAbortedPromising},
      {kAbortedPromising, kEscalate, kAbortedPromising},
      {kAbortedPromising, kPromise, kAbortedProposing,
       [](Rig& r) {
         r.Reach(kAbortedPromising);
         r.Deliver<PaxosPromiseMsg>(1);
       }},
      {kAbortedPromising, kRetryTimer, kAborted},

      {kAbortedProposing, kBeginAck, kAbortedProposing},
      {kAbortedProposing, kVoted, kAbortedProposing},
      {kAbortedProposing, kPromise, kAbortedProposing},
      // The accept quorum of the overtaken round decides nothing.
      {kAbortedProposing, kAccepted, kAbortedProposing,
       [](Rig& r) {
         r.Reach(kAbortedProposing);
         r.Deliver<core::PaxosAcceptedMsg>(1);
       }},
      {kAbortedProposing, kInquiry, kAbortedProposing},
      {kAbortedProposing, kEscalate, kAbortedProposing},
      {kAbortedProposing, kRetryTimer, kAborted},
  };
}

TEST(PaxosStateMachine, EveryTransitionIsDrivenAndNoOtherIsAllowed) {
  using Triple = std::tuple<PaxosState, PaxosInput, PaxosState>;
  const std::vector<Row> rows = Rows();
  std::set<Triple> listed;
  for (const Row& row : rows) {
    const std::string label = Name(row.from) + " --" + Name(row.input) +
                              "--> " + Name(row.to);
    SCOPED_TRACE(label);
    EXPECT_TRUE(listed.insert({row.from, row.input, row.to}).second)
        << "listed twice";
    EXPECT_TRUE(core::TransitionAllowed(consensus::kPaxosTransitions,
                                        row.from, row.input, row.to))
        << "not in kPaxosTransitions";
    Rig r;
    if (row.reach != nullptr) {
      row.reach(r);
    } else {
      r.Reach(row.from);
    }
    ASSERT_EQ(Name(r.State()), Name(row.from));
    r.outcome.reset();
    if (row.apply != nullptr) {
      row.apply(r);
    } else {
      r.Apply(row.input);
    }
    EXPECT_EQ(Name(r.State()), Name(row.to));
    // A Decide or an inquiry is answered exactly when the outcome is known
    // here, and with that outcome.
    const std::optional<bool> known =
        row.to >= PaxosState::kCommitted
            ? std::optional<bool>(row.to == PaxosState::kCommitted)
            : std::nullopt;
    if (row.input <= PaxosInput::kDecideAbortTimeout) {
      EXPECT_EQ(r.outcome, known);
    }
    if (row.input == PaxosInput::kInquiry) {
      EXPECT_EQ(r.answer, known);
    }
    EXPECT_FALSE(r.budget_exhausted());
  }
  constexpr int kInputs = std::size(kInputNames);
  for (const consensus::PaxosTransition& t : consensus::kPaxosTransitions) {
    EXPECT_EQ(t.inputs >> kInputs, 0u) << "an edge names an unknown input";
    for (int i = 0; i < kInputs; ++i) {
      const auto input = static_cast<PaxosInput>(i);
      if ((t.inputs & core::Inputs(input)) == 0) continue;
      EXPECT_TRUE(listed.count({t.from, input, t.to}))
          << "kPaxosTransitions allows " << Name(t.from) << " --"
          << Name(input) << "--> " << Name(t.to) << ", which no row drives";
    }
  }
}

}  // namespace
}  // namespace hermes
