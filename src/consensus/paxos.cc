#include "consensus/paxos.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/backoff.h"

namespace hermes::consensus {

namespace {

// Leader-side wait for the ballot-0 fast path before falling back to a
// resolution round.
constexpr sim::Duration kDecideTimeout = 60 * sim::kMillisecond;
// Resolver round retry backoff (doubled per attempt, capped).
constexpr sim::Duration kResolveRetryInitial = 50 * sim::kMillisecond;
constexpr sim::Duration kResolveRetryMax = 400 * sim::kMillisecond;

using enum PaxosState;
using enum PaxosInput;

bool Decided(PaxosState s) { return s >= kCommitted; }
// A resolver round of this site is out (decided or not).
bool RoundOpen(PaxosState s) {
  return s == kPromising || s == kProposing || s >= kAbortedPromising;
}

}  // namespace

PaxosCommit::PaxosCommit(const PaxosConfig& config, sim::EventLoop* loop,
                         net::Network* network, history::Recorder* recorder,
                         core::Metrics* metrics, trace::Tracer* tracer)
    : config_(config),
      loop_(loop),
      network_(network),
      recorder_(recorder),
      metrics_(metrics),
      tracer_(tracer) {
  assert(config.f >= 0 && 2 * config.f + 1 <= config.num_sites);
}

// Nothing may fire into a destroyed site: drop what a crash drops.
PaxosCommit::~PaxosCommit() { Crash(); }

PaxosState PaxosCommit::StateOf(const TxnId& gtid) const {
  auto it = txns_.find(gtid);
  return it == txns_.end() ? kUnknown : it->second.state;
}

template <typename Fn>
void PaxosCommit::Apply(const TxnId& gtid, PaxosInput input,
                        Fn&& transition) {
  // The local calls may start a record; replies, timers and Forget only
  // find one.
  const bool local = input <= kEscalate;
  auto it = local ? txns_.try_emplace(gtid).first : txns_.find(gtid);
  ProposerTxn* t = it == txns_.end() ? nullptr : &it->second;
  const PaxosState from = t == nullptr ? kUnknown : t->state;
  if (t != nullptr && from == kUnknown) t->open = std::make_unique<Open>();
  assert(core::TransitionAllowed(kPaxosTransitions, from, input));
  transition(t, from);
  assert(core::TransitionAllowed(kPaxosTransitions, from, input,
                                 StateOf(gtid)));
}

void PaxosCommit::ForceLog(AcceptorLogRecord record) {
  log_.ForceAppend(std::move(record));
  ++metrics_->paxos_forced_writes;
}

void PaxosCommit::CancelTimer(sim::EventId& id) {
  if (id != sim::kInvalidEvent) {
    loop_->Cancel(id);
    id = sim::kInvalidEvent;
  }
}

void PaxosCommit::TraceEvent(trace::EventKind kind, const TxnId& gtid,
                             SiteId peer, int64_t value, bool ok) {
  if (tracer_ == nullptr || !tracer_->Admit(gtid)) return;
  trace::Event e;
  e.kind = kind;
  e.txn = gtid;
  e.site = config_.site;
  e.peer = peer;
  e.value = value;
  e.ok = ok;
  tracer_->Record(std::move(e));
}

void PaxosCommit::SendToAcceptors(const core::Message& msg) {
  for (SiteId a = 0; a < static_cast<SiteId>(num_acceptors()); ++a) {
    network_->Send(config_.site, a, msg);
  }
}

// --- leader role -------------------------------------------------------------

void PaxosCommit::BeginDecision(const TxnId& gtid,
                                const std::vector<SiteId>& participants) {
  Apply(gtid, kBegin, [&](ProposerTxn* t, PaxosState) {
    t->state = kLeading;
    t->open->participants = participants;
    TraceEvent(trace::EventKind::kPaxosBegin, gtid, kInvalidSite,
               static_cast<int64_t>(participants.size()), true);
    core::PaxosBeginMsg msg;
    msg.gtid = gtid;
    msg.leader = config_.site;
    msg.participants = participants;
    SendToAcceptors(core::Message{msg});
  });
}

void PaxosCommit::Decide(const TxnId& gtid, DecideMode mode,
                         const std::vector<SiteId>& /*participants*/,
                         int64_t /*csn*/, DecidedFn done) {
  // Paxos Commit does not persist per-decision metadata; CSN certification
  // is 2PC-only (MdbsConfig::Validate refuses it under Paxos Commit) so the
  // csn is always -1 here. The participants are those BeginDecision
  // announced.
  PaxosInput input = kDecideAbortTimeout;
  if (mode == DecideMode::kCommit) input = kDecideCommit;
  if (mode == DecideMode::kAbortFinal) input = kDecideAbortFinal;
  Apply(gtid, input, [&](ProposerTxn* t, PaxosState s) {
    if (Decided(s)) {
      // A resolution round at this site (a prepared agent here escalated
      // while the coordinator still waited for a vote) already chose the
      // outcome and delivered it to the participants; the coordinator
      // learns it now.
      done(gtid, s == kCommitted);
      return;
    }
    if (mode == DecideMode::kAbortFinal) {
      // A definite refusal: no READY value can ever be chosen for the
      // refusing instance (its RM only ever proposed REFUSE at ballot 0,
      // and resolvers propose REFUSE for free instances), so every
      // resolver reaches the same abort. Seal it locally and answer
      // immediately. A round already out runs on to its retry timer.
      TraceEvent(trace::EventKind::kPaxosDecided, gtid, kInvalidSite,
                 /*value=*/-1, /*ok=*/false);
      if (s == kPromising || s == kProposing) {
        t->state = s == kPromising ? kAbortedPromising : kAbortedProposing;
      } else {
        t->state = kAborted;
        t->open.reset();
      }
      done(gtid, false);
      return;
    }
    t->open->done = std::move(done);
    if (mode == DecideMode::kAbortTimeout) {
      // Votes are missing; the outcome is genuinely open (a prepared RM's
      // broadcast may have reached the acceptors even though the VoteMsg
      // to the coordinator was lost). Only a consensus round may seal it.
      if (s == kLeading) Resolve(gtid, *t);
      return;
    }
    // kCommit: every participant told the coordinator READY. Wait for the
    // ballot-0 fast path; fall back to a resolution round on timeout.
    CheckFastPath(gtid, *t);
    if (Decided(t->state)) return;
    t->open->decide_timer = loop_->ScheduleAfter(
        kDecideTimeout, [this, gtid]() { OnDecideTimer(gtid); });
    if (s == kLeading) t->state = kAwaitingFastPath;
  });
}

void PaxosCommit::OnDecideTimer(const TxnId& gtid) {
  Apply(gtid, kDecideTimer, [&](ProposerTxn* t, PaxosState s) {
    t->open->decide_timer = sim::kInvalidEvent;
    if (s == kAwaitingFastPath) Resolve(gtid, *t);
  });
}

void PaxosCommit::CheckFastPath(const TxnId& gtid, ProposerTxn& t) {
  // Only once the coordinator asked for the outcome (it waits on `done`).
  Open& o = *t.open;
  if (!o.done || static_cast<int>(o.begin_acks.size()) < quorum()) return;
  for (SiteId p : o.participants) {
    if (static_cast<int>(o.ready_2b[p].size()) < quorum()) return;
  }
  ++metrics_->paxos_decided_fast;
  Finish(gtid, t, /*commit=*/true, /*ballot=*/0);
}

std::optional<bool> PaxosCommit::AnswerInquiry(const TxnId& gtid,
                                               SiteId requester) {
  std::optional<bool> outcome;
  Apply(gtid, kInquiry, [&](ProposerTxn* t, PaxosState s) {
    if (Decided(s)) {
      outcome = s == kCommitted;
      return;
    }
    t->open->requesters.insert(requester);
    if (!RoundOpen(s)) Resolve(gtid, *t);
  });
  return outcome;
}

void PaxosCommit::Forget(const TxnId& gtid) {
  // The record already keeps only the outcome, which outlives Forget.
  Apply(gtid, kForget, [](ProposerTxn*, PaxosState) {});
}

void PaxosCommit::Crash() {
  // Everything but the acceptor log is volatile. Decided outcomes are
  // recoverable from the acceptor quorum, so they may be dropped too.
  for (auto& [gtid, t] : txns_) {
    if (t.open == nullptr) continue;
    CancelTimer(t.open->decide_timer);
    CancelTimer(t.open->retry_timer);
  }
  txns_.clear();
  acceptor_.clear();
}

std::vector<DecisionProtocol::InFlight> PaxosCommit::RecoverInFlight() {
  // Nothing to re-drive from the coordinator: outcomes live in the acceptor
  // quorum and prepared agents pull them via inquiry escalation.
  return {};
}

void PaxosCommit::Recover() {
  // Replay the durable records in order; the latest record per key wins.
  log_.ForEachRecord([&](const AcceptorLogRecord& rec) {
    AcceptorTxn& a = acceptor_[rec.gtid];
    switch (rec.kind) {
      case AcceptorRecordKind::kPromise:
        a.promised = std::max(a.promised, rec.ballot);
        break;
      case AcceptorRecordKind::kMembership:
        if (rec.ballot >= a.membership_ballot) {
          a.membership_ballot = rec.ballot;
          a.membership = rec.membership;
        }
        break;
      case AcceptorRecordKind::kVote: {
        Slot& s = a.votes[rec.participant];
        if (rec.ballot >= s.ballot) {
          s.ballot = rec.ballot;
          s.ready = rec.ready;
        }
        break;
      }
    }
  });
}

// --- participant (RM) side ---------------------------------------------------

void PaxosCommit::BroadcastVote(const TxnId& gtid, bool ready, SiteId leader) {
  core::PaxosVoteMsg msg;
  msg.gtid = gtid;
  msg.participant = config_.site;
  msg.leader = leader;
  msg.ready = ready;
  SendToAcceptors(core::Message{msg});
}

void PaxosCommit::Escalate(const TxnId& gtid, SiteId coordinator,
                           int attempt) {
  // No answer from the cache of decided outcomes: whoever decided here
  // (the co-located coordinator, or a resolver fanning out to membership
  // and inquirers) already sent the decision to this participant, a local
  // delivery. The election is counted all the same.
  Apply(gtid, kEscalate, [&](ProposerTxn* t, PaxosState s) {
    if (!Decided(s)) t->open->requesters.insert(config_.site);
    if (RoundOpen(s)) return;  // election already running
    ++metrics_->paxos_elections;
    TraceEvent(trace::EventKind::kPaxosElect, gtid, coordinator, attempt, true);
    if (!Decided(s)) Resolve(gtid, *t);
  });
}

// --- message plumbing --------------------------------------------------------

void PaxosCommit::Handle(SiteId from, const core::Message& msg) {
  if (const auto* m = std::get_if<core::PaxosBeginMsg>(&msg)) {
    OnBegin(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosBeginAckMsg>(&msg)) {
    OnBeginAck(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosVoteMsg>(&msg)) {
    OnVote(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosVotedMsg>(&msg)) {
    OnVoted(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosPrepareMsg>(&msg)) {
    OnPrepare(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosPromiseMsg>(&msg)) {
    OnPromise(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosProposeMsg>(&msg)) {
    OnPropose(from, *m);
  } else if (const auto* m = std::get_if<core::PaxosAcceptedMsg>(&msg)) {
    OnAccepted(from, *m);
  }
}

// --- acceptor role -----------------------------------------------------------

void PaxosCommit::OnBegin(SiteId /*from*/, const core::PaxosBeginMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  if (a.membership_ballot == 0) {
    // Duplicate: re-ack (the first ack may have raced a leader restart).
    network_->Send(config_.site, msg.leader,
                   core::Message{core::PaxosBeginAckMsg{msg.gtid}});
    return;
  }
  if (a.promised > 0 || a.membership_ballot > 0) return;  // resolver took over
  a.membership_ballot = 0;
  a.membership = msg.participants;
  ForceLog({.kind = AcceptorRecordKind::kMembership,
            .gtid = msg.gtid,
            .ballot = 0,
            .membership = msg.participants});
  network_->Send(config_.site, msg.leader,
                 core::Message{core::PaxosBeginAckMsg{msg.gtid}});
}

void PaxosCommit::OnVote(SiteId /*from*/, const core::PaxosVoteMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  Slot& s = a.votes[msg.participant];
  if (s.ballot == 0) {
    // Duplicate ballot-0 vote: re-send the 2b.
    network_->Send(config_.site, msg.leader,
                   core::Message{core::PaxosVotedMsg{msg.gtid,
                                                     msg.participant,
                                                     s.ready}});
    return;
  }
  if (a.promised > 0 || s.ballot > 0) return;  // resolver took over
  s.ballot = 0;
  s.ready = msg.ready;
  ForceLog({.kind = AcceptorRecordKind::kVote,
            .gtid = msg.gtid,
            .ballot = 0,
            .participant = msg.participant,
            .ready = msg.ready});
  ++metrics_->paxos_votes_accepted;
  TraceEvent(trace::EventKind::kPaxosVote, msg.gtid, msg.participant,
             /*value=*/0, msg.ready);
  network_->Send(
      config_.site, msg.leader,
      core::Message{core::PaxosVotedMsg{msg.gtid, msg.participant, s.ready}});
}

void PaxosCommit::OnPrepare(SiteId from, const core::PaxosPrepareMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  if (msg.ballot <= a.promised) return;  // an equal/higher ballot holds
  a.promised = msg.ballot;
  ForceLog({.kind = AcceptorRecordKind::kPromise,
            .gtid = msg.gtid,
            .ballot = msg.ballot});
  TraceEvent(trace::EventKind::kPaxosPromise, msg.gtid, from, msg.ballot,
             true);
  core::PaxosPromiseMsg reply;
  reply.gtid = msg.gtid;
  reply.ballot = msg.ballot;
  reply.membership_ballot = a.membership_ballot;
  reply.membership = a.membership;
  for (const auto& [participant, slot] : a.votes) {
    if (slot.ballot < 0) continue;
    reply.votes.push_back(core::PaxosPromiseMsg::AcceptedVote{
        participant, slot.ballot, slot.ready});
  }
  network_->Send(config_.site, from, core::Message{std::move(reply)});
}

void PaxosCommit::OnPropose(SiteId from, const core::PaxosProposeMsg& msg) {
  AcceptorTxn& a = acceptor_[msg.gtid];
  if (msg.ballot < a.promised) return;
  a.promised = msg.ballot;
  a.membership_ballot = msg.ballot;
  a.membership = msg.membership;
  ForceLog({.kind = AcceptorRecordKind::kMembership,
            .gtid = msg.gtid,
            .ballot = msg.ballot,
            .membership = msg.membership});
  for (SiteId p : msg.membership) {
    Slot& s = a.votes[p];
    s.ballot = msg.ballot;
    s.ready = std::find(msg.ready_participants.begin(),
                        msg.ready_participants.end(),
                        p) != msg.ready_participants.end();
    ForceLog({.kind = AcceptorRecordKind::kVote,
              .gtid = msg.gtid,
              .ballot = msg.ballot,
              .participant = p,
              .ready = s.ready});
  }
  const bool would_commit =
      !msg.membership.empty() &&
      msg.ready_participants.size() == msg.membership.size();
  TraceEvent(trace::EventKind::kPaxosAccept, msg.gtid, from, msg.ballot,
             would_commit);
  network_->Send(config_.site, from,
                 core::Message{core::PaxosAcceptedMsg{msg.gtid, msg.ballot}});
}

// --- leader / resolver replies ----------------------------------------------

void PaxosCommit::OnBeginAck(SiteId from, const core::PaxosBeginAckMsg& msg) {
  Apply(msg.gtid, kBeginAck, [&](ProposerTxn* t, PaxosState s) {
    if (s == kUnknown || Decided(s)) return;
    t->open->begin_acks.insert(from);
    CheckFastPath(msg.gtid, *t);
  });
}

void PaxosCommit::OnVoted(SiteId from, const core::PaxosVotedMsg& msg) {
  Apply(msg.gtid, kVoted, [&](ProposerTxn* t, PaxosState s) {
    if (s == kUnknown || Decided(s) || !msg.ready) return;
    t->open->ready_2b[msg.participant].insert(from);
    CheckFastPath(msg.gtid, *t);
  });
}

void PaxosCommit::Resolve(const TxnId& gtid, ProposerTxn& t) {
  Open& o = *t.open;
  if (o.attempt == 0) ++metrics_->paxos_resolutions;
  t.state = kPromising;
  o.ballot = NextBallot(o.attempt);
  o.promises.clear();
  o.accepts.clear();
  TraceEvent(trace::EventKind::kPaxosPrepare, gtid, kInvalidSite, o.ballot,
             true);
  SendToAcceptors(core::Message{core::PaxosPrepareMsg{gtid, o.ballot}});
  o.retry_timer = loop_->ScheduleAfter(
      sim::CappedBackoff(kResolveRetryInitial, kResolveRetryMax, o.attempt),
      [this, gtid]() { OnRetryTimer(gtid); });
}

void PaxosCommit::OnRetryTimer(const TxnId& gtid) {
  Apply(gtid, kRetryTimer, [&](ProposerTxn* t, PaxosState s) {
    t->open->retry_timer = sim::kInvalidEvent;
    if (Decided(s)) {
      t->state = kAborted;
      t->open.reset();
      return;
    }
    // The round stalled (acceptor down, messages lost, or a higher ballot
    // in the way): retry at a fresh, strictly higher site-unique ballot.
    ++t->open->attempt;
    Resolve(gtid, *t);
  });
}

void PaxosCommit::OnPromise(SiteId from, const core::PaxosPromiseMsg& msg) {
  Apply(msg.gtid, kPromise, [&](ProposerTxn* t, PaxosState s) {
    const bool counting = s == kPromising || s == kAbortedPromising;
    if (!counting || msg.ballot != t->open->ballot) return;
    Open& o = *t->open;
    o.promises[from] = msg;
    if (static_cast<int>(o.promises.size()) < quorum()) return;
    // Phase 2a: adopt the highest-ballot accepted membership; if none was
    // accepted anywhere in the quorum, the original leader may propose its
    // real set, any other resolver must propose the empty abort marker.
    int64_t best_ballot = -1;
    std::vector<SiteId> membership;
    for (const auto& [site, promise] : o.promises) {
      if (promise.membership_ballot > best_ballot) {
        best_ballot = promise.membership_ballot;
        membership = promise.membership;
      }
    }
    if (best_ballot < 0) membership = o.participants;
    // Per instance in the membership: adopt the highest-ballot accepted
    // vote, or REFUSE if the instance is free.
    std::vector<SiteId> ready;
    for (SiteId p : membership) {
      int64_t vb = -1;
      bool vready = false;
      for (const auto& [site, promise] : o.promises) {
        for (const auto& v : promise.votes) {
          if (v.participant == p && v.ballot > vb) {
            vb = v.ballot;
            vready = v.ready;
          }
        }
      }
      if (vb >= 0 && vready) ready.push_back(p);
    }
    t->state = s == kPromising ? kProposing : kAbortedProposing;
    o.prop_membership = std::move(membership);
    o.prop_ready = std::move(ready);
    core::PaxosProposeMsg prop;
    prop.gtid = msg.gtid;
    prop.ballot = o.ballot;
    prop.membership = o.prop_membership;
    prop.ready_participants = o.prop_ready;
    SendToAcceptors(core::Message{std::move(prop)});
  });
}

void PaxosCommit::OnAccepted(SiteId from, const core::PaxosAcceptedMsg& msg) {
  Apply(msg.gtid, kAccepted, [&](ProposerTxn* t, PaxosState s) {
    const bool counting = s == kProposing || s == kAbortedProposing;
    if (!counting || msg.ballot != t->open->ballot) return;
    Open& o = *t->open;
    o.accepts.insert(from);
    if (static_cast<int>(o.accepts.size()) < quorum()) return;
    ++metrics_->paxos_decided_resolved;
    // A round that a definite abort overtook decides nothing.
    if (s == kAbortedProposing) return;
    const bool commit = !o.prop_membership.empty() &&
                        o.prop_ready.size() == o.prop_membership.size();
    Finish(msg.gtid, *t, commit, o.ballot);
  });
}

// --- outcome -----------------------------------------------------------------

void PaxosCommit::Finish(const TxnId& gtid, ProposerTxn& t, bool commit,
                         int64_t ballot) {
  TraceEvent(trace::EventKind::kPaxosDecided, gtid, kInvalidSite, ballot,
             commit);
  // The record keeps only the outcome.
  t.state = commit ? kCommitted : kAborted;
  const std::unique_ptr<Open> was = std::move(t.open);
  CancelTimer(was->retry_timer);
  CancelTimer(was->decide_timer);
  if (was->done) {
    // The co-located coordinator is alive: it records the outcome in the
    // history and fans out the decision itself.
    was->done(gtid, commit);
    return;
  }
  // Resolver path — the coordinator is dead or never asked. Record the
  // global outcome (the Recorder deduplicates against a coordinator that
  // recorded before crashing, and against other resolvers) and deliver the
  // decision to every participant and inquirer directly.
  if (commit) {
    recorder_->RecordGlobalCommit(gtid, config_.site);
  } else {
    recorder_->RecordGlobalAbort(gtid, config_.site);
  }
  const std::vector<SiteId>& members =
      was->prop_membership.empty() ? was->participants : was->prop_membership;
  std::set<SiteId> targets = std::move(was->requesters);
  targets.insert(members.begin(), members.end());
  for (SiteId s : targets) {
    network_->Send(config_.site, s,
                   core::Message{core::DecisionMsg{gtid, commit}});
  }
}

}  // namespace hermes::consensus
