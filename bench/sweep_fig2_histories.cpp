// E1 + E2 — reproduction of the paper's example histories (Fig. 2 and
// sections 3 / 5.1) through the live protocol stack, under every
// certification policy.
//
// H1 exhibits the *global view distortion*: a unilaterally aborted,
// resubmitted subtransaction re-reads data rewritten by a concurrent global
// transaction. H2 exhibits the *local view distortion*: reversed local
// commit orders give a purely local transaction an inconsistent view. The
// table shows, per policy, the transaction outcomes and the exact
// view-serializability verdict of the recorded history.
//
// The failure window comes from the lock manager, as in a real LDBS: the
// intruder's conflicting command queues on a lock of T1's prepared
// subtransaction at site a before that subtransaction is unilaterally
// aborted, so it is granted ahead of T1's resubmission.
//
// Gate: in both histories the `none` policy is NOT-VIEW-SERIALIZABLE with
// a cyclic commit graph, every certifying policy is view-serializable
// with an acyclic one, the committed projection replays to the recorded
// values, H2's local transaction L4 commits, and no run exhausts its event
// budget.

#include <cstdio>
#include <functional>
#include <string>
#include <utility>

#include "bench/sweeps.h"
#include "core/mdbs.h"
#include "history/projection.h"

namespace hermes::bench {
namespace {

using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;

constexpr SiteId kA = 0, kB = 1, kC = 2;
constexpr int64_t kX = 0, kY = 1, kZ = 2, kQ = 3, kU = 4;

// From T1's prepare at a to the unilateral abort there. The intruder's
// conflicting command reaches a's LTM within tens of µs (it is coordinated
// at a, or is a local transaction), while T1's COMMIT needs two 1 ms hops
// through its coordinator at c: 1 ms later the command has queued and the
// decision has not arrived.
constexpr sim::Duration kAbortAfter = 1 * sim::kMillisecond;

struct Harness {
  sim::EventLoop loop;
  std::unique_ptr<core::Mdbs> mdbs;
  db::TableId table = -1;
  TxnId t1_id, intruder_id;
  HistoryRun out;

  explicit Harness(CertPolicy policy) {
    core::MdbsConfig config;
    config.num_sites = 3;
    config.agent.policy = policy;
    mdbs = std::make_unique<core::Mdbs>(config, &loop);
    table = *mdbs->CreateTableEverywhere("t");
    for (SiteId s : {kA, kB}) {
      for (int64_t k : {kX, kY, kZ, kQ, kU}) {
        mdbs->LoadRow(s, table, k, db::Row{{"v", db::Value(int64_t{0})}});
      }
    }
    loop.set_max_events(10'000'000);
  }

  // On T1's prepare at a, `intrude` starts the intruders; kAbortAfter
  // later, T1's subtransaction there is unilaterally aborted.
  void OnT1Prepared(std::function<void()> intrude) {
    mdbs->agent(kA)->set_prepared_hook(
        [this, intrude = std::move(intrude), injected = false](
            const TxnId& gtid, LtmTxnHandle handle) mutable {
          if (injected || !(gtid == t1_id)) return;
          injected = true;
          intrude();
          loop.ScheduleAfter(kAbortAfter, [this, handle]() {
            (void)mdbs->ltm(kA)->InjectUnilateralAbort(handle);
          });
        });
  }

  void SubmitIntruder(const GlobalTxnSpec& spec, SiteId coordinator) {
    intruder_id = mdbs->Submit(
        spec,
        [this](const GlobalTxnResult& r) {
          out.intruder_status = r.status;
          out.intruder_refused = r.certification_refused;
        },
        coordinator);
  }

  // T1 (coordinated at c): reads X@a, updates Y@a, updates Z@b.
  void SubmitT1() {
    GlobalTxnSpec t1;
    t1.steps.push_back({kA, db::MakeSelectKey(table, kX)});
    t1.steps.push_back({kA, db::MakeAddKey(table, kY, "v", int64_t{10})});
    t1.steps.push_back({kB, db::MakeAddKey(table, kZ, "v", int64_t{10})});
    t1_id = mdbs->Submit(
        t1,
        [this](const GlobalTxnResult& r) { out.t1_status = r.status; },
        kC);
  }

  HistoryRun Finish() {
    loop.Run();
    out.budget_exhausted = loop.budget_exhausted();
    const core::Metrics& m = mdbs->metrics();
    out.resubmissions = m.resubmissions;
    out.refuse_interval = m.refuse_interval;
    out.refusals = m.refuse_interval + m.refuse_extension + m.refuse_dead;
    const db::RowEntry* y = mdbs->storage(kA)->GetTable(table)->Get(kY);
    out.y_exists = y != nullptr;
    if (y != nullptr && y->live()) {
      out.y_at_a = std::get<int64_t>(*y->row->Get("v"));
    }
    for (const history::Op& op : mdbs->recorder().ops()) {
      if (op.kind != history::OpKind::kLocalCommit || op.site > kB) continue;
      const auto seq = static_cast<int64_t>(op.seq);
      if (op.subtxn.txn == t1_id) out.t1_commit_seq[op.site] = seq;
      if (op.subtxn.txn == intruder_id) {
        out.intruder_commit_seq[op.site] = seq;
      }
    }
    const auto committed =
        history::CommittedProjection(mdbs->recorder().ops());
    out.replay_error = history::VerifyReplayMatchesRecorded(committed);
    out.cg_acyclic = history::CommitGraphAcyclic(committed);
    history::ViewCheckResult check =
        history::CheckViewSerializability(committed);
    out.verdict = check.verdict;
    out.verdict_reason = std::move(check.reason);
    return out;
  }
};

const char* Outcome(const std::optional<Status>& status) {
  if (!status.has_value()) return "unfinished";
  return status->ok() ? "commit" : "abort";
}

// Runs one history under every policy, writes its artifact and returns 0,
// or 1 when the gate fails or the artifact cannot be written. With
// `runs_local` the gate also requires L4 to commit.
int Report(const char* title, const char* artifact_name,
           HistoryRun (*run)(CertPolicy), bool runs_local) {
  bool gate_ok = true;
  std::printf("%s\n", title);
  TablePrinter table({"policy", "T1", "intruder", "local", "resub",
                      "refusals", "CG", "oracle verdict"});
  for (const auto policy :
       {CertPolicy::kNone, CertPolicy::kPrepareOnly,
        CertPolicy::kPrepareExtended, CertPolicy::kFull}) {
    const HistoryRun r = run(policy);
    const bool distorted = r.verdict == history::Verdict::kNotSerializable &&
                           !r.cg_acyclic;
    const bool clean =
        r.verdict == history::Verdict::kSerializable && r.cg_acyclic;
    const bool local_committed = r.local_status && r.local_status->ok();
    std::string broken;
    if (r.budget_exhausted) broken += "; event budget exhausted";
    if (!r.replay_error.empty()) broken += "; replay: " + r.replay_error;
    if (runs_local && !local_committed) {
      broken += "; L4 did not commit: " +
                (r.local_status ? r.local_status->ToString() : "unfinished");
    }
    if (!(policy == CertPolicy::kNone ? distorted : clean)) {
      broken += std::string("; ") + history::VerdictName(r.verdict) +
                (r.cg_acyclic ? ", acyclic CG" : ", cyclic CG");
      if (!r.verdict_reason.empty()) broken += ": " + r.verdict_reason;
    }
    if (!broken.empty()) {
      std::fprintf(stderr, "%s: policy %s broke the gate%s\n", artifact_name,
                   core::CertPolicyName(policy), broken.c_str());
      gate_ok = false;
    }
    table.AddRow(core::CertPolicyName(policy), Outcome(r.t1_status),
                 Outcome(r.intruder_status),
                 local_committed ? "commit" : "-", r.resubmissions,
                 r.refusals, r.cg_acyclic ? "acyclic" : "CYCLIC",
                 history::VerdictName(r.verdict));
  }
  const int rc =
      FinishSweep(artifact_name, title, 0, 1, table, runner::Aggregator());
  std::printf("\n");
  return gate_ok ? rc : 1;
}

}  // namespace

// H1: T2 (coordinated at a) updates X@a, deletes Y@a and updates Z@b. Its
// update of X queues behind T1's read lock and is granted at T1's abort;
// T1's resubmission then waits for T2's lock on X, re-decomposes (Y is
// gone) and reads T2's X — two views for T1. (Were T2 to delete Y first,
// T2 and the resubmission would deadlock until the lock-wait timeout.)
HistoryRun RunH1(CertPolicy policy) {
  Harness h(policy);
  h.OnT1Prepared([&h]() {
    GlobalTxnSpec t2;
    t2.steps.push_back({kA, db::MakeAddKey(h.table, kX, "v", int64_t{100})});
    t2.steps.push_back({kA, db::MakeDeleteKey(h.table, kY)});
    t2.steps.push_back({kB, db::MakeAddKey(h.table, kZ, "v", int64_t{100})});
    h.SubmitIntruder(t2, kA);
  });
  h.SubmitT1();
  return h.Finish();
}

// H2: T3 (coordinated at c) reads T1's Z at b and updates Q at a. The
// local transaction L4 at a brackets the failure window: its read of Y
// queues behind T1's write lock and is granted at T1's abort, so T1's
// resubmitted write of Y waits for L4; 5 ms later L4 reads Q, waiting for
// T3's write, then updates U and commits. L4 sees T3 but not T1, while T3
// read from T1, and T3 commits at a before T1's resubmission does.
HistoryRun RunH2(CertPolicy policy) {
  Harness h(policy);
  h.OnT1Prepared([&h]() {
    GlobalTxnSpec t3;
    t3.steps.push_back({kB, db::MakeSelectKey(h.table, kZ)});
    t3.steps.push_back({kA, db::MakeAddKey(h.table, kQ, "v", int64_t{7})});
    h.SubmitIntruder(t3, kC);
    ltm::Ltm* ltm = h.mdbs->ltm(kA);
    const LtmTxnHandle l4 =
        ltm->Begin(SubTxnId{TxnId::MakeLocal(kA, 9999), 0});
    ltm->Execute(l4, db::MakeSelectKey(h.table, kY),
                 [&h, ltm, l4](const Status& s, const db::CmdResult&) {
      if (!s.ok()) {
        h.out.local_status = s;
        return;
      }
      h.loop.ScheduleAfter(5 * sim::kMillisecond, [&h, ltm, l4]() {
        ltm->Execute(l4, db::MakeSelectKey(h.table, kQ),
                     [&h, ltm, l4](const Status& s2, const db::CmdResult&) {
          if (!s2.ok()) {
            h.out.local_status = s2;
            return;
          }
          ltm->Execute(l4, db::MakeAddKey(h.table, kU, "v", int64_t{1}),
                       [&h, ltm, l4](const Status& s3, const db::CmdResult&) {
            h.out.local_status = s3.ok() ? ltm->Commit(l4) : s3;
          });
        });
      });
    });
  });
  h.SubmitT1();
  return h.Finish();
}

int RunFig2HistoriesSweep(const SweepArgs&) {
  std::printf("E1/E2 — paper histories H1 and H2 through the live stack\n\n");
  const int h1 = Report("H1 — global view distortion (section 3):",
                        "fig2_histories_h1", RunH1,
                        /*runs_local=*/false);
  const int h2 = Report("H2 — local view distortion (section 5.1):",
                        "fig2_histories_h2", RunH2,
                        /*runs_local=*/true);
  std::printf(
      "Expectation (paper): with certification disabled both anomalies\n"
      "materialize (NOT-VIEW-SERIALIZABLE); every certifying policy\n"
      "prevents them, at the cost of refusing the intruding transaction.\n");
  return h1 != 0 || h2 != 0 ? 1 : 0;
}

}  // namespace hermes::bench
