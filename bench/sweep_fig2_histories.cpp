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
// Gate: in both histories the `none` policy is NOT-VIEW-SERIALIZABLE with
// a cyclic commit graph, every certifying policy is view-serializable
// with an acyclic one, and no run exhausts its event budget.

#include <cstdio>
#include <functional>

#include "bench/sweeps.h"
#include "core/mdbs.h"
#include "history/graphs.h"
#include "history/projection.h"
#include "history/view_checker.h"

namespace hermes::bench {
namespace {

using core::CertPolicy;
using core::GlobalTxnResult;
using core::GlobalTxnSpec;

constexpr SiteId kA = 0, kB = 1, kC = 2;
constexpr int64_t kX = 0, kY = 1, kZ = 2, kQ = 3, kU = 4;

struct ScenarioResult {
  bool t1_committed = false;
  bool other_committed = false;
  bool local_committed = false;
  int64_t resubmissions = 0;
  int64_t refusals = 0;
  bool cg_acyclic = true;
  history::Verdict verdict = history::Verdict::kUnknown;
  bool budget_exhausted = false;  // the run was cut at its event budget
};

struct Harness {
  sim::EventLoop loop;
  std::unique_ptr<core::Mdbs> mdbs;
  db::TableId table = -1;

  explicit Harness(CertPolicy policy) {
    core::MdbsConfig config;
    config.num_sites = 3;
    config.agent.policy = policy;
    config.agent.alive_check_interval = 200 * sim::kMillisecond;
    mdbs = std::make_unique<core::Mdbs>(config, &loop);
    table = *mdbs->CreateTableEverywhere("t");
    for (SiteId s : {kA, kB}) {
      for (int64_t k : {kX, kY, kZ, kQ, kU}) {
        mdbs->LoadRow(s, table, k, db::Row{{"v", db::Value(int64_t{0})}});
      }
    }
    loop.set_max_events(10'000'000);
  }

  void Finish(ScenarioResult& out) {
    loop.Run();
    out.budget_exhausted = loop.budget_exhausted();
    const auto committed =
        history::CommittedProjection(mdbs->recorder().ops());
    out.resubmissions = mdbs->metrics().resubmissions;
    out.refusals = mdbs->metrics().refuse_interval +
                   mdbs->metrics().refuse_extension +
                   mdbs->metrics().refuse_dead;
    out.cg_acyclic = history::CommitGraphAcyclic(committed);
    out.verdict = history::CheckViewSerializability(committed).verdict;
  }
};

// H1: T1 dies at site a after READY; T2 deletes Y / rewrites X in the
// window; T1's resubmission re-decomposes and reads T2's X.
ScenarioResult RunH1(CertPolicy policy) {
  Harness h(policy);
  ScenarioResult out;
  TxnId t1_id;
  bool injected = false;
  h.mdbs->agent(kA)->set_prepared_hook([&](const TxnId& gtid,
                                           LtmTxnHandle handle) {
    if (injected || !(gtid == t1_id)) return;
    injected = true;
    h.loop.ScheduleAfter(0, [&h, handle]() {
      (void)h.mdbs->ltm(kA)->InjectUnilateralAbort(handle);
    });
    GlobalTxnSpec t2;
    t2.steps.push_back({kA, db::MakeDeleteKey(h.table, kY)});
    t2.steps.push_back({kA, db::MakeAddKey(h.table, kX, "v", int64_t{100})});
    t2.steps.push_back({kB, db::MakeAddKey(h.table, kZ, "v", int64_t{100})});
    h.mdbs->Submit(
        t2,
        [&out](const GlobalTxnResult& r) {
          out.other_committed = r.status.ok();
        },
        kA);
  });
  GlobalTxnSpec t1;
  t1.steps.push_back({kA, db::MakeSelectKey(h.table, kX)});
  t1.steps.push_back({kA, db::MakeAddKey(h.table, kY, "v", int64_t{10})});
  t1.steps.push_back({kB, db::MakeAddKey(h.table, kZ, "v", int64_t{10})});
  t1_id = h.mdbs->Submit(
      t1,
      [&out](const GlobalTxnResult& r) { out.t1_committed = r.status.ok(); },
      kC);
  h.Finish(out);
  return out;
}

// H2: T1 dies at a; T3 reads T1's Z at b and commits at a before T1's
// resubmission; local L4 brackets the window (reads Y early, Q late).
ScenarioResult RunH2(CertPolicy policy) {
  Harness h(policy);
  ScenarioResult out;
  TxnId t1_id;
  bool injected = false;
  h.mdbs->agent(kA)->set_prepared_hook([&](const TxnId& gtid,
                                           LtmTxnHandle handle) {
    if (injected || !(gtid == t1_id)) return;
    injected = true;
    h.loop.ScheduleAfter(0, [&h, handle]() {
      (void)h.mdbs->ltm(kA)->InjectUnilateralAbort(handle);
    });
    GlobalTxnSpec t3;
    t3.steps.push_back({kB, db::MakeSelectKey(h.table, kZ)});
    t3.steps.push_back({kA, db::MakeAddKey(h.table, kQ, "v", int64_t{7})});
    h.mdbs->Submit(
        t3,
        [&out](const GlobalTxnResult& r) {
          out.other_committed = r.status.ok();
        },
        kC);
    ltm::Ltm* ltm = h.mdbs->ltm(kA);
    h.loop.ScheduleAfter(200 * sim::kMicrosecond, [&h, &out, ltm]() {
      const LtmTxnHandle l4 =
          ltm->Begin(SubTxnId{TxnId::MakeLocal(kA, 9999), 0});
      ltm->Execute(l4, db::MakeSelectKey(h.table, kY),
                   [&h, &out, ltm, l4](const Status& s, const db::CmdResult&) {
                     if (!s.ok()) return;
                     h.loop.ScheduleAfter(5 * sim::kMillisecond, [&h, &out,
                                                                 ltm, l4]() {
                       ltm->Execute(
                           l4, db::MakeSelectKey(h.table, kQ),
                           [&out, ltm, l4](const Status& s2,
                                           const db::CmdResult&) {
                             if (!s2.ok()) return;
                             ltm->Execute(
                                 l4,
                                 db::MakeAddKey(ltm->storage()
                                                    ->GetTable(0)
                                                    ->id(),
                                                kU, "v", int64_t{1}),
                                 [&out, ltm, l4](const Status& s3,
                                                 const db::CmdResult&) {
                                   if (!s3.ok()) return;
                                   out.local_committed =
                                       ltm->Commit(l4).ok();
                                 });
                           });
                     });
                   });
    });
  });
  GlobalTxnSpec t1;
  t1.steps.push_back({kA, db::MakeSelectKey(h.table, kX)});
  t1.steps.push_back({kA, db::MakeAddKey(h.table, kY, "v", int64_t{10})});
  t1.steps.push_back({kB, db::MakeAddKey(h.table, kZ, "v", int64_t{10})});
  t1_id = h.mdbs->Submit(
      t1,
      [&out](const GlobalTxnResult& r) { out.t1_committed = r.status.ok(); },
      kC);
  h.Finish(out);
  return out;
}

// Runs one history under every policy, writes its artifact and returns 0,
// or 1 when the gate fails or the artifact cannot be written.
int Report(const char* title, const char* artifact_name,
           const std::function<ScenarioResult(CertPolicy)>& run) {
  bool gate_ok = true;
  std::printf("%s\n", title);
  TablePrinter table({"policy", "T1", "intruder", "local", "resub",
                      "refusals", "CG", "oracle verdict"});
  for (const auto policy :
       {CertPolicy::kNone, CertPolicy::kPrepareOnly,
        CertPolicy::kPrepareExtended, CertPolicy::kFull}) {
    const ScenarioResult r = run(policy);
    const bool distorted = r.verdict == history::Verdict::kNotSerializable &&
                           !r.cg_acyclic;
    const bool clean =
        r.verdict == history::Verdict::kSerializable && r.cg_acyclic;
    if (r.budget_exhausted ||
        !(policy == CertPolicy::kNone ? distorted : clean)) {
      std::fprintf(stderr, "%s: policy %s broke the gate%s\n", artifact_name,
                   core::CertPolicyName(policy),
                   r.budget_exhausted ? " (event budget exhausted)" : "");
      gate_ok = false;
    }
    table.AddRow(core::CertPolicyName(policy),
                 r.t1_committed ? "commit" : "abort",
                 r.other_committed ? "commit" : "abort",
                 r.local_committed ? "commit" : "-", r.resubmissions,
                 r.refusals, r.cg_acyclic ? "acyclic" : "CYCLIC",
                 history::VerdictName(r.verdict));
  }
  const int rc =
      FinishSweep(artifact_name, title, 0, 1, table, runner::Aggregator());
  std::printf("\n");
  return gate_ok ? rc : 1;
}

}  // namespace

int RunFig2HistoriesSweep(const SweepArgs&) {
  std::printf("E1/E2 — paper histories H1 and H2 through the live stack\n\n");
  const int h1 = Report("H1 — global view distortion (section 3):",
                        "fig2_histories_h1", RunH1);
  const int h2 = Report("H2 — local view distortion (section 5.1):",
                        "fig2_histories_h2", RunH2);
  std::printf(
      "Expectation (paper): with certification disabled both anomalies\n"
      "materialize (NOT-VIEW-SERIALIZABLE); every certifying policy\n"
      "prevents them, at the cost of refusing the intruding transaction.\n");
  return h1 != 0 || h2 != 0 ? 1 : 0;
}

}  // namespace hermes::bench
