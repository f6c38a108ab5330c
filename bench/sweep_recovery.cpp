// E12 — site crashes as collective unilateral aborts, with Agent-log
// recovery.
//
// The paper folds site crashes into its failure model ("without making
// difference between single and collective abort (i.e. site crash)"); the
// force-written Agent log makes the prepared state durable. This experiment
// crashes one site repeatedly during a transfer workload and reports
// commit/abort outcomes, recovery activity (in-doubt resubmissions,
// inquiries answered), the money-conservation invariant, the subtransactions
// still active at the end (orphans) and the oracle verdict. Orphan
// detection is on: a coordinator that crashes before PREPARE forgets its
// transaction (presumed abort), and without the agent's orphan timeout the
// participant's active subtransaction would hold its locks and uncommitted
// writes forever. Gate: every row passes.

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/sweeps.h"
#include "core/mdbs.h"
#include "history/projection.h"
#include "history/view_checker.h"

namespace hermes::bench {
namespace {

struct CrashRunResult {
  int committed = 0;
  int aborted = 0;
  int64_t resubmissions = 0;
  int64_t collective_aborts = 0;
  size_t orphans = 0;
  bool conserved = false;
  bool in_doubt_clear = true;
  bool consistent = false;
  bool within_budget = false;  // the run ended before its event budget

  bool ok() const {
    return within_budget && conserved && in_doubt_clear && consistent &&
           orphans == 0;
  }
};

CrashRunResult Run(int crashes, sim::Duration crash_period) {
  sim::EventLoop loop;
  loop.set_max_events(50'000'000);
  core::MdbsConfig config;
  config.num_sites = 3;
  config.agent.orphan_abort_timeout = 800 * sim::kMillisecond;
  core::Mdbs mdbs(config, &loop);
  const db::TableId t = *mdbs.CreateTableEverywhere("t");
  for (SiteId s = 0; s < 3; ++s) {
    for (int64_t k = 0; k < 16; ++k) {
      mdbs.LoadRow(s, t, k, db::Row{{"v", db::Value(int64_t{0})}});
    }
  }

  CrashRunResult out;
  constexpr int kTxns = 120;
  int submitted = 0;
  std::function<void()> next = [&]() {
    if (submitted >= kTxns) return;
    const int i = submitted++;
    core::GlobalTxnSpec spec;
    const SiteId a = static_cast<SiteId>(i % 3);
    const SiteId b = static_cast<SiteId>((i + 1) % 3);
    spec.steps.push_back({a, db::MakeAddKey(t, i % 16, "v", int64_t{-1})});
    spec.steps.push_back({b, db::MakeAddKey(t, i % 16, "v", int64_t{1})});
    mdbs.Submit(spec, [&](const core::GlobalTxnResult& r) {
      r.status.ok() ? ++out.committed : ++out.aborted;
      next();
    });
  };
  for (int c = 0; c < 6; ++c) loop.ScheduleAfter(0, [&]() { next(); });
  for (int c = 0; c < crashes; ++c) {
    loop.ScheduleAfter((c + 1) * crash_period, [&mdbs, c]() {
      mdbs.CrashSite(static_cast<SiteId>(c % 3));
    });
  }
  loop.Run();
  out.within_budget = !loop.budget_exhausted();

  int64_t total = 0;
  for (SiteId s = 0; s < 3; ++s) {
    for (const auto& [key, entry] :
         mdbs.storage(s)->GetTable(t)->entries()) {
      if (entry.live()) total += std::get<int64_t>(*entry.row->Get("v"));
    }
  }
  out.conserved = total == 0;
  out.resubmissions = mdbs.metrics().resubmissions;
  for (SiteId s = 0; s < 3; ++s) {
    out.collective_aborts += mdbs.ltm(s)->stats().injected_aborts;
    out.orphans += mdbs.ltm(s)->ActiveHandles().size();
    if (!mdbs.agent(s)->log().InDoubt().empty()) out.in_doubt_clear = false;
  }
  const std::vector<history::Op>& ops = mdbs.recorder().ops();
  const auto committed = history::CommittedProjection(ops);
  out.consistent = history::CheckGlobalAtomicity(ops).empty() &&
                   history::CheckOrderInvariant(ops).empty() &&
                   history::VerifyReplayMatchesRecorded(committed).empty() &&
                   history::CommitGraphAcyclic(committed);
  return out;
}

}  // namespace

int RunRecoverySweep(const SweepArgs&) {
  std::printf(
      "E12 — crash-recovery: 120 transfers over 3 sites, crashing one site\n"
      "every period (round-robin); money conservation must hold and the\n"
      "history must stay consistent.\n\n");
  TablePrinter table({"crashes", "period ms", "committed", "aborted",
                      "collective aborts", "resub", "orphans", "conserved",
                      "in-doubt clear", "history"});
  struct Point {
    int crashes;
    sim::Duration period;
  };
  bool all_ok = true;
  for (const Point& p :
       {Point{0, 50 * sim::kMillisecond}, Point{1, 30 * sim::kMillisecond},
        Point{3, 20 * sim::kMillisecond}, Point{6, 10 * sim::kMillisecond}}) {
    const CrashRunResult r = Run(p.crashes, p.period);
    all_ok = all_ok && r.ok();
    table.AddRow(p.crashes, static_cast<double>(p.period) / 1000.0,
                 r.committed, r.aborted, r.collective_aborts,
                 r.resubmissions, static_cast<int64_t>(r.orphans),
                 r.conserved ? "yes" : "NO", r.in_doubt_clear ? "yes" : "NO",
                 r.consistent ? "consistent" : "VIOLATED");
  }
  const int rc = FinishSweep("recovery",
                             "120 transfers, 3 sites, round-robin crashes", 7,
                             1, table, runner::Aggregator());
  std::printf(
      "\nExpected shape: commits dominate even under repeated crashes;\n"
      "conservation, atomicity and history consistency hold and no\n"
      "subtransaction is left active in every row.\n");
  if (!all_ok) {
    std::fprintf(stderr, "E12: a row failed\n");
    return 1;
  }
  return rc;
}

}  // namespace hermes::bench
