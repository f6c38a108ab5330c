#include "workload/driver.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "common/str.h"
#include "fault/injector.h"
#include "history/graphs.h"
#include "history/projection.h"
#include "workload/generator.h"

namespace hermes::workload {

namespace {

// Mutable run state shared by the client loops.
struct RunState {
  WorkloadConfig config;
  sim::EventLoop* loop = nullptr;
  core::Mdbs* mdbs = nullptr;
  Generator* generator = nullptr;
  Rng rng{0};
  int submitted = 0;
  int completed = 0;
  db::TableId local_table = -1;  // CGM locally-updateable table
  bool stop_locals = false;
  sim::Time done_at = -1;  // when the last targeted global txn completed

  bool AllSubmitted() const {
    return submitted >= config.target_global_txns;
  }
};

void RunGlobalClient(const std::shared_ptr<RunState>& st) {
  if (st->AllSubmitted()) return;
  ++st->submitted;
  core::GlobalTxnSpec spec = st->generator->NextGlobal(st->rng);
  st->mdbs->Submit(std::move(spec),
                   [st](const core::GlobalTxnResult& /*result*/) {
                     ++st->completed;
                     if (st->completed >= st->config.target_global_txns) {
                       st->stop_locals = true;
                       st->done_at = st->loop->Now();
                       return;
                     }
                     if (st->config.think_time > 0) {
                       st->loop->ScheduleAfter(st->config.think_time, [st]() {
                         RunGlobalClient(st);
                       });
                     } else {
                       RunGlobalClient(st);
                     }
                   });
}

void RunLocalClient(const std::shared_ptr<RunState>& st, SiteId site) {
  if (st->stop_locals) return;
  core::LocalTxnSpec spec =
      st->generator->NextLocal(st->rng, site, st->local_table);
  st->mdbs->SubmitLocal(std::move(spec),
                        [st, site](const core::LocalTxnResult& /*result*/) {
                          if (st->stop_locals) return;
                          st->loop->ScheduleAfter(
                              st->config.think_time > 0
                                  ? st->config.think_time
                                  : 1 * sim::kMillisecond,
                              [st, site]() { RunLocalClient(st, site); });
                        });
}

void InstallFailureInjector(const std::shared_ptr<RunState>& st) {
  if (st->config.p_prepared_abort <= 0) return;
  for (SiteId s = 0; s < st->config.num_sites; ++s) {
    ltm::Ltm* ltm = st->mdbs->ltm(s);
    st->mdbs->agent(s)->set_prepared_hook(
        [st, ltm, s](const TxnId& gtid, LtmTxnHandle handle) {
          if (!st->rng.NextBool(st->config.p_prepared_abort)) return;
          const sim::Duration delay = static_cast<sim::Duration>(
              st->rng.NextUint64(static_cast<uint64_t>(
                                     st->config.prepared_abort_max_delay) +
                                 1));
          if (st->config.tracer != nullptr &&
              st->config.tracer->Admit(gtid)) {
            trace::Event e;
            e.kind = trace::EventKind::kInjectFailure;
            e.txn = gtid;
            e.site = s;
            e.value = delay;
            st->config.tracer->Record(std::move(e));
          }
          st->loop->ScheduleAfter(delay, [ltm, handle]() {
            // The handle may already be superseded by a resubmission or
            // committed; injection then fails harmlessly — exactly like a
            // real LDBS that no longer knows the transaction.
            (void)ltm->InjectUnilateralAbort(handle);
          });
        });
  }
}

void LoadData(const std::shared_ptr<RunState>& st) {
  const WorkloadConfig& config = st->config;
  // Sharded mode: each key lives only at its owning site; the generator
  // routes all access there. Legacy mode replicates every key everywhere.
  const shard::ShardMap* map = st->mdbs->directory() != nullptr
                                   ? &st->mdbs->directory()->Current()
                                   : nullptr;
  for (int t = 0; t < config.tables_per_site; ++t) {
    auto id = st->mdbs->CreateTableEverywhere(StrCat("t", t));
    assert(id.ok());
    for (SiteId s = 0; s < config.num_sites; ++s) {
      for (int64_t k = 0; k < config.rows_per_table; ++k) {
        if (map != nullptr && map->OwnerOfKey(k) != s) continue;
        st->mdbs->LoadRow(s, *id, k,
                          db::Row{{"val", db::Value(int64_t{0})}});
      }
    }
  }
  // Dedicated locally-updateable table for CGM's partition restriction.
  if (config.system == System::kCGM && config.local_clients_per_site > 0) {
    auto id = st->mdbs->CreateTableEverywhere("local");
    assert(id.ok());
    st->local_table = *id;
    for (SiteId s = 0; s < config.num_sites; ++s) {
      for (int64_t k = 0; k < config.rows_per_table; ++k) {
        st->mdbs->LoadRow(s, *id, k,
                          db::Row{{"val", db::Value(int64_t{0})}});
      }
    }
  }
}

void ValidateHistory(const std::shared_ptr<RunState>& st, RunResult& result) {
  if (!st->config.record_history) return;
  result.history_checked = true;
  const auto& ops = st->mdbs->recorder().ops();
  result.history_ops = ops.size();
  const std::vector<history::Op> committed =
      history::CommittedProjection(ops);
  // One CG serves both its acyclicity check and the view check's
  // first candidate order.
  const history::TxnGraph cg = history::BuildCommitOrderGraph(committed);
  result.commit_graph_acyclic = !cg.HasCycle();
  result.replay_error = history::VerifyReplayMatchesRecorded(committed);
  result.replay_consistent = result.replay_error.empty();
  result.order_invariant_error = history::CheckOrderInvariant(ops);
  result.order_invariant_ok = result.order_invariant_error.empty();
  result.atomicity_error = history::CheckGlobalAtomicity(ops);
  result.atomicity_ok = result.atomicity_error.empty();
  const history::ViewCheckResult check =
      history::CheckViewSerializability(committed, cg, /*max_txns=*/8);
  result.verdict = check.verdict;
  result.verdict_detail = check.reason;
}

}  // namespace

bool Driver::RunInSlices(sim::EventLoop& loop, sim::Time until,
                         const std::function<bool()>& done,
                         const std::function<void()>& after_slice) {
  while (!done() && loop.Now() < until && !loop.Empty() &&
         !loop.budget_exhausted()) {
    loop.RunUntil(std::min(loop.Now() + 100 * sim::kMillisecond, until));
    after_slice();
  }
  return !loop.budget_exhausted();
}

RunResult Driver::Run(const WorkloadConfig& config) {
  if (const Status valid = config.Validate(); !valid.ok()) {
    return RunResult{.config_error = valid.message()};
  }
  sim::EventLoop loop;
  loop.set_max_events(200'000'000);
  // The run's series grows as a streaming fold on the tracer instead of a
  // post-hoc pass over a materialized event vector, so it stays complete
  // even when the tracer's bounded ring has evicted the early records.
  trace::TimeSeriesBuilder series_builder;
  trace::TracerStats trace_before;
  if (config.tracer != nullptr) {
    config.tracer->set_loop(&loop);
    trace_before = config.tracer->stats();
    config.tracer->AddFold(&series_builder);
  }

  std::unique_ptr<core::Mdbs> own_mdbs;
  std::unique_ptr<cgm::CgmMdbs> own_cgm;
  core::Mdbs* mdbs = nullptr;
  if (config.system == System::kCGM) {
    own_cgm = std::make_unique<cgm::CgmMdbs>(config.ToCgmConfig(), &loop);
    mdbs = &own_cgm->mdbs();
  } else {
    own_mdbs = std::make_unique<core::Mdbs>(config.ToMdbsConfig(), &loop);
    mdbs = own_mdbs.get();
  }

  Generator generator(config, config.seed);
  if (mdbs->directory() != nullptr) generator.set_directory(mdbs->directory());
  auto st = std::make_shared<RunState>();
  st->config = config;
  st->loop = &loop;
  st->mdbs = mdbs;
  st->generator = &generator;
  st->rng = Rng(config.seed);

  if (config.sn_at_submit) mdbs->SetSnAtSubmit(true);
  LoadData(st);
  InstallFailureInjector(st);
  if (!config.fault_plan.empty()) {
    fault::InstallFaultPlan(config.fault_plan, mdbs, config.tracer);
  }

  for (int c = 0; c < config.global_clients; ++c) {
    loop.ScheduleAfter(0, [st]() { RunGlobalClient(st); });
  }
  for (SiteId s = 0; s < config.num_sites; ++s) {
    for (int c = 0; c < config.local_clients_per_site; ++c) {
      loop.ScheduleAfter(0, [st, s]() { RunLocalClient(st, s); });
    }
  }

  // Periodic observability flushes ride the slice boundaries below: they
  // read state between simulation slices and schedule nothing, so an
  // installed hook cannot perturb the virtual timeline.
  int64_t flushes = 0;
  sim::Time next_flush = config.flush_interval;
  auto maybe_flush = [&]() {
    if (config.flush_interval <= 0 || !config.flush_hook) return;
    if (loop.Now() < next_flush) return;
    FlushSnapshot snap;
    snap.at = loop.Now();
    snap.index = flushes;
    snap.prometheus =
        core::MetricsPrometheusText(mdbs->metrics(), mdbs->site_metrics());
    snap.series = series_builder.Snapshot();
    config.flush_hook(snap);
    ++flushes;
    // Skip ahead past any intervals the run jumped over in one slice.
    next_flush =
        (loop.Now() / config.flush_interval + 1) * config.flush_interval;
  };

  // Run in slices so periodic background timers (deadlock detection) do
  // not stretch the measured completion time past the real end of work.
  RunInSlices(
      loop, config.max_sim_time, [&st]() { return st->done_at >= 0; },
      maybe_flush);
  // Let in-flight recovery work (decision re-deliveries, resubmissions,
  // inquiries) drain before judging the history, so runs truncated right
  // after the last client callback do not surface half-finished
  // transactions to the oracles.
  if (config.drain_grace > 0) {
    const sim::Time grace_end =
        std::min(loop.Now() + config.drain_grace, config.max_sim_time);
    RunInSlices(loop, grace_end, []() { return false; }, maybe_flush);
  }

  RunResult result;
  result.metrics = mdbs->metrics();
  result.site_metrics = mdbs->site_metrics();
  result.flushes = flushes;
  if (config.tracer != nullptr) {
    config.tracer->RemoveFold(&series_builder);
    result.series = series_builder.Finish();
    // Tracing self-observability, as a delta so a tracer reused across
    // runs attributes each run only its own emissions.
    const trace::TracerStats& ts = config.tracer->stats();
    result.metrics.trace_events_emitted = ts.emitted - trace_before.emitted;
    result.metrics.trace_events_dropped = ts.dropped - trace_before.dropped;
    result.metrics.trace_sampled_out =
        ts.sampled_out - trace_before.sampled_out;
  }
  result.messages = mdbs->network().messages_sent();
  result.msgs_dropped = mdbs->network().messages_dropped();
  result.msgs_duplicated = mdbs->network().messages_duplicated();
  result.msgs_reordered = mdbs->network().messages_reordered();
  result.end_time = st->done_at >= 0 ? st->done_at : loop.Now();
  result.events = loop.events_processed();
  result.event_budget_exhausted = loop.budget_exhausted();
  // num_sites() (not config.num_sites): reconfiguration may have
  // provisioned sites mid-run, and their LTM work counts too.
  for (SiteId s = 0; s < mdbs->num_sites(); ++s) {
    const ltm::LtmStats& ls = mdbs->ltm(s)->stats();
    result.ltm.begun += ls.begun;
    result.ltm.committed += ls.committed;
    result.ltm.aborted += ls.aborted;
    result.ltm.unilateral_aborts += ls.unilateral_aborts;
    result.ltm.injected_aborts += ls.injected_aborts;
    result.ltm.lock_timeout_aborts += ls.lock_timeout_aborts;
    result.ltm.deadlock_victim_aborts += ls.deadlock_victim_aborts;
    result.ltm.commands_executed += ls.commands_executed;
    result.ltm.dlu_waits += ls.dlu_waits;
    result.ltm.dlu_rejections += ls.dlu_rejections;
  }
  ValidateHistory(st, result);
  return result;
}

std::string RunResult::Summary() const {
  if (!config_error.empty()) return StrCat("REFUSED: ", config_error);
  std::string out;
  StrAppend(out, "committed=", metrics.global_committed,
            " aborted=", metrics.global_aborted,
            " (cert=", metrics.global_aborted_cert,
            " dml=", metrics.global_aborted_dml,
            ") resub=", metrics.resubmissions,
            " tput=", CommitsPerSecond(), "/s",
            " mean_lat_ms=", metrics.MeanLatencyMs());
  if (msgs_dropped > 0 || msgs_duplicated > 0 || metrics.retransmits > 0) {
    StrAppend(out, " drops=", msgs_dropped, " dups=", msgs_duplicated,
              " retx=", metrics.retransmits);
  }
  if (event_budget_exhausted) StrAppend(out, " EVENT-BUDGET-EXHAUSTED");
  if (history_checked) {
    StrAppend(out, " | CG=", commit_graph_acyclic ? "acyclic" : "CYCLIC",
              " oracle=", history::VerdictName(verdict),
              " replay=", replay_consistent ? "ok" : "INCONSISTENT",
              " atomicity=", atomicity_ok ? "ok" : "VIOLATED");
  }
  return out;
}

}  // namespace hermes::workload
