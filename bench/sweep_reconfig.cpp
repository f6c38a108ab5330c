// E19 — online reconfiguration sweep: epoch-fenced live membership changes
// under load.
//
// Grid: reconfiguration kind {add, remove, replace} x {2PC/SN, 2PC/CSN,
// Paxos Commit f=1/SN} x workload seeds (Mdbs runs CSN as SN under Paxos
// Commit, so a Paxos/CSN cell would only rerun Paxos/SN). Every
// run starts from a 4-site federation with a 16-shard map, fires exactly
// one membership change mid-run via the fault plan, and must finish every
// targeted transaction. Per cell the sweep reports the handoff window, the
// committed-throughput dip inside it and the recovery delay after the
// final map installs (all from the traced run), alongside the fencing
// counters. Gates: the atomicity + view-serializability oracles on every
// run, zero commits under a stale epoch, at least one completed
// reconfiguration per run, and byte-identical serial-vs-2-worker
// fingerprints for one traced run per cell.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/sweeps.h"
#include "fault/fault_plan.h"
#include "runner/runner.h"
#include "trace/binary.h"

namespace hermes::bench {

namespace {

struct ReconfigCell {
  fault::FaultKind kind;
  consensus::ProtocolKind protocol;
  cert::CertifierKind certifier;
  std::string name;
};

const char* KindLabel(fault::FaultKind kind) {
  switch (kind) {
    case fault::FaultKind::kAddSite:
      return "add";
    case fault::FaultKind::kRemoveSite:
      return "remove";
    case fault::FaultKind::kReplaceSite:
      return "replace";
    default:
      return "?";
  }
}

runner::RunSpec ReconfigSpec(const ReconfigCell& cell, uint64_t seed,
                             int txns) {
  runner::RunSpec spec;
  spec.cell = cell.name;
  spec.config.seed = seed;
  spec.config.num_sites = 4;
  spec.config.num_shards = 16;
  spec.config.max_sites = 6;
  spec.config.rows_per_table = 64;
  spec.config.global_clients = 4;
  spec.config.target_global_txns = txns;
  spec.config.protocol = cell.protocol;
  spec.config.paxos_f = 1;
  spec.config.certifier = cell.certifier;
  // Let the drain, residue adoption and decision re-drives settle before
  // the oracles judge the history.
  spec.config.drain_grace = 1 * sim::kSecond;

  // Exactly one membership change, fired mid-run. Site 3 is the only
  // removable site under Paxos Commit f=1 (acceptors 0..2 are protected
  // for life), so every protocol targets it for comparability.
  fault::FaultEvent ev;
  ev.kind = cell.kind;
  ev.at = 150 * sim::kMillisecond;
  if (cell.kind != fault::FaultKind::kAddSite) ev.site = 3;
  spec.config.fault_plan.events.push_back(ev);
  return spec;
}

}  // namespace

ReconfigTimeline AnalyzeTimeline(const std::string& trace_binary) {
  ReconfigTimeline t;
  if (trace_binary.empty()) return t;
  const Result<std::vector<trace::Event>> events =
      trace::ParseBinary(trace_binary);
  if (!events.ok() || events->empty()) return t;

  sim::Time begin = -1;
  sim::Time done = -1;
  std::vector<sim::Time> commits;
  sim::Time end = 0;
  for (const trace::Event& e : *events) {
    end = std::max(end, e.at);
    if (e.kind == trace::EventKind::kReconfigBegin && begin < 0) {
      begin = e.at;
    } else if (e.kind == trace::EventKind::kReconfigDone) {
      done = e.at;
    } else if (e.kind == trace::EventKind::kTxnEnd && e.ok) {
      commits.push_back(e.at);
    }
  }
  if (begin < 0 || done < begin || commits.empty()) return t;

  int64_t before = 0;
  int64_t during = 0;
  sim::Time first_after = -1;
  for (sim::Time c : commits) {
    if (c < begin) {
      ++before;
    } else if (c <= done) {
      ++during;
    } else if (first_after < 0) {
      first_after = c;
    }
  }
  const double before_rate =
      begin > 0 ? static_cast<double>(before) / static_cast<double>(begin)
                : 0.0;
  t.window_ms = static_cast<double>(done - begin) / 1000.0;
  if (before_rate > 0 && done > begin) {
    const double during_rate =
        static_cast<double>(during) / static_cast<double>(done - begin);
    t.dip_pct = 100.0 * (1.0 - during_rate / before_rate);
  }
  t.recovery_ms = first_after >= 0
                      ? static_cast<double>(first_after - done) / 1000.0
                      : static_cast<double>(end - done) / 1000.0;
  t.valid = true;
  return t;
}

int RunReconfigSweep(const SweepArgs& args) {
  const int num_seeds = args.quick ? 2 : 4;
  const int txns = args.quick ? 60 : 120;
  std::printf(
      "E19 — online reconfiguration: live add/remove/replace under load\n"
      "(4 sites, 16 shards, max_sites=6, one membership change at t=150ms,"
      "\n %d seeds per cell, oracles + stale-epoch tripwire on every run%s)"
      "\n\n",
      num_seeds, args.quick ? ", quick" : "");

  const fault::FaultKind kinds[] = {fault::FaultKind::kAddSite,
                                    fault::FaultKind::kRemoveSite,
                                    fault::FaultKind::kReplaceSite};
  const consensus::ProtocolKind protocols[] = {
      consensus::ProtocolKind::k2PC, consensus::ProtocolKind::kPaxosCommit};
  const cert::CertifierKind certifiers[] = {cert::CertifierKind::kSn,
                                            cert::CertifierKind::kCsn};

  std::vector<ReconfigCell> cells;
  for (fault::FaultKind kind : kinds) {
    for (consensus::ProtocolKind protocol : protocols) {
      for (cert::CertifierKind certifier : certifiers) {
        const bool paxos = protocol == consensus::ProtocolKind::kPaxosCommit;
        if (paxos && certifier == cert::CertifierKind::kCsn) continue;
        cells.push_back(ReconfigCell{
            kind, protocol, certifier,
            StrCat(KindLabel(kind), "/", paxos ? "paxos" : "2pc", "/",
                   certifier == cert::CertifierKind::kCsn ? "csn" : "sn")});
      }
    }
  }

  std::vector<runner::RunSpec> specs;
  std::string base_config;
  for (const ReconfigCell& cell : cells) {
    for (int s = 0; s < num_seeds; ++s) {
      specs.push_back(
          ReconfigSpec(cell, 9100 + static_cast<uint64_t>(s), txns));
      // One traced run per cell feeds the dip/recovery columns and the
      // determinism sub-grid.
      specs.back().capture_trace = s == 0;
      if (base_config.empty()) base_config = specs.back().config.ToString();
    }
  }

  runner::Aggregator agg;
  Result<std::vector<runner::RunOutput>> outputs =
      RunGrid(specs, args.workers, agg);
  if (!outputs.ok()) return 2;

  std::vector<ReconfigTimeline> timelines(cells.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].capture_trace) {
      timelines[i / static_cast<size_t>(num_seeds)] =
          AnalyzeTimeline((*outputs)[i].trace_binary);
    }
  }

  TablePrinter table({"cell", "committed", "aborted", "rows moved",
                      "residue", "forced abrt", "refusals", "refreshes",
                      "stale commits", "win ms", "dip %", "recov ms",
                      "tput/s", "history"});
  bool all_ok = true;
  for (size_t c = 0; c < cells.size(); ++c) {
    const runner::CellAggregate& cell = agg.Cell(cells[c].name);
    const int64_t committed = static_cast<int64_t>(cell.Sum("committed"));
    const int64_t aborted = static_cast<int64_t>(cell.Sum("aborted"));
    bool ok = true;
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].cell != cells[c].name) continue;
      const workload::RunResult& r = (*outputs)[i].result;
      ok = ok && r.GuaranteesHold();
      // Every run must complete its membership change and never commit
      // under a stale epoch.
      ok = ok && r.metrics.reconfig_completed >= 1;
      ok = ok && r.metrics.commits_stale_epoch == 0;
    }
    // Termination: every targeted transaction reached a decision across
    // the epoch changes (none lost in a handoff).
    ok = ok &&
         committed + aborted == static_cast<int64_t>(num_seeds) * txns;
    all_ok = all_ok && ok;
    const ReconfigTimeline& t = timelines[c];
    table.AddRow(cells[c].name, committed, aborted,
                 static_cast<int64_t>(cell.Sum("reconfig_rows_moved")),
                 static_cast<int64_t>(cell.Sum("reconfig_residue_adopted")),
                 static_cast<int64_t>(cell.Sum("reconfig_forced_aborts")),
                 static_cast<int64_t>(cell.Sum("epoch_refusals")),
                 static_cast<int64_t>(cell.Sum("epoch_map_refreshes")),
                 static_cast<int64_t>(cell.Sum("commits_stale_epoch")),
                 t.valid ? Fixed2(t.window_ms) : "-",
                 t.valid ? Fixed2(t.dip_pct) : "-",
                 t.valid ? Fixed2(t.recovery_ms) : "-", cell.Mean("tput"),
                 ok ? "ATOMIC+VSR" : "VIOLATED");
  }

  // Determinism sub-grid: the traced run of every cell, serially and on 2
  // workers — fingerprints must match byte for byte even across a live
  // membership change.
  std::vector<runner::RunSpec> det;
  for (size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].capture_trace) det.push_back(specs[i]);
  }
  Result<DeterminismRuns> det_runs = RunDeterminismGrid(det, "reconfig");
  if (!det_runs.ok()) return 2;
  all_ok = all_ok && det_runs->identical;

  const bool exported =
      args.trace_out.empty() ||
      WriteTraceArtifacts(args.trace_out, det_runs->serial.front());

  const int rc = FinishSweep("E19_reconfig", base_config, 9100,
                             args.workers, table, agg);
  std::printf(
      "\nExpected shape: every cell completes its membership change with\n"
      "zero stale-epoch commits; remove/replace shows prepared residue\n"
      "adoption and epoch refusals as in-flight coordinators chase the\n"
      "moving shards, while add only rebalances. The throughput dip is\n"
      "bounded by the drain window and recovery is immediate after the\n"
      "final map installs. Determinism sub-grid: serial == 2 workers, "
      "%s.\n",
      det_runs->identical ? "byte-identical" : "DIVERGED");
  if (!all_ok || !exported) return 1;
  return rc;
}

}  // namespace hermes::bench
