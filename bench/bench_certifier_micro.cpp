// E8 — microbenchmarks of the certifier's data paths (google-benchmark).
//
// The paper emphasizes that the Certifier is built from "simple algorithms
// that can be replicated onto as many sites as needed"; these benchmarks
// quantify the per-operation cost of every certifier data structure: alive
// interval certification, commit-certification SN scan, agent log append
// and replay, serial number generation, and the commit-graph admission of
// the CGM baseline for comparison.

#include <benchmark/benchmark.h>

#include <string>

#include "cert/csn_certifier.h"
#include "cgm/commit_graph.h"
#include "core/agent_log.h"
#include "core/alive_intervals.h"
#include "core/serial_number.h"
#include "history/graphs.h"
#include "history/view_checker.h"
#include "sim/event_loop.h"
#include "sim/site_clock.h"
#include "trace/trace.h"

namespace hermes {
namespace {

core::AliveIntervalTable MakeTable(int entries) {
  core::AliveIntervalTable table;
  for (int i = 0; i < entries; ++i) {
    table.Insert(TxnId::MakeGlobal(0, i),
                 core::AliveInterval{i * 10, i * 10 + 1000},
                 core::SerialNumber{i, 0, 0});
  }
  return table;
}

void BM_AliveIntervalCertification(benchmark::State& state) {
  const auto table = MakeTable(static_cast<int>(state.range(0)));
  const core::AliveInterval candidate{500, 600};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.CertifiableAgainstAll(candidate));
  }
}
BENCHMARK(BM_AliveIntervalCertification)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_CommitCertificationSnScan(benchmark::State& state) {
  const auto table = MakeTable(static_cast<int>(state.range(0)));
  const TxnId self = TxnId::MakeGlobal(0, 0);  // smallest SN
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.SmallestSerialNumber(self));
  }
}
BENCHMARK(BM_CommitCertificationSnScan)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_AliveIntervalInsertRemove(benchmark::State& state) {
  auto table = MakeTable(static_cast<int>(state.range(0)));
  const TxnId id = TxnId::MakeGlobal(1, 999);
  for (auto _ : state) {
    table.Insert(id, core::AliveInterval{0, 1}, core::SerialNumber{1, 1, 1});
    table.Remove(id);
  }
}
BENCHMARK(BM_AliveIntervalInsertRemove)->Arg(8)->Arg(512);

void BM_AgentLogAppendCommand(benchmark::State& state) {
  core::AgentLog log;
  const TxnId gtid = TxnId::MakeGlobal(0, 1);
  const db::Command cmd = db::MakeAddKey(0, 42, "v", db::Value(int64_t{1}));
  for (auto _ : state) {
    log.Append({.kind = core::LogRecordKind::kCommand,
                .gtid = gtid,
                .command = cmd});
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_AgentLogAppendCommand);

void BM_AgentLogReplay(benchmark::State& state) {
  core::AgentLog log;
  const TxnId gtid = TxnId::MakeGlobal(0, 1);
  for (int i = 0; i < state.range(0); ++i) {
    log.Append({.kind = core::LogRecordKind::kCommand,
                .gtid = gtid,
                .command = db::MakeAddKey(0, i, "v", db::Value(int64_t{1}))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.CommandsOf(gtid));
  }
}
BENCHMARK(BM_AgentLogReplay)->Arg(4)->Arg(16)->Arg(64);

void BM_SerialNumberGeneration(benchmark::State& state) {
  sim::EventLoop loop;
  sim::SiteClock clock(&loop, 0, 100);
  core::SerialNumberGenerator gen(3, &clock);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.Next());
  }
}
BENCHMARK(BM_SerialNumberGeneration);

void BM_CsnCommitCheck(benchmark::State& state) {
  // CSN commit certification: a decided subtransaction scanning `range`
  // co-prepared peers that are still undecided (parked with invalid SNs).
  // This is the cost the CSN scheme moves from prepare to commit time.
  const int peers = static_cast<int>(state.range(0));
  cert::CsnCertifier certifier(core::CertPolicy::kFull);
  for (int i = 0; i < peers; ++i) {
    certifier.OnPrepared(TxnId::MakeGlobal(0, i),
                         core::AliveInterval{i * 10, i * 10 + 1000},
                         core::SerialNumber{});
  }
  const TxnId self = TxnId::MakeGlobal(1, 999);
  certifier.OnPrepared(self, core::AliveInterval{0, 1000},
                       core::SerialNumber{});
  certifier.OnCommitDecision(self, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(certifier.CertifyCommit(self, nullptr));
  }
}
BENCHMARK(BM_CsnCommitCheck)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

void BM_CgmCommitGraphAdmission(benchmark::State& state) {
  // Steady state: `range` transactions in commit processing across 16
  // sites; measure one admission attempt (the paper's comparison point:
  // the centralized structure every commit must consult).
  const int txns = static_cast<int>(state.range(0));
  cgm::CommitGraph graph;
  for (int i = 0; i < txns; ++i) {
    graph.TryAdd(TxnId::MakeGlobal(0, i),
                 {static_cast<SiteId>((2 * i) % 16),
                  static_cast<SiteId>((2 * i + 1) % 16)});
  }
  const TxnId probe = TxnId::MakeGlobal(1, 777);
  for (auto _ : state) {
    if (graph.TryAdd(probe, {0, 15})) graph.Remove(probe);
  }
}
BENCHMARK(BM_CgmCommitGraphAdmission)->Arg(2)->Arg(16)->Arg(128);

void BM_CommitOrderGraphCheck(benchmark::State& state) {
  // Oracle-side cost: CG construction + cycle check over a synthetic
  // committed history of `range` transactions at 4 sites.
  std::vector<history::Op> ops;
  const int txns = static_cast<int>(state.range(0));
  for (int i = 0; i < txns; ++i) {
    for (SiteId s = 0; s < 4; ++s) {
      history::Op op;
      op.kind = history::OpKind::kLocalCommit;
      op.subtxn = SubTxnId{TxnId::MakeGlobal(0, i), 0};
      op.site = s;
      op.seq = ops.size();
      ops.push_back(op);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(history::CommitGraphAcyclic(ops));
  }
}
BENCHMARK(BM_CommitOrderGraphCheck)->Arg(8)->Arg(32)->Arg(128);

trace::Event MakeCertEvent() {
  trace::Event e;
  e.kind = trace::EventKind::kCertReady;
  e.txn = TxnId::MakeGlobal(0, 7);
  e.site = 3;
  e.resubmission = 1;
  e.sn = core::SerialNumber{42, 0, 7};
  return e;
}

void BM_TracerRecordEnabled(benchmark::State& state) {
  // Cost of one enabled trace hook: build the typed event + Record.
  sim::EventLoop loop;
  trace::Tracer tracer(&loop);
  trace::Tracer* t = &tracer;
  for (auto _ : state) {
    if (t != nullptr) t->Record(MakeCertEvent());
    if (tracer.size() >= 1u << 20) tracer.Clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecordEnabled);

void BM_TracerRecordSampledOut(benchmark::State& state) {
  // Cost of one enabled hook whose transaction the 1/16 sampler drops: the
  // hook asks Admit first and builds no event.
  trace::TracerOptions options;
  options.sample_period = 16;
  sim::EventLoop loop;
  trace::Tracer tracer(options, &loop);
  trace::Tracer* t = &tracer;
  trace::Event e = MakeCertEvent();
  while (tracer.KeepsTxn(e.txn)) ++e.txn.seq;
  const TxnId dropped = e.txn;
  for (auto _ : state) {
    if (t != nullptr && t->Admit(dropped)) {
      trace::Event event = MakeCertEvent();
      event.txn = dropped;
      t->Record(std::move(event));
    }
  }
  if (tracer.size() != 0) state.SkipWithError("a sampled-out event was kept");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecordSampledOut);

void BM_TracerToBinary(benchmark::State& state) {
  // Export of a full 64k-record ring whose every record has its own
  // related list (one dictionary entry per record).
  constexpr size_t kRecords = 1 << 16;
  trace::TracerOptions options;
  options.ring_capacity = kRecords;
  sim::EventLoop loop;
  trace::Tracer tracer(options, &loop);
  for (size_t i = 0; i < kRecords; ++i) {
    trace::Event e = MakeCertEvent();
    e.related = {TxnId::MakeGlobal(1, static_cast<int64_t>(i))};
    tracer.Record(std::move(e));
  }
  size_t bytes = 0;
  for (auto _ : state) {
    const std::string capture = tracer.ToBinary();
    bytes = capture.size();
    benchmark::DoNotOptimize(capture.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * bytes));
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * kRecords));
}
BENCHMARK(BM_TracerToBinary);

void BM_TracerDisabledGuard(benchmark::State& state) {
  // Cost of the same hook when tracing is off: a single null check. This is
  // the overhead every instrumented component pays per hook in normal runs
  // (the acceptance bar: indistinguishable from no instrumentation).
  trace::Tracer* t = nullptr;
  benchmark::DoNotOptimize(t);
  for (auto _ : state) {
    if (t != nullptr) t->Record(MakeCertEvent());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerDisabledGuard);

}  // namespace
}  // namespace hermes

BENCHMARK_MAIN();
