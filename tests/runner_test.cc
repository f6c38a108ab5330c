// Tests for the parallel experiment harness: determinism of parallel
// execution, order-independent aggregation (per-run Metrics included),
// error propagation, and the artifact's shortest round-tripping doubles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "core/metrics.h"
#include "fault/fault_plan.h"
#include "runner/aggregate.h"
#include "runner/runner.h"
#include "trace/binary.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes {
namespace {

using runner::CellAggregate;
using runner::RunOutput;
using runner::RunSpec;
using runner::Stat;

std::vector<RunSpec> SmallGrid(int seeds, bool capture_trace) {
  std::vector<RunSpec> specs;
  for (int s = 0; s < seeds; ++s) {
    RunSpec spec;
    spec.cell = s % 2 == 0 ? "even" : "odd";
    spec.capture_trace = capture_trace;
    spec.config.seed = 1000 + static_cast<uint64_t>(s);
    spec.config.num_sites = 3;
    spec.config.rows_per_table = 32;
    spec.config.global_clients = 4;
    spec.config.local_clients_per_site = 1;
    spec.config.target_global_txns = 20;
    spec.config.p_prepared_abort = 0.1;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(100);
  const Status s = runner::ParallelFor(
      hits.size(), 4, [&](size_t i) { ++hits[i]; });
  ASSERT_TRUE(s.ok()) << s.ToString();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroTasksIsOk) {
  EXPECT_TRUE(runner::ParallelFor(0, 4, [](size_t) { FAIL(); }).ok());
}

TEST(ParallelFor, ExceptionFailsSweepCleanly) {
  // A throwing task must fail the sweep with an Internal status carrying
  // the exception text — never crash, hang, or silently succeed.
  for (int workers : {1, 4}) {
    std::atomic<int> started{0};
    const Status s = runner::ParallelFor(64, workers, [&](size_t i) {
      ++started;
      if (i == 7) throw std::runtime_error("boom at seven");
    });
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_NE(s.message().find("boom at seven"), std::string::npos)
        << s.ToString();
    EXPECT_GE(started.load(), 1);
  }
}

TEST(ParallelFor, StopsClaimingTasksAfterFailure) {
  // After a failure, workers stop pulling new indices; with one worker
  // the tasks after the throwing one must never start.
  std::atomic<int> ran{0};
  const Status s = runner::ParallelFor(1000, 1, [&](size_t i) {
    ++ran;
    if (i == 3) throw std::runtime_error("stop");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(ran.load(), 4);
}

TEST(ParallelFor, SleepTasksRunConcurrently) {
  // Wall-clock proof of parallel dispatch that works even on a single
  // hardware thread: 8 sleeping tasks on 8 workers must overlap. Serially
  // they take >= 400 ms; concurrently roughly one sleep. The 3x bound
  // mirrors the speedup the harness must reach on >= 8 real cores.
  const auto start = std::chrono::steady_clock::now();
  const Status s = runner::ParallelFor(8, 8, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(s.ok());
  EXPECT_LT(ms, 400.0 / 3.0) << "8 x 50ms sleeps took " << ms
                             << "ms on 8 workers: no overlap";
}

TEST(Runner, ParallelMatchesSerialByteForByte) {
  // The tentpole guarantee: per-run trace and metrics are byte-identical
  // whether the sweep executes serially or on N workers.
  const std::vector<RunSpec> specs = SmallGrid(8, true);
  Result<std::vector<RunOutput>> serial = runner::RunAll(specs, {.workers = 1});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int workers : {2, 4, 8}) {
    Result<std::vector<RunOutput>> parallel =
        runner::RunAll(specs, {.workers = workers});
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ(runner::Fingerprint((*parallel)[i]),
                runner::Fingerprint((*serial)[i]))
          << "run " << i << " diverged with " << workers << " workers";
      EXPECT_FALSE((*parallel)[i].trace_binary.empty());
    }
  }
}

TEST(Runner, ChaosRunsMatchSerialByteForByte) {
  // Fault-plan runs — crashes, recoveries, inquiries and all — must be as
  // deterministic as fault-free ones: identical fingerprints (including
  // the full trace) serially and on 2 workers.
  std::vector<RunSpec> specs;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RunSpec spec;
    spec.cell = "chaos";
    spec.capture_trace = true;
    spec.config.seed = 3000 + seed;
    spec.config.num_sites = 3;
    spec.config.rows_per_table = 32;
    spec.config.global_clients = 4;
    spec.config.target_global_txns = 20;
    spec.config.net_loss_prob = 0.02;
    spec.config.drain_grace = 1 * sim::kSecond;
    spec.config.orphan_abort_timeout = 800 * sim::kMillisecond;
    fault::ChaosOptions opts;
    opts.num_sites = 3;
    opts.horizon = 500 * sim::kMillisecond;
    spec.config.fault_plan = fault::GenerateChaosPlan(seed, opts);
    specs.push_back(std::move(spec));
  }
  Result<std::vector<RunOutput>> serial = runner::RunAll(specs, {.workers = 1});
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Result<std::vector<RunOutput>> parallel =
      runner::RunAll(specs, {.workers = 2});
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_EQ(parallel->size(), serial->size());
  bool any_crash = false;
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(runner::Fingerprint((*parallel)[i]),
              runner::Fingerprint((*serial)[i]))
        << "chaos run " << i << " diverged";
    EXPECT_TRUE((*serial)[i].result.atomicity_ok)
        << (*serial)[i].result.atomicity_error;
    if ((*serial)[i].result.metrics.coordinator_crashes > 0) any_crash = true;
  }
  EXPECT_TRUE(any_crash) << "no chaos plan actually crashed a site";
}

TEST(Runner, CapturedTraceRoundTripsThroughParser) {
  // The capture decodes to exactly the events a direct Driver::Run with a
  // private tracer stores for the same config.
  const std::vector<RunSpec> specs = SmallGrid(1, true);
  Result<std::vector<RunOutput>> out = runner::RunAll(specs, {.workers = 1});
  ASSERT_TRUE(out.ok());
  Result<std::vector<trace::Event>> events =
      trace::ParseBinary((*out)[0].trace_binary);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_FALSE(events->empty());

  workload::WorkloadConfig config = specs[0].config;
  trace::Tracer tracer(specs[0].trace_options);
  config.tracer = &tracer;
  workload::Driver::Run(config);
  std::vector<trace::Event> stored;
  tracer.ForEach([&](const trace::Event& e) { stored.push_back(e); });
  EXPECT_EQ(*events, stored);
}

TEST(Runner, FingerprintCoversEveryCaptureByte) {
  // Serial-vs-parallel byte identity of the trace rests on Fingerprint
  // reading the capture: a single flipped byte must change the digest.
  Result<std::vector<RunOutput>> out =
      runner::RunAll(SmallGrid(1, true), {.workers = 1});
  ASSERT_TRUE(out.ok());
  const std::string before = runner::Fingerprint((*out)[0]);
  std::string& capture = (*out)[0].trace_binary;
  ASSERT_FALSE(capture.empty());
  for (const size_t at : {size_t{0}, capture.size() / 2, capture.size() - 1}) {
    capture[at] = static_cast<char>(capture[at] ^ 0x01);
    EXPECT_NE(runner::Fingerprint((*out)[0]), before) << "byte " << at;
    capture[at] = static_cast<char>(capture[at] ^ 0x01);
  }
  EXPECT_EQ(runner::Fingerprint((*out)[0]), before);
}

TEST(Runner, CpuBoundSpeedupOnManyCores) {
  // The acceptance bar: >= 3x faster with 8 workers on a >= 32-seed sweep.
  // Only measurable with enough real cores; on smaller machines the
  // sleep-based ParallelFor test above covers parallel dispatch.
  if (std::thread::hardware_concurrency() < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  const std::vector<RunSpec> specs = SmallGrid(32, false);
  const auto t0 = std::chrono::steady_clock::now();
  Result<std::vector<RunOutput>> serial = runner::RunAll(specs, {.workers = 1});
  const auto t1 = std::chrono::steady_clock::now();
  Result<std::vector<RunOutput>> parallel =
      runner::RunAll(specs, {.workers = 8});
  const auto t2 = std::chrono::steady_clock::now();
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  const double serial_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double parallel_ms =
      std::chrono::duration<double, std::milli>(t2 - t1).count();
  EXPECT_GE(serial_ms / parallel_ms, 3.0)
      << "serial " << serial_ms << "ms, 8 workers " << parallel_ms << "ms";
}

TEST(Metrics, MergeSumsEveryCounterAndMaxesLatency) {
  // Every table field nonzero in both operands, with b's latency_max the
  // smaller one, so a missed or mis-merged field shows in its entry.
  core::Metrics a, b;
  const auto counters = core::MetricsCounters();
  for (size_t i = 0; i < counters.size(); ++i) {
    a.*counters[i].field = static_cast<int64_t>(i) + 1;
    b.*counters[i].field = static_cast<int64_t>(i) + 1000;
  }
  b.latency_max = 1;
  a.latency_hist.Add(10);
  b.latency_hist.Add(2000);
  core::Metrics merged = a;
  merged.Merge(b);

  const auto ea = a.CounterEntries();
  const auto eb = b.CounterEntries();
  const auto em = merged.CounterEntries();
  ASSERT_EQ(em.size(), counters.size());
  for (size_t i = 0; i < em.size(); ++i) {
    EXPECT_STREQ(em[i].first, counters[i].name);
    const std::string name = em[i].first;
    const int64_t want = name == "latency_max_us"
                             ? std::max(ea[i].second, eb[i].second)
                             : ea[i].second + eb[i].second;
    EXPECT_EQ(em[i].second, want) << name;
  }
  EXPECT_EQ(merged.latency_hist.count(), 2);
  EXPECT_EQ(merged.latency_hist.max(), 2000);
}

TEST(Aggregate, StatTracksCountSumMinMax) {
  Stat s;
  s.Add(3);
  s.Add(-1);
  s.Add(10);
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.sum, 12);
  EXPECT_DOUBLE_EQ(s.min, -1);
  EXPECT_DOUBLE_EQ(s.max, 10);
  EXPECT_DOUBLE_EQ(s.mean(), 4);
}

TEST(Aggregate, StatMergeIsOrderIndependent) {
  Stat a, b, empty;
  a.Add(1);
  a.Add(5);
  b.Add(-2);
  Stat ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  ba.Merge(empty);
  EXPECT_EQ(ab.count, ba.count);
  EXPECT_DOUBLE_EQ(ab.sum, ba.sum);
  EXPECT_DOUBLE_EQ(ab.min, ba.min);
  EXPECT_DOUBLE_EQ(ab.max, ba.max);
}

TEST(Aggregate, HistogramMergeIsOrderIndependent) {
  trace::Histogram a, b;
  for (int64_t v : {1, 5, 100, 7000}) a.Add(v);
  for (int64_t v : {2, 300}) b.Add(v);
  trace::Histogram ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
  for (int i = 0; i < trace::Histogram::kBuckets; ++i) {
    EXPECT_EQ(ab.bucket(i), ba.bucket(i)) << "bucket " << i;
  }
}

TEST(Aggregate, CellRunAggregationIsOrderIndependent) {
  // Two permutations of the same runs must produce identical aggregates
  // (modulo the seed list, which records insertion order).
  const std::vector<RunSpec> specs = SmallGrid(4, false);
  Result<std::vector<RunOutput>> outs = runner::RunAll(specs, {.workers = 1});
  ASSERT_TRUE(outs.ok());
  CellAggregate fwd, rev;
  for (size_t i = 0; i < outs->size(); ++i) {
    fwd.AddRun(specs[i].config.seed, (*outs)[i].result);
  }
  for (size_t i = outs->size(); i-- > 0;) {
    rev.AddRun(specs[i].config.seed, (*outs)[i].result);
  }
  ASSERT_EQ(fwd.stats.size(), rev.stats.size());
  for (size_t i = 0; i < fwd.stats.size(); ++i) {
    EXPECT_EQ(fwd.stats[i].first, rev.stats[i].first);
    EXPECT_DOUBLE_EQ(fwd.stats[i].second.sum, rev.stats[i].second.sum);
    EXPECT_DOUBLE_EQ(fwd.stats[i].second.min, rev.stats[i].second.min);
    EXPECT_DOUBLE_EQ(fwd.stats[i].second.max, rev.stats[i].second.max);
    EXPECT_EQ(fwd.stats[i].second.count, rev.stats[i].second.count);
  }
  EXPECT_EQ(fwd.latency.count(), rev.latency.count());
  EXPECT_EQ(fwd.latency.Percentile(95), rev.latency.Percentile(95));
}

TEST(Aggregate, JsonDoubleIsShortestRoundTrip) {
  for (double v : {0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 581.48, 1e300, -2e-9}) {
    std::string s;
    json::AppendDouble(s, v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  std::string whole;
  json::AppendDouble(whole, 42.0);
  EXPECT_EQ(whole, "42");
}

}  // namespace
}  // namespace hermes
