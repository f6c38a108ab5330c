// Tests of the Tracer's binary ring buffer and the binary trace format:
// record round-trips over every EventKind, ring growth and overflow
// accounting, the ring's bounded dictionary, the ring's export, the ring's
// packed records at extreme field values and block boundaries,
// per-gtid sampling (also at the hooks), streaming folds, the
// deterministic multi-run merge, truncation handling and the driver's
// mid-run flush hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "runner/runner.h"
#include "sim/event_loop.h"
#include "trace/binary.h"
#include "trace/ring.h"
#include "trace/span.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes {
namespace {

using trace::Event;
using trace::EventKind;
using trace::RefuseKind;
using trace::Tracer;
using trace::TracerOptions;

// An event exercising every encodable field, varied by `i` so consecutive
// events never collapse to the same record bytes.
Event FullEvent(EventKind kind, int i) {
  Event e;
  e.kind = kind;
  e.txn = i % 3 == 0   ? TxnId::MakeGlobal(i % 5, 100 + i)
          : i % 3 == 1 ? TxnId::MakeLocal(i % 5, 200 + i)
                       : TxnId{};
  e.site = i % 7;
  e.peer = i % 2 == 0 ? (i + 1) % 7 : kInvalidSite;
  e.resubmission = i % 4 == 0 ? i % 3 : -1;
  e.value = 1000 + i;
  e.sn = core::SerialNumber{i * 10, i % 5, i % 3};
  e.refuse = trace::kAllRefuseKinds[static_cast<size_t>(i) %
                                    std::size(trace::kAllRefuseKinds)];
  e.ok = i % 2 == 0;
  if (i % 3 == 0) e.detail = "detail-" + std::to_string(i);
  if (i % 4 == 0) {
    e.related = {TxnId::MakeGlobal(1, i), TxnId::MakeLocal(2, i + 1)};
  }
  return e;
}

workload::WorkloadConfig SmallConfig(uint64_t seed) {
  workload::WorkloadConfig config;
  config.seed = seed;
  config.num_sites = 3;
  config.global_clients = 4;
  config.target_global_txns = 40;
  return config;
}

// --- record round-trip -------------------------------------------------------

TEST(BinaryTrace, RoundTripsEveryEventKind) {
  trace::BinaryTraceWriter writer;
  std::vector<Event> original;
  int i = 0;
  for (EventKind kind : trace::kAllEventKinds) {
    Event e = FullEvent(kind, i++);
    e.seq = static_cast<int64_t>(original.size());
    e.at = 1000 * static_cast<int64_t>(original.size());
    original.push_back(e);
    writer.Add(e);
  }
  Result<std::vector<Event>> parsed = trace::ParseBinary(writer.Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  for (size_t k = 0; k < original.size(); ++k) {
    EXPECT_EQ((*parsed)[k], original[k])
        << "kind " << trace::EventKindName(original[k].kind);
  }
}

TEST(BinaryTrace, RoundTripsLongDetailAndManyRelated) {
  Event e = FullEvent(EventKind::kCertRefuse, 0);
  e.seq = 0;
  e.at = 42;
  e.detail = std::string(4096, 'x') + " end";
  e.related.clear();
  for (int i = 0; i < 50; ++i) e.related.push_back(TxnId::MakeGlobal(i, i));
  trace::BinaryTraceWriter writer;
  writer.Add(e);
  Result<std::vector<Event>> parsed = trace::ParseBinary(writer.Finish());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 1u);
  EXPECT_EQ((*parsed)[0], e);
}

TEST(BinaryTrace, DictionaryDeduplicatesRepeatedStrings) {
  trace::BinaryTraceWriter writer;
  for (int i = 0; i < 100; ++i) {
    Event e = FullEvent(EventKind::kMsgDrop, 0);
    e.seq = i;
    e.at = i;
    e.detail = "loss";  // one dictionary entry, not 100
    e.related.clear();
    writer.Add(e);
  }
  const std::string bytes = writer.Finish();
  // Header + one dictionary entry (u32 len + 4 bytes) + 100 records.
  EXPECT_EQ(bytes.size(), trace::kBinaryHeaderSize + 4 + 4 +
                              100 * trace::kBinaryRecordSize);
}

// --- ring buffer -------------------------------------------------------------

TEST(BinaryTrace, RingOverflowKeepsTailAndCountsDrops) {
  TracerOptions options;
  options.ring_capacity = 8;
  Tracer tracer(options);
  for (int i = 0; i < 20; ++i) {
    tracer.Record(FullEvent(EventKind::kMsgSend, i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.stats().emitted, 20);
  EXPECT_EQ(tracer.stats().dropped, 12);
  EXPECT_EQ(tracer.stats().sampled_out, 0);

  // The ring holds exactly the 8 newest records, in emit order.
  std::vector<int64_t> seqs;
  tracer.ForEach([&](const Event& e) { seqs.push_back(e.seq); });
  ASSERT_EQ(seqs.size(), 8u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], static_cast<int64_t>(12 + i));
  }

  // The export carries the drop count in its header.
  trace::BinaryParse parsed = trace::ParseBinaryLenient(tracer.ToBinary());
  EXPECT_FALSE(parsed.truncated);
  EXPECT_EQ(parsed.skipped_records, 0);
  EXPECT_EQ(parsed.dropped, 12);
  EXPECT_EQ(parsed.events.size(), 8u);
  EXPECT_EQ(parsed.events.front().seq, 12);

  // A ring that fills several blocks and takes three times its capacity:
  // nothing is allocated up front, the blocks never exceed a bound that holds for
  // any records, evicted blocks are freed, and the ring keeps exactly the
  // newest `capacity` records.
  constexpr size_t kCapacity = 10000;
  constexpr int kAppends = 3 * static_cast<int>(kCapacity);
  trace::TraceRing ring(kCapacity);
  EXPECT_EQ(ring.allocated(), 0u);
  constexpr size_t block = trace::TraceRing::kBlockBytes;
  // Every block but the oldest (partly evicted) and the newest (partly
  // written) was closed with less than kMaxRecordBytes left, so it holds
  // at least block / kMaxRecordBytes - 1 held records.
  const size_t bound =
      (2 + kCapacity / (block / trace::TraceRing::kMaxRecordBytes - 1)) *
      block;
  size_t peak = 0;
  for (int i = 0; i < kAppends; ++i) {
    ring.Append(FullEvent(EventKind::kMsgSend, i));
    ASSERT_LE(ring.allocated(), bound) << "after append " << i;
    peak = std::max(peak, ring.allocated());
  }
  EXPECT_GE(peak, 3 * block);
  // These records pack to under half the export layout's 80 bytes; a ring
  // that kept its evicted blocks would hold three times as many.
  EXPECT_LT(peak, kCapacity * trace::kBinaryRecordSize / 2);
  EXPECT_EQ(ring.size(), kCapacity);
  EXPECT_EQ(ring.dropped(), kAppends - static_cast<int64_t>(kCapacity));
  int64_t next = kAppends - static_cast<int64_t>(kCapacity);
  ring.ForEach([&](const Event& e) {
    EXPECT_EQ(e, FullEvent(EventKind::kMsgSend, static_cast<int>(next)));
    ++next;
  });
  EXPECT_EQ(next, kAppends);
}

TEST(BinaryTrace, SerializedRingDictionaryOmitsEvictedStrings) {
  TracerOptions options;
  options.ring_capacity = 2;
  Tracer tracer(options);
  for (int i = 0; i < 10; ++i) {
    Event e;
    e.kind = EventKind::kMsgDrop;
    e.detail = "reason-" + std::to_string(i);
    tracer.Record(e);
  }
  const std::string bytes = tracer.ToBinary();
  // Only the two surviving details may appear in the export.
  EXPECT_EQ(bytes.find("reason-0"), std::string::npos);
  EXPECT_NE(bytes.find("reason-8"), std::string::npos);
  EXPECT_NE(bytes.find("reason-9"), std::string::npos);
  Result<std::vector<Event>> parsed = trace::ParseBinary(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].detail, "reason-8");
  EXPECT_EQ((*parsed)[1].detail, "reason-9");
}

TEST(BinaryTrace, RingDictionaryStaysBoundedUnderUniqueStrings) {
  // Status details and related lists are mostly unique; a wrapping ring
  // must not keep every string it ever interned.
  constexpr size_t kCapacity = 8;
  constexpr int kEvents = 10000;
  trace::TraceRing ring(kCapacity);
  std::vector<Event> appended;
  for (int i = 0; i < kEvents; ++i) {
    Event e;
    e.seq = i;
    e.kind = EventKind::kCertRefuse;
    e.detail = "refused #" + std::to_string(i);
    e.related = {TxnId::MakeGlobal(i % 5, i), TxnId::MakeLocal(1, i + 1)};
    ring.Append(e);
    appended.push_back(e);
    ASSERT_LE(ring.dictionary_size(), 4 * kCapacity) << "after append " << i;
  }
  Result<std::vector<Event>> parsed = trace::ParseBinary(ring.Serialize(0));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<Event> last(appended.end() - kCapacity, appended.end());
  EXPECT_EQ(*parsed, last);
}

// --- export ------------------------------------------------------------------

// What a ring's export must equal byte for byte: every held record
// re-encoded through a fresh writer, with the tracer's drop counts.
std::string ReEncoded(const Tracer& tracer) {
  trace::BinaryTraceWriter writer;
  writer.AddDropped(tracer.stats().dropped);
  writer.AddSampledOut(tracer.stats().sampled_out);
  tracer.ForEach([&](const Event& e) { writer.Add(e); });
  return writer.Finish();
}

TEST(BinaryTrace, ExportCopiesHeldRecordsByteForByte) {
  struct Ring {
    const char* name;
    size_t capacity;
    int events;
  };
  constexpr size_t kWrapCapacity = 16;
  for (const Ring& ring : {Ring{"not wrapped", 256, 60},
                           Ring{"wrapped past two rebuilds", kWrapCapacity,
                                300},
                           Ring{"empty", 8, 0}}) {
    SCOPED_TRACE(ring.name);
    TracerOptions options;
    options.ring_capacity = ring.capacity;
    options.sample_period = 3;
    options.sample_seed = 5;
    Tracer tracer(options);
    for (int i = 0; i < ring.events; ++i) {
      Event e = FullEvent(
          trace::kAllEventKinds[static_cast<size_t>(i) %
                                std::size(trace::kAllEventKinds)],
          i);
      // Unique strings, a few repeated ones, and a detail that spells a
      // related list, so records share dictionary entries across fields.
      if (i % 2 == 0) e.related = {TxnId::MakeGlobal(i % 5, i)};
      if (i % 5 == 0) e.related.push_back(TxnId::MakeLocal(2, i + 1));
      e.detail = i % 7 == 0   ? "repeated"
                 : i % 7 == 1 ? trace::EncodeRelated(e.related)
                 : i % 7 == 2 ? ""
                              : "unique #" + std::to_string(i);
      tracer.Record(e);
    }
    if (ring.events > 0) {
      EXPECT_GT(tracer.stats().sampled_out, 0);
    }
    if (ring.capacity == kWrapCapacity) {
      // A rebuild runs after every `capacity` evictions.
      EXPECT_GE(tracer.stats().dropped,
                2 * static_cast<int64_t>(ring.capacity));
    } else {
      EXPECT_EQ(tracer.stats().dropped, 0);
    }

    const std::string bytes = tracer.ToBinary();
    EXPECT_EQ(bytes, ReEncoded(tracer));
    Result<std::vector<Event>> parsed = trace::ParseBinary(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    std::vector<Event> held;
    tracer.ForEach([&](const Event& e) { held.push_back(e); });
    EXPECT_EQ(held.size(), tracer.size());
    EXPECT_EQ(*parsed, held);
  }
}

// --- ring records ------------------------------------------------------------

// An event whose every encodable field takes, in turn, the extremes of its
// type, 0, -1 and their neighbours, so consecutive seq and at deltas
// overflow both ways; its related list carries extreme ids.
Event ExtremeEvent(int i) {
  constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  constexpr int32_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();
  const auto pick64 = [i](int field) {
    const int64_t values[] = {kMin64, kMax64,     0, -1,
                              kMin64 + 1, kMax64 - 1, i};
    return values[(i + field) % std::size(values)];
  };
  const auto pick32 = [i](int field) {
    const int32_t values[] = {kMin32, kMax32, 0, -1, kMin32 + 1, kMax32 - 1};
    return values[(i + field) % std::size(values)];
  };
  Event e = FullEvent(trace::kAllEventKinds[static_cast<size_t>(i) %
                                            std::size(trace::kAllEventKinds)],
                      i);
  e.seq = pick64(0);
  e.at = pick64(1);
  e.value = pick64(2);
  e.txn.seq = pick64(3);
  e.sn.clock = pick64(4);
  e.sn.seq = pick64(5);
  e.txn.site = pick32(6);
  e.sn.coordinator = pick32(7);
  e.site = pick32(8);
  e.peer = pick32(9);
  e.resubmission = pick32(10);
  if (i % 5 == 0) {
    e.related = {TxnId::MakeGlobal(kMin32, kMin64),
                 TxnId::MakeLocal(kMax32, kMax64)};
  }
  return e;
}

// Checks that `ring` holds exactly `expected`, oldest first: ForEach
// yields it, and the export equals its re-encoding through a fresh writer.
void ExpectRingHolds(const trace::TraceRing& ring,
                     const std::vector<Event>& expected) {
  std::vector<Event> held;
  ring.ForEach([&](const Event& e) { held.push_back(e); });
  EXPECT_EQ(held, expected);
  trace::BinaryTraceWriter writer;
  writer.AddDropped(ring.dropped());
  for (const Event& e : expected) writer.Add(e);
  EXPECT_EQ(ring.Serialize(0), writer.Finish());
}

// The newest `capacity` of `events`.
std::vector<Event> Tail(const std::vector<Event>& events, size_t capacity) {
  return {events.end() - std::min(capacity, events.size()), events.end()};
}

struct CollectFold : trace::EventFold {
  std::vector<Event> events;
  void Fold(const Event& e) override { events.push_back(e); }
};

TEST(BinaryTrace, RingRoundTripsExtremeFields) {
  // The records one full block holds: the ring's first block boundary.
  size_t per_block = 0;
  {
    trace::TraceRing probe(1 << 20);
    while (probe.allocated() <= trace::TraceRing::kBlockBytes) {
      probe.Append(ExtremeEvent(static_cast<int>(probe.size())));
    }
    per_block = probe.size() - 1;
  }
  ASSERT_GT(per_block, trace::TraceRing::kBlockBytes /
                           trace::TraceRing::kMaxRecordBytes);
  const int events = 3 * static_cast<int>(per_block) + 5;
  for (size_t capacity :
       {size_t{1}, per_block - 1, per_block, per_block + 1}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    // Straight into a ring: seq and at too take every extreme. Checked
    // at each block boundary of the first fill and after wrapping.
    trace::TraceRing ring(capacity);
    std::vector<Event> appended;
    for (int i = 0; i < events; ++i) {
      appended.push_back(ExtremeEvent(i));
      ring.Append(appended.back());
      const size_t n = appended.size();
      if (n == 1 || n + 1 == per_block || n == per_block ||
          n == per_block + 1 || n == 2 * per_block + 1 ||
          n == static_cast<size_t>(events)) {
        SCOPED_TRACE("after " + std::to_string(n) + " appends");
        ExpectRingHolds(ring, Tail(appended, capacity));
      }
    }

    // Through a tracer: seq gaps from sampling, and at jumping back when
    // the tracer moves to a fresh loop or to none.
    TracerOptions options;
    options.ring_capacity = capacity;
    options.sample_period = 3;
    options.sample_seed = 11;
    sim::EventLoop late;
    late.RunUntil(int64_t{1} << 40);
    sim::EventLoop fresh;
    Tracer tracer(options, &late);
    CollectFold stored;
    tracer.AddFold(&stored);
    for (int i = 0; i < events; ++i) {
      if (i == events / 3) tracer.set_loop(&fresh);
      if (i == 2 * events / 3) tracer.set_loop(nullptr);
      tracer.Record(ExtremeEvent(i));
    }
    EXPECT_GT(tracer.stats().sampled_out, 0);
    std::vector<Event> held;
    tracer.ForEach([&](const Event& e) { held.push_back(e); });
    EXPECT_EQ(held, Tail(stored.events, capacity));
    const std::string bytes = tracer.ToBinary();
    EXPECT_EQ(bytes, ReEncoded(tracer));
    Result<std::vector<Event>> parsed = trace::ParseBinary(bytes);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, held);
  }
}

// --- sampling ----------------------------------------------------------------

TEST(BinaryTrace, SamplingKeepsOrDropsWholeTransactions) {
  TracerOptions options;
  options.sample_period = 4;
  options.sample_seed = 7;
  Tracer tracer(options);
  constexpr int kTxns = 64;
  constexpr int kEventsPerTxn = 5;
  for (int t = 0; t < kTxns; ++t) {
    const TxnId txn = TxnId::MakeGlobal(t % 3, t);
    for (int k = 0; k < kEventsPerTxn; ++k) {
      Event e;
      e.kind = EventKind::kStepStart;
      e.txn = txn;
      e.value = k;
      tracer.Record(e);
    }
  }
  // Every transaction is all-in or all-out, matching KeepsTxn.
  std::set<int64_t> kept;
  tracer.ForEach([&](const Event& e) { kept.insert(e.txn.seq); });
  int kept_txns = 0;
  for (int t = 0; t < kTxns; ++t) {
    const TxnId txn = TxnId::MakeGlobal(t % 3, t);
    if (tracer.KeepsTxn(txn)) {
      ++kept_txns;
      EXPECT_TRUE(kept.count(t)) << "t=" << t;
    } else {
      EXPECT_FALSE(kept.count(t)) << "t=" << t;
    }
  }
  EXPECT_GT(kept_txns, 0);
  EXPECT_LT(kept_txns, kTxns);
  EXPECT_EQ(tracer.size(),
            static_cast<size_t>(kept_txns) * kEventsPerTxn);
  // emitted == stored + sampled_out + dropped, and seq numbers show
  // honest gaps: the emit index advances for sampled-out events too.
  EXPECT_EQ(tracer.stats().emitted, kTxns * kEventsPerTxn);
  EXPECT_EQ(tracer.stats().sampled_out,
            static_cast<int64_t>(kTxns - kept_txns) * kEventsPerTxn);
  EXPECT_EQ(tracer.stats().dropped, 0);

  // Events without a global transaction are never sampled out.
  Event crash;
  crash.kind = EventKind::kSiteCrash;
  crash.site = 1;
  const int64_t before = tracer.stats().sampled_out;
  tracer.Record(crash);
  EXPECT_EQ(tracer.stats().sampled_out, before);
}

TEST(BinaryTrace, SampledTraceYieldsWellFormedSpanForest) {
  workload::WorkloadConfig config = SmallConfig(501);
  TracerOptions sampled;
  sampled.sample_period = 4;
  sampled.sample_seed = 11;
  Tracer sampled_tracer(sampled);
  config.tracer = &sampled_tracer;
  workload::Driver::Run(config);

  Tracer full_tracer;
  config.tracer = &full_tracer;
  workload::Driver::Run(config);

  const trace::SpanForest sampled_forest =
      trace::BuildSpanForest(sampled_tracer);
  const trace::SpanForest full_forest = trace::BuildSpanForest(full_tracer);
  ASSERT_GT(sampled_forest.roots.size(), 0u);
  ASSERT_LT(sampled_forest.roots.size(), full_forest.roots.size());
  // Whole-gtid sampling means every surviving transaction's tree is
  // complete: each sampled root closed with the same span structure it
  // has in the unsampled run.
  for (int32_t root : sampled_forest.roots) {
    const trace::Span& span = sampled_forest.spans[static_cast<size_t>(root)];
    EXPECT_TRUE(sampled_tracer.KeepsTxn(span.txn));
    EXPECT_TRUE(span.closed()) << span.txn.ToString();
    const trace::Span* full = full_forest.Root(span.txn);
    ASSERT_NE(full, nullptr) << span.txn.ToString();
    EXPECT_EQ(span.children.size(), full->children.size())
        << span.txn.ToString();
    EXPECT_EQ(span.begin, full->begin);
    EXPECT_EQ(span.end, full->end);
    EXPECT_EQ(span.ok, full->ok);
  }
}

TEST(BinaryTrace, HooksSkipSampledOutEventsWithoutChangingTheTrace) {
  // Hooks ask Tracer::Admit before they build an event. A sampled run
  // must still hold exactly the events of an unsampled run of the same
  // config whose transactions the sampler keeps (same seq, same time),
  // count every other one as sampled out, and export the bytes those
  // events encode to.
  workload::WorkloadConfig config = SmallConfig(77);
  config.num_sites = 5;
  config.target_global_txns = 80;
  config.protocol = consensus::ProtocolKind::kPaxosCommit;
  config.p_prepared_abort = 0.3;
  config.net_loss_prob = 0.01;
  Tracer full;
  config.tracer = &full;
  const workload::RunResult full_run = workload::Driver::Run(config);
  ASSERT_TRUE(full_run.config_error.empty()) << full_run.config_error;

  TracerOptions options;
  options.sample_period = 16;
  options.sample_seed = 0xE20;
  Tracer sampled(options);
  config.tracer = &sampled;
  workload::Driver::Run(config);

  trace::BinaryTraceWriter expected;
  int64_t sampled_out = 0;
  std::set<EventKind> kinds_sampled_out;
  std::vector<Event> kept;
  full.ForEach([&](const Event& e) {
    if (sampled.KeepsTxn(e.txn)) {
      kept.push_back(e);
      expected.Add(e);
    } else {
      ++sampled_out;
      kinds_sampled_out.insert(e.kind);
    }
  });
  expected.AddSampledOut(sampled_out);
  // The run reaches the hooks of the agent, the coordinator, the LTM and
  // Paxos Commit with transactions the sampler drops.
  for (EventKind kind :
       {EventKind::kCertReady, EventKind::kPrepareSend,
        EventKind::kUnilateralAbort, EventKind::kPaxosVote}) {
    EXPECT_TRUE(kinds_sampled_out.count(kind)) << trace::EventKindName(kind);
  }

  EXPECT_EQ(sampled.stats().emitted, full.stats().emitted);
  EXPECT_EQ(sampled.stats().sampled_out, sampled_out);
  EXPECT_EQ(sampled.stats().dropped, 0);
  std::vector<Event> stored;
  sampled.ForEach([&](const Event& e) { stored.push_back(e); });
  EXPECT_EQ(stored, kept);
  EXPECT_EQ(sampled.ToBinary(), expected.Finish());
}

// --- multi-run merge ---------------------------------------------------------

TEST(BinaryTrace, MergeIsIdenticalAcrossWorkerCounts) {
  std::vector<runner::RunSpec> specs;
  for (int s = 0; s < 3; ++s) {
    runner::RunSpec spec;
    spec.cell = "merge";
    spec.config = SmallConfig(600 + static_cast<uint64_t>(s));
    spec.capture_trace = true;
    specs.push_back(spec);
  }
  Result<std::vector<runner::RunOutput>> serial =
      runner::RunAll(specs, {.workers = 1});
  Result<std::vector<runner::RunOutput>> parallel =
      runner::RunAll(specs, {.workers = 2});
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(runner::Fingerprint((*serial)[i]),
              runner::Fingerprint((*parallel)[i]))
        << "run " << i;
  }
  Result<std::string> merged_serial = runner::MergeBinaryTraces(*serial);
  Result<std::string> merged_parallel = runner::MergeBinaryTraces(*parallel);
  ASSERT_TRUE(merged_serial.ok()) << merged_serial.status().ToString();
  ASSERT_TRUE(merged_parallel.ok());
  EXPECT_EQ(*merged_serial, *merged_parallel);

  // The merge is a valid binary trace holding every run's events in
  // nondecreasing virtual-time order.
  Result<std::vector<Event>> events = trace::ParseBinary(*merged_serial);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  size_t total = 0;
  for (const runner::RunOutput& out : *serial) {
    trace::BinaryParse p = trace::ParseBinaryLenient(out.trace_binary);
    total += p.events.size();
  }
  EXPECT_EQ(events->size(), total);
  for (size_t i = 1; i < events->size(); ++i) {
    EXPECT_LE((*events)[i - 1].at, (*events)[i].at) << "index " << i;
  }

  // A damaged capture fails the merge instead of silently shrinking it.
  std::vector<runner::RunOutput> damaged = *serial;
  damaged[1].trace_binary.resize(damaged[1].trace_binary.size() - 7);
  EXPECT_FALSE(runner::MergeBinaryTraces(damaged).ok());
}

// --- truncation --------------------------------------------------------------

TEST(BinaryTrace, TruncatedFileYieldsWholeRecordsAndIsCounted) {
  trace::BinaryTraceWriter writer;
  for (int i = 0; i < 10; ++i) {
    Event e = FullEvent(EventKind::kTxnEnd, i);
    e.seq = i;
    e.at = i * 100;
    writer.Add(e);
  }
  std::string bytes = writer.Finish();
  // Cut mid-way through the 7th record.
  const size_t records_at = bytes.size() - 10 * trace::kBinaryRecordSize;
  bytes.resize(records_at + 6 * trace::kBinaryRecordSize +
               trace::kBinaryRecordSize / 2);

  EXPECT_FALSE(trace::ParseBinary(bytes).ok());
  trace::BinaryParse parsed = trace::ParseBinaryLenient(bytes);
  EXPECT_TRUE(parsed.truncated);
  EXPECT_EQ(parsed.records_declared, 10);
  EXPECT_EQ(parsed.events.size(), 6u);
  for (size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].seq, static_cast<int64_t>(i));
  }
  ASSERT_FALSE(parsed.warnings.empty());
  EXPECT_NE(parsed.warnings.front().find("6 of 10"), std::string::npos)
      << parsed.warnings.front();
}

TEST(BinaryTrace, RejectsWrongMagicAndVersion) {
  // A file that is not a binary trace (tmstat's path for any other file)
  // recovers nothing and says why.
  const trace::BinaryParse other =
      trace::ParseBinaryLenient("hermes_global_committed 57\n");
  EXPECT_TRUE(other.damaged());
  EXPECT_TRUE(other.events.empty());
  ASSERT_FALSE(other.warnings.empty());
  EXPECT_EQ(other.warnings.front(), "missing binary trace magic");
  EXPECT_FALSE(trace::ParseBinary("HTRX garbage").ok());
  trace::BinaryTraceWriter writer;
  std::string bytes = writer.Finish();
  EXPECT_TRUE(trace::ParseBinary(bytes).ok());
  bytes[4] = static_cast<char>(trace::kBinaryTraceVersion + 1);
  EXPECT_FALSE(trace::ParseBinary(bytes).ok());
}

// --- metrics + flush hook ----------------------------------------------------

TEST(BinaryTrace, TraceCountersReachRunMetrics) {
  workload::WorkloadConfig config = SmallConfig(503);
  TracerOptions options;
  options.sample_period = 4;
  options.sample_seed = 3;
  Tracer tracer(options);
  config.tracer = &tracer;
  const workload::RunResult result = workload::Driver::Run(config);
  EXPECT_EQ(result.metrics.trace_events_emitted, tracer.stats().emitted);
  EXPECT_EQ(result.metrics.trace_events_dropped, tracer.stats().dropped);
  EXPECT_EQ(result.metrics.trace_sampled_out, tracer.stats().sampled_out);
  EXPECT_GT(result.metrics.trace_events_emitted, 0);
  EXPECT_GT(result.metrics.trace_sampled_out, 0);
  // The counters ride the generic entry list into Prometheus text.
  EXPECT_NE(result.PrometheusText().find("hermes_trace_events_emitted"),
            std::string::npos);

  // An untraced run reports zeros.
  config.tracer = nullptr;
  const workload::RunResult untraced = workload::Driver::Run(config);
  EXPECT_EQ(untraced.metrics.trace_events_emitted, 0);
  EXPECT_EQ(untraced.metrics.trace_sampled_out, 0);
}

TEST(BinaryTrace, FlushHookDeliversPeriodicSnapshots) {
  workload::WorkloadConfig config = SmallConfig(504);
  Tracer tracer;
  config.tracer = &tracer;
  config.flush_interval = 20 * sim::kMillisecond;
  std::vector<workload::FlushSnapshot> snapshots;
  config.flush_hook = [&](const workload::FlushSnapshot& snap) {
    snapshots.push_back(snap);
  };
  const workload::RunResult result = workload::Driver::Run(config);
  ASSERT_GT(result.flushes, 0);
  ASSERT_EQ(snapshots.size(), static_cast<size_t>(result.flushes));
  for (size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_EQ(snapshots[i].index, static_cast<int64_t>(i));
    if (i > 0) {
      EXPECT_GT(snapshots[i].at, snapshots[i - 1].at);
    }
    EXPECT_NE(snapshots[i].prometheus.find("hermes_global_committed"),
              std::string::npos);
  }
  // The last snapshot's series is a prefix view: no more windows than the
  // run's final series.
  EXPECT_LE(snapshots.back().series.windows.size(),
            result.series.windows.size());

  // Flushing is observational only: the traced run is byte-identical
  // with and without a hook installed.
  workload::WorkloadConfig plain = SmallConfig(504);
  Tracer plain_tracer;
  plain.tracer = &plain_tracer;
  const workload::RunResult plain_result = workload::Driver::Run(plain);
  EXPECT_EQ(plain_result.flushes, 0);
  EXPECT_EQ(plain_tracer.ToBinary(), tracer.ToBinary());
}

}  // namespace
}  // namespace hermes
