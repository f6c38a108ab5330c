// Robustness of the strict parsers against damaged files: each golden
// input — a traced run's JSONL and binary exports, a chaos fault plan and
// a BENCH artifact — is mutated about a thousand times with seeded byte
// flips, deletions, insertions and truncations. Every parser must return
// a value or a Status (never crash, hang or read out of bounds; the
// sanitizer builds run this too), and the lenient parsers must account
// for every line or record they were given.

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "fault/fault_plan.h"
#include "runner/aggregate.h"
#include "trace/binary.h"
#include "trace/trace.h"
#include "workload/driver.h"

namespace hermes {
namespace {

constexpr int kMutantsPerInput = 1000;

// One to three seeded edits; a truncation ends the mutant.
std::string Mutate(const std::string& golden, Rng& rng) {
  std::string m = golden;
  const int edits = 1 + static_cast<int>(rng.NextUint64(3));
  for (int i = 0; i < edits && !m.empty(); ++i) {
    const size_t at = rng.NextUint64(m.size());
    switch (rng.NextUint64(4)) {
      case 0:  // flip one bit
        m[at] = static_cast<char>(m[at] ^ (1 << rng.NextUint64(8)));
        break;
      case 1:
        m.erase(at, 1);
        break;
      case 2:
        m.insert(at, 1, static_cast<char>(rng.NextUint64(256)));
        break;
      default:
        m.resize(at);
        return m;
    }
  }
  return m;
}

int64_t NonEmptyLines(const std::string& text) {
  int64_t lines = 0;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) ++lines;
    start = end + 1;
  }
  return lines;
}

TEST(ParserMutation, DamagedInputsNeverCrashTheParsers) {
  // Golden inputs, all built here from seeded runs. This small run has
  // certification refusals and resubmissions, so every trace field occurs.
  workload::WorkloadConfig config;
  config.seed = 6;
  config.num_sites = 3;
  config.global_clients = 4;
  config.target_global_txns = 8;
  config.p_prepared_abort = 0.3;
  trace::Tracer tracer;
  config.tracer = &tracer;
  const workload::RunResult run = workload::Driver::Run(config);
  const std::string jsonl = tracer.ToJsonl();
  const std::string binary = tracer.ToBinary();

  fault::ChaosOptions chaos;
  chaos.num_sites = 4;
  chaos.crashes = 4;
  chaos.reconfigs = 2;
  const std::string plan = fault::GenerateChaosPlan(7, chaos).ToJsonl();

  runner::Aggregator agg;
  agg.AddRun("first", 6, run);
  agg.AddRun("second", 7, run);
  runner::BenchArtifact artifact;
  artifact.bench = "mutation";
  artifact.config = "golden \"artifact\"";
  artifact.seed = 6;
  artifact.headers = {"cell", "committed"};
  artifact.rows = {{"first", "8"}, {"second", "8"}};
  artifact.cells = agg.cells();
  const std::string bench = runner::EncodeBenchArtifact(artifact);

  // The golden inputs themselves parse.
  ASSERT_NE(jsonl.find("\"kind\":\"resubmit_start\""), std::string::npos);
  ASSERT_NE(jsonl.find("\"related\":"), std::string::npos);
  ASSERT_TRUE(trace::ParseJsonl(jsonl).ok());
  ASSERT_TRUE(trace::ParseBinary(binary).ok());
  ASSERT_TRUE(fault::ParseFaultPlan(plan).ok());
  ASSERT_TRUE(runner::ParseBenchArtifact(bench).ok());
  ASSERT_FALSE(artifact.cells[0].series.empty());

  Rng rng(20240611);
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string m = Mutate(jsonl, rng);
    (void)trace::ParseJsonl(m);
    const trace::LenientParse lenient = trace::ParseJsonlLenient(m);
    EXPECT_EQ(static_cast<int64_t>(lenient.events.size()) +
                  lenient.skipped_lines,
              NonEmptyLines(m))
        << "jsonl mutant " << i;
  }
  for (int i = 0; i < kMutantsPerInput; ++i) {
    const std::string m = Mutate(binary, rng);
    (void)trace::ParseBinary(m);
    const trace::BinaryParse lenient = trace::ParseBinaryLenient(m);
    if (!lenient.truncated) {
      EXPECT_LE(static_cast<int64_t>(lenient.events.size()) +
                    lenient.skipped_records,
                lenient.records_declared)
          << "binary mutant " << i;
    }
  }
  for (int i = 0; i < kMutantsPerInput; ++i) {
    (void)fault::ParseFaultPlan(Mutate(plan, rng));
  }
  for (int i = 0; i < kMutantsPerInput; ++i) {
    (void)runner::ParseBenchArtifact(Mutate(bench, rng));
  }
}

// Shrunk inputs the corpus (or reading the accounting) turned up: a byte
// after the last declared record was counted as a skipped record, and a
// declared count with its top bit set went negative.
TEST(ParserMutation, BinaryAccountingRegressions) {
  trace::Tracer tracer;
  trace::Event e;
  e.kind = trace::EventKind::kTxnBegin;
  tracer.Record(e);
  const std::string golden = tracer.ToBinary();

  const trace::BinaryParse trailing =
      trace::ParseBinaryLenient(golden + "x");
  EXPECT_FALSE(trailing.truncated);
  EXPECT_EQ(trailing.events.size(), 1u);
  EXPECT_EQ(trailing.skipped_records, 0);
  EXPECT_EQ(trailing.trailing_bytes, 1);
  EXPECT_FALSE(trace::ParseBinary(golden + "x").ok());

  std::string negative = golden;
  negative[16 + 7] = static_cast<char>(0x80);  // top byte of the u64 count
  const trace::BinaryParse huge = trace::ParseBinaryLenient(negative);
  EXPECT_TRUE(huge.truncated);
  EXPECT_GE(huge.records_declared, 1);
  EXPECT_EQ(huge.events.size(), 1u);
  EXPECT_FALSE(trace::ParseBinary(negative).ok());
}

}  // namespace
}  // namespace hermes
