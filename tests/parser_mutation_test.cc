// Robustness of the parsers against damaged files: each golden input —
// a traced run's binary export and a chaos fault plan — is mutated about
// a thousand times with seeded byte flips, deletions, insertions and
// truncations. Every parser must return a value or a Status (never crash,
// hang or read out of bounds; the sanitizer builds run this too), and the
// lenient binary parser must account for every record it was given.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault_plan.h"
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
  workload::Driver::Run(config);
  const std::string binary = tracer.ToBinary();

  fault::ChaosOptions chaos;
  chaos.num_sites = 4;
  chaos.crashes = 4;
  chaos.reconfigs = 2;
  const std::string plan = fault::GenerateChaosPlan(7, chaos).ToJsonl();

  // The golden inputs themselves parse, and the trace holds every
  // variable-length field.
  Result<std::vector<trace::Event>> events = trace::ParseBinary(binary);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  const auto has = [&](const auto& pred) {
    return std::any_of(events->begin(), events->end(), pred);
  };
  ASSERT_TRUE(has([](const trace::Event& e) {
    return e.kind == trace::EventKind::kResubmitStart;
  }));
  ASSERT_TRUE(has([](const trace::Event& e) { return !e.related.empty(); }));
  ASSERT_TRUE(fault::ParseFaultPlan(plan).ok());

  Rng rng(20240611);
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
