// Regression tests for the exact-byte memory accounting the arena-backed
// projection layer enables. For P-TPMiner every tracked allocation is one of
// three monotone components — the representation build, the projection
// arenas (charged per mapped block, never released until the engine dies),
// and the emitted patterns — so the MemoryTracker high-water mark must equal
// their sum EXACTLY, not approximately. Any drift means a component went
// back to estimate-based accounting. The physical-projection baselines add
// one more, transient component: their per-span postfix copies.

#include <gtest/gtest.h>

#include <cstdint>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

IntervalDatabase MakeDb(uint64_t seed) {
  QuestConfig config;
  config.num_sequences = 40;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 15;
  config.num_potential_patterns = 10;
  config.pattern_injection_prob = 0.6;
  config.seed = seed;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

// Bytes the engine charges per emitted pattern: items plus slice offsets
// (including the trailing end offset).
template <typename ResultT>
size_t PatternBytes(const ResultT& result) {
  size_t bytes = 0;
  for (const auto& mp : result.patterns) {
    bytes += (mp.pattern.items().size() + mp.pattern.offsets().size()) *
             sizeof(uint32_t);
  }
  return bytes;
}

TEST(MemoryAccountingTest, EndpointPseudoPeakIsExactlyBuildPlusArena) {
  const IntervalDatabase db = MakeDb(7);
  MinerOptions options;
  options.min_support = 0.15;
  auto result = MineEndpointGrowth(db, options, GrowthConfig{});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->patterns.size(), 0u);
  EXPECT_GT(result->stats.arena_peak_bytes, 0u);
  EXPECT_EQ(result->stats.peak_tracked_bytes,
            result->stats.build_bytes + result->stats.arena_peak_bytes +
                PatternBytes(*result));
}

TEST(MemoryAccountingTest, CoincidencePseudoPeakIsExactlyBuildPlusArena) {
  const IntervalDatabase db = MakeDb(11);
  MinerOptions options;
  options.min_support = 0.15;
  auto result = MineCoincidenceGrowth(db, options, GrowthConfig{});
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(result->patterns.size(), 0u);
  EXPECT_EQ(result->stats.peak_tracked_bytes,
            result->stats.build_bytes + result->stats.arena_peak_bytes +
                PatternBytes(*result));
}

// With a support threshold nothing can reach, no patterns are emitted and the
// identity reduces to its pure form: peak == build + arena, byte for byte.
TEST(MemoryAccountingTest, ZeroPatternRunPinsPureIdentity) {
  const IntervalDatabase db = MakeDb(13);
  MinerOptions options;
  options.min_support = static_cast<double>(db.size() + 1);  // unreachable
  auto result = MineEndpointGrowth(db, options, GrowthConfig{});
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->patterns.size(), 0u);
  EXPECT_EQ(result->stats.peak_tracked_bytes,
            result->stats.build_bytes + result->stats.arena_peak_bytes);
}

// The baselines (TPrefixSpan / CTMiner) stage through the same arenas, so
// they report a real arena peak and export it as the run's gauge; their
// tracked peak also covers the postfix copies charged on top.
template <typename ResultT>
void ExpectBaselineAccounting(const ResultT& result) {
  ASSERT_GT(result.patterns.size(), 0u);
  EXPECT_GT(result.stats.arena_peak_bytes, 0u);
  const obs::GaugeSample* gauge =
      result.stats.metrics.FindGauge("miner.arena.peak_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, static_cast<int64_t>(result.stats.arena_peak_bytes));
  EXPECT_GE(result.stats.peak_tracked_bytes,
            result.stats.build_bytes + result.stats.arena_peak_bytes +
                PatternBytes(result));
}

TEST(MemoryAccountingTest, BaselinesExportTheirArenaPeak) {
  const IntervalDatabase db = MakeDb(7);
  MinerOptions options;
  options.min_support = 0.15;
  const GrowthConfig baseline{.physical_baseline = true};
  auto ep = MineEndpointGrowth(db, options, baseline);
  ASSERT_TRUE(ep.ok()) << ep.status();
  ExpectBaselineAccounting(*ep);

  auto co = MineCoincidenceGrowth(db, options, baseline);
  ASSERT_TRUE(co.ok()) << co.status();
  ExpectBaselineAccounting(*co);
}

}  // namespace
}  // namespace tpm
