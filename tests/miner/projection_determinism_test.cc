// Determinism suite for the growth engine's interchangeable execution
// configurations, on random QUEST databases:
//   - P-TPMiner/E and /C (arena-backed pseudo-projection, any pruning mask,
//     with and without a time window) must report the same sorted pattern
//     set as their physical-projection baselines TPrefixSpan and CTMiner —
//     the mid-size cross-check next to the tiny-database oracle tests;
//   - --threads=1 and any worker count must mine a byte-identical stream, for both pattern languages and every pruning
//     on/off combination. The thread sweep pins the scheduler/worker/merger
//     contract (docs/ARCHITECTURE.md): identical patterns in identical
//     emission order AND identical merged metrics for any thread count and
//     completion order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "datagen/quest.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "obs/stats_domain.h"
#include "testing/test_util.h"

namespace tpm {
namespace {

using testing::ComparableMetricsJson;
using testing::Render;

constexpr uint32_t kNumDatabases = 25;

IntervalDatabase MakeDb(uint64_t seed) {
  QuestConfig config;
  config.num_sequences = 30;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 12;
  config.num_potential_patterns = 8;
  config.pattern_injection_prob = 0.7;
  config.seed = seed;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

MinerOptions BaseOptions(uint32_t pruning_mask) {
  MinerOptions options;
  options.min_support = 0.2;
  options.pair_pruning = (pruning_mask & 1) != 0;
  options.postfix_pruning = (pruning_mask & 2) != 0;
  options.validity_pruning = (pruning_mask & 4) != 0;
  return options;
}

class ProjectionDeterminismTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(QuestSeeds, ProjectionDeterminismTest,
                         ::testing::Range(uint64_t{1},
                                          uint64_t{kNumDatabases + 1}));

// The pruned pseudo-projection miners against their unpruned physical
// baselines: every pruning mask, with no window and with max_window = 40.
TEST_P(ProjectionDeterminismTest, PseudoMinersMatchPhysicalBaselines) {
  const IntervalDatabase db = MakeDb(GetParam());
  const GrowthConfig baseline{.physical_baseline = true};
  for (TimeT window : {TimeT{0}, TimeT{40}}) {
    MinerOptions base = BaseOptions(0);
    base.max_window = window;
    auto ep_base = MineEndpointGrowth(db, base, baseline);
    auto co_base = MineCoincidenceGrowth(db, base, baseline);
    ASSERT_TRUE(ep_base.ok()) << ep_base.status();
    ASSERT_TRUE(co_base.ok()) << co_base.status();
    ep_base->SortCanonically();
    co_base->SortCanonically();
    const auto ep_want = Render(*ep_base, db.dict());
    const auto co_want = Render(*co_base, db.dict());
    // All eight pair/postfix/validity combinations; coincidence mining
    // ignores the validity bit, so its four distinct masks repeat.
    for (uint32_t mask = 0; mask < 8; ++mask) {
      MinerOptions options = BaseOptions(mask);
      options.max_window = window;
      auto ep = MineEndpointGrowth(db, options, GrowthConfig{});
      ASSERT_TRUE(ep.ok()) << ep.status();
      ep->SortCanonically();
      EXPECT_EQ(Render(*ep, db.dict()), ep_want)
          << "P-TPMiner/E vs TPrefixSpan, mask " << mask << " window "
          << window;
      if (mask >= 4) continue;
      auto co = MineCoincidenceGrowth(db, options, GrowthConfig{});
      ASSERT_TRUE(co.ok()) << co.status();
      co->SortCanonically();
      EXPECT_EQ(Render(*co, db.dict()), co_want)
          << "P-TPMiner/C vs CTMiner, mask " << mask << " window " << window;
    }
  }
}

// Every mask run charges its own StatsDomain; folding the eight domains in
// shuffled completion orders must produce byte-identical merged snapshots —
// the contract the future parallel miner's merger relies on, exercised here
// with real mining deltas rather than synthetic values.
TEST_P(ProjectionDeterminismTest, MergedMetricsSnapshotsAreOrderInvariant) {
  const IntervalDatabase db = MakeDb(GetParam());
  std::vector<obs::DomainSnapshot> snaps;
  for (uint32_t mask = 0; mask < 8; ++mask) {
    MinerOptions options = BaseOptions(mask);
    obs::StatsDomain domain("mask-" + std::to_string(mask));
    options.stats_domain = &domain;
    auto result = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(result.ok()) << result.status();
    snaps.push_back(domain.TakeSnapshot());
  }
  const std::string reference = obs::MergeDomainSnapshots(snaps).ToJson();
  std::mt19937 rng(GetParam());
  for (int round = 0; round < 5; ++round) {
    auto shuffled = snaps;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    EXPECT_EQ(obs::MergeDomainSnapshots(shuffled).ToJson(), reference)
        << "round " << round;
  }
}

// Renders the exact emission order (testing::Render sorts): the parallel
// merger must reproduce the single-thread pattern STREAM, not just the set.
template <typename PatternT>
std::string EmissionOrderRender(const MiningResult<PatternT>& result,
                                const Dictionary& dict) {
  std::string out;
  for (const auto& mp : result.patterns) {
    out += mp.pattern.ToString(dict) + "@" + std::to_string(mp.support) + "\n";
  }
  return out;
}

// --threads sweep: mining with 2/4/8 workers (heavyweight subtrees split
// into sub-units) must be byte-identical to --threads=1 — patterns in
// emission order AND the full merged metrics delta (modulo the memory /
// scheduling-attribution families every equivalent run may vary in).
TEST_P(ProjectionDeterminismTest, EndpointThreadCountsAgree) {
  const IntervalDatabase db = MakeDb(GetParam());
  for (uint32_t mask = 0; mask < 8; ++mask) {
    MinerOptions options = BaseOptions(mask);
    obs::StatsDomain base_domain("t1");
    options.stats_domain = &base_domain;
    auto single = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(single.ok()) << single.status();
    const std::string want = EmissionOrderRender(*single, db.dict());
    const std::string want_metrics =
        ComparableMetricsJson(single->stats.metrics);
    for (uint32_t threads : {2u, 4u, 8u}) {
      MinerOptions par = BaseOptions(mask);
      par.threads = threads;
      std::string domain_name = "t";
      domain_name += std::to_string(threads);
      obs::StatsDomain domain(domain_name);
      par.stats_domain = &domain;
      auto result = MineEndpointGrowth(db, par, GrowthConfig{});
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(EmissionOrderRender(*result, db.dict()), want)
          << "mask " << mask << " threads " << threads;
      EXPECT_EQ(ComparableMetricsJson(result->stats.metrics), want_metrics)
          << "mask " << mask << " threads " << threads;
      EXPECT_EQ(result->stats.nodes_expanded, single->stats.nodes_expanded);
      EXPECT_EQ(result->stats.states_created, single->stats.states_created);
    }
  }
}

TEST_P(ProjectionDeterminismTest, CoincidenceThreadCountsAgree) {
  const IntervalDatabase db = MakeDb(GetParam());
  for (uint32_t mask = 0; mask < 4; ++mask) {
    MinerOptions options = BaseOptions(mask);
    obs::StatsDomain base_domain("t1");
    options.stats_domain = &base_domain;
    auto single = MineCoincidenceGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(single.ok()) << single.status();
    const std::string want = EmissionOrderRender(*single, db.dict());
    const std::string want_metrics =
        ComparableMetricsJson(single->stats.metrics);
    for (uint32_t threads : {2u, 4u, 8u}) {
      MinerOptions par = BaseOptions(mask);
      par.threads = threads;
      std::string domain_name = "t";
      domain_name += std::to_string(threads);
      obs::StatsDomain domain(domain_name);
      par.stats_domain = &domain;
      auto result = MineCoincidenceGrowth(db, par, GrowthConfig{});
      ASSERT_TRUE(result.ok()) << result.status();
      EXPECT_EQ(EmissionOrderRender(*result, db.dict()), want)
          << "mask " << mask << " threads " << threads;
      EXPECT_EQ(ComparableMetricsJson(result->stats.metrics), want_metrics)
          << "mask " << mask << " threads " << threads;
    }
  }
}

}  // namespace
}  // namespace tpm
