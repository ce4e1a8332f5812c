// Child-key table coverage for GrowthEngine::ExpandNode.
//
// A node's candidate extensions are keyed (code << 1) | i_ext in a dense
// per-context table of 4·|alphabet| slots, reset after every scan. These
// databases put the edges of that key space under load: the highest symbol
// id is frequent (so the largest endpoint key — its finish as an
// i-extension, 4·|alphabet| - 1 — is admitted and pushed), dictionary
// symbols in between never occur, and one case has a one-symbol alphabet.
// Each case must mine the same sorted set as the unpruned physical
// baselines, the same stream and merged metrics at every thread count, and
// emit in the deterministic child order (i_ext desc, code asc per node).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "datagen/quest.h"
#include "io/checkpoint.h"
#include "miner/coincidence_growth.h"
#include "miner/endpoint_growth.h"
#include "obs/progress.h"
#include "obs/stats_domain.h"
#include "testing/test_util.h"
#include "util/rng.h"

namespace tpm {
namespace {

using testing::ComparableMetricsJson;
using testing::Render;

struct DbCase {
  const char* name;
  uint32_t alphabet;          ///< dictionary size |alphabet|
  std::vector<EventId> used;  ///< symbols that occur; the last is the top id
};

std::vector<DbCase> Cases() {
  return {
      // Symbols 1, 2, 5, 6 and 7 are in the dictionary but never occur.
      {"sparse", 9, {0, 3, 4, 8}},
      {"one_symbol", 1, {0}},
      {"dense", 4, {0, 1, 2, 3}},
  };
}

// Every sequence holds a few random intervals over `used`; most also hold
// the top symbol, finishing together with the lowest used symbol so the top
// finish follows it in a shared slice as an i-extension. With one symbol,
// the top interval is a point event instead: its start and finish share a
// slice.
IntervalDatabase MakeDb(const DbCase& c, uint64_t seed) {
  IntervalDatabase db;
  for (uint32_t i = 0; i < c.alphabet; ++i) {
    db.dict().Intern(std::string(1, static_cast<char>('A' + i)));
  }
  const EventId top = c.used.back();
  Rng rng(seed);
  for (uint32_t s = 0; s < 30; ++s) {
    EventSequence seq;
    const uint32_t n = 1 + rng.Poisson(3.0);
    for (uint32_t k = 0; k < n; ++k) {
      const EventId e = c.used[rng.Uniform(c.used.size())];
      const TimeT b = static_cast<TimeT>(rng.Uniform(60));
      seq.Add(e, b, b + static_cast<TimeT>(rng.Uniform(30)));
    }
    if (rng.Bernoulli(0.8)) {
      const TimeT finish = static_cast<TimeT>(30 + rng.Uniform(60));
      if (c.used[0] == top) {
        seq.Add(top, finish, finish);
      } else {
        seq.Add(top, finish - static_cast<TimeT>(1 + rng.Uniform(20)),
                finish);
        seq.Add(c.used[0], finish - static_cast<TimeT>(1 + rng.Uniform(20)),
                finish);
      }
    }
    seq.MergeSameSymbolConflicts();
    db.AddSequence(std::move(seq));
  }
  return db;
}

MinerOptions Options(uint32_t pruning_mask, TimeT window) {
  MinerOptions options;
  options.min_support = 0.2;
  options.max_window = window;
  options.pair_pruning = (pruning_mask & 1) != 0;
  options.postfix_pruning = (pruning_mask & 2) != 0;
  options.validity_pruning = (pruning_mask & 4) != 0;
  return options;
}

template <typename PatternT>
std::string EmissionOrderRender(const MiningResult<PatternT>& result,
                                const Dictionary& dict) {
  std::string out;
  for (const auto& mp : result.patterns) {
    out += mp.pattern.ToString(dict) + "@" + std::to_string(mp.support) + "\n";
  }
  return out;
}

// The (code, i_ext) extension steps that grow a pattern from the root: the
// first item of each slice/coincidence is an s-extension, the rest are
// i-extensions.
using Step = std::pair<uint32_t, bool>;

template <typename PatternT>
std::vector<Step> Steps(const PatternT& p) {
  std::vector<Step> steps;
  size_t block = 0;
  for (uint32_t k = 0; k < p.items().size(); ++k) {
    bool starts_block = false;
    while (block < p.offsets().size() && p.offsets()[block] == k) {
      starts_block = true;
      ++block;
    }
    steps.emplace_back(p.items()[k], !starts_block);
  }
  return steps;
}

// Child order at one node: i-extensions first, then ascending code.
bool StepBefore(const Step& a, const Step& b) {
  if (a.second != b.second) return a.second;
  return a.first < b.first;
}

// Emission is a depth-first preorder over the children in child order, so
// consecutive patterns' step sequences must be strictly increasing: a prefix
// first, else ordered at the first step where they diverge.
template <typename PatternT>
void ExpectChildOrder(const MiningResult<PatternT>& result,
                      const std::string& label) {
  for (size_t i = 1; i < result.patterns.size(); ++i) {
    const std::vector<Step> a = Steps(result.patterns[i - 1].pattern);
    const std::vector<Step> b = Steps(result.patterns[i].pattern);
    size_t j = 0;
    while (j < a.size() && j < b.size() && a[j] == b[j]) ++j;
    const bool ordered = j == a.size()
                             ? b.size() > a.size()
                             : j < b.size() && StepBefore(a[j], b[j]);
    EXPECT_TRUE(ordered) << label << ": emission " << i - 1 << " then " << i;
  }
}

TEST(GrowthEngineKeyTableTest, PseudoMinersMatchPhysicalBaselines) {
  const GrowthConfig baseline{.physical_baseline = true};
  for (const DbCase& c : Cases()) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const IntervalDatabase db = MakeDb(c, seed);
      for (TimeT window : {TimeT{0}, TimeT{40}}) {
        auto ep_base = MineEndpointGrowth(db, Options(0, window), baseline);
        auto co_base = MineCoincidenceGrowth(db, Options(0, window), baseline);
        ASSERT_TRUE(ep_base.ok()) << ep_base.status();
        ASSERT_TRUE(co_base.ok()) << co_base.status();
        ASSERT_FALSE(ep_base->patterns.empty()) << c.name;
        const auto ep_want = Render(*ep_base, db.dict());
        const auto co_want = Render(*co_base, db.dict());
        for (uint32_t mask = 0; mask < 8; ++mask) {
          const std::string label = std::string(c.name) + " seed " +
                                    std::to_string(seed) + " window " +
                                    std::to_string(window) + " mask " +
                                    std::to_string(mask);
          auto ep = MineEndpointGrowth(db, Options(mask, window),
                                       GrowthConfig{});
          ASSERT_TRUE(ep.ok()) << ep.status();
          EXPECT_EQ(Render(*ep, db.dict()), ep_want) << label;
          if (mask >= 4) continue;  // coincidence ignores validity pruning
          auto co = MineCoincidenceGrowth(db, Options(mask, window),
                                          GrowthConfig{});
          ASSERT_TRUE(co.ok()) << co.status();
          EXPECT_EQ(Render(*co, db.dict()), co_want) << label;
        }
      }
    }
  }
}

// The largest key the table holds, 4·|alphabet| - 1, is the top symbol's
// finish as an i-extension; the databases must actually admit it.
TEST(GrowthEngineKeyTableTest, LargestKeyIsMined) {
  for (const DbCase& c : Cases()) {
    const IntervalDatabase db = MakeDb(c, 1);
    const uint32_t top_finish = MakeFinish(c.alphabet - 1);
    ASSERT_EQ(((top_finish << 1) | 1u) + 1, 4 * c.alphabet);
    auto ep = MineEndpointGrowth(db, Options(7, 0), GrowthConfig{});
    ASSERT_TRUE(ep.ok()) << ep.status();
    bool found = false;
    for (const auto& mp : ep->patterns) {
      for (const Step& s : Steps(mp.pattern)) {
        found = found || (s.first == top_finish && s.second);
      }
    }
    EXPECT_TRUE(found) << c.name;
  }
}

TEST(GrowthEngineKeyTableTest, ThreadCountsAgree) {
  for (const DbCase& c : Cases()) {
    const IntervalDatabase db = MakeDb(c, 1);
    for (TimeT window : {TimeT{0}, TimeT{40}}) {
      for (uint32_t mask : {0u, 3u, 7u}) {
        std::string ep_want, ep_metrics, co_want, co_metrics;
        for (uint32_t threads : {1u, 4u}) {
          const std::string label =
              std::string(c.name) + " window " + std::to_string(window) +
              " mask " + std::to_string(mask) + " threads " +
              std::to_string(threads);
          MinerOptions options = Options(mask, window);
          options.threads = threads;
          obs::StatsDomain ep_domain("ep");
          options.stats_domain = &ep_domain;
          auto ep = MineEndpointGrowth(db, options, GrowthConfig{});
          ASSERT_TRUE(ep.ok()) << ep.status();
          obs::StatsDomain co_domain("co");
          options.stats_domain = &co_domain;
          auto co =
              MineCoincidenceGrowth(db, options, GrowthConfig{});
          ASSERT_TRUE(co.ok()) << co.status();
          if (threads == 1) {
            ep_want = EmissionOrderRender(*ep, db.dict());
            ep_metrics = ComparableMetricsJson(ep->stats.metrics);
            co_want = EmissionOrderRender(*co, db.dict());
            co_metrics = ComparableMetricsJson(co->stats.metrics);
            continue;
          }
          EXPECT_EQ(EmissionOrderRender(*ep, db.dict()), ep_want) << label;
          EXPECT_EQ(ComparableMetricsJson(ep->stats.metrics), ep_metrics)
              << label;
          EXPECT_EQ(EmissionOrderRender(*co, db.dict()), co_want) << label;
          EXPECT_EQ(ComparableMetricsJson(co->stats.metrics), co_metrics)
              << label;
        }
      }
    }
  }
}

TEST(GrowthEngineKeyTableTest, EmissionFollowsChildKeyOrder) {
  for (const DbCase& c : Cases()) {
    const IntervalDatabase db = MakeDb(c, 2);
    for (uint32_t threads : {1u, 4u}) {
      MinerOptions options = Options(7, 0);
      options.threads = threads;
      auto ep = MineEndpointGrowth(db, options, GrowthConfig{});
      auto co = MineCoincidenceGrowth(db, options, GrowthConfig{});
      ASSERT_TRUE(ep.ok()) << ep.status();
      ASSERT_TRUE(co.ok()) << co.status();
      ExpectChildOrder(*ep, std::string(c.name) + " endpoint");
      ExpectChildOrder(*co, std::string(c.name) + " coincidence");
    }
  }
}

// ---- Counter exactness -----------------------------------------------------
//
// A child key counts as a candidate the first time a node's scan reaches
// it, whether admission then keeps or rejects it. Pruning only rejects keys
// whose child could not be frequent, so every pruning mask expands the same
// nodes and reaches the same keys: `search.candidates` equals the unpruned
// physical baseline's. The per-mask state and prune-hit counts are pinned to
// recorded values, so a scan that skips rejected keys must still count
// them, and attribute them to the same pruning.

IntervalDatabase MakeCounterQuestDb() {
  QuestConfig config;
  config.num_sequences = 80;
  config.avg_intervals_per_sequence = 6.0;
  config.num_symbols = 40;
  config.num_potential_patterns = 6;
  config.seed = 5;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

uint64_t CounterValue(const MiningStats& stats, const char* name) {
  const obs::CounterSample* c = stats.metrics.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

std::string CounterLine(const std::string& group, uint32_t mask,
                        const MiningStats& stats) {
  return group + " m" + std::to_string(mask) +
         " states=" + std::to_string(stats.states_created) +
         " pair=" + std::to_string(CounterValue(stats, "prune.pair.hits")) +
         " postfix=" +
         std::to_string(CounterValue(stats, "prune.postfix.hits")) +
         " validity=" +
         std::to_string(CounterValue(stats, "prune.validity.hits"));
}

// Recorded from the full per-key scan (every later item of every state).
const char* const kGoldenCounters[] = {
    "sparse w0 E m0 states=1980 pair=0 postfix=0 validity=0",
    "sparse w0 E m1 states=1980 pair=0 postfix=0 validity=0",
    "sparse w0 E m2 states=1917 pair=0 postfix=33 validity=0",
    "sparse w0 E m3 states=1917 pair=0 postfix=33 validity=0",
    "sparse w0 E m4 states=1980 pair=0 postfix=0 validity=899",
    "sparse w0 E m5 states=1980 pair=0 postfix=0 validity=899",
    "sparse w0 E m6 states=1917 pair=0 postfix=33 validity=899",
    "sparse w0 E m7 states=1917 pair=0 postfix=33 validity=899",
    "sparse w0 C m0 states=10778 pair=0 postfix=0 validity=0",
    "sparse w0 C m1 states=10778 pair=0 postfix=0 validity=0",
    "sparse w0 C m2 states=9514 pair=0 postfix=347 validity=0",
    "sparse w0 C m3 states=9514 pair=0 postfix=347 validity=0",
    "sparse w40 E m0 states=1148 pair=0 postfix=0 validity=0",
    "sparse w40 E m1 states=1148 pair=0 postfix=0 validity=0",
    "sparse w40 E m2 states=1131 pair=0 postfix=12 validity=0",
    "sparse w40 E m3 states=1131 pair=0 postfix=12 validity=0",
    "sparse w40 E m4 states=1148 pair=0 postfix=0 validity=458",
    "sparse w40 E m5 states=1148 pair=0 postfix=0 validity=458",
    "sparse w40 E m6 states=1131 pair=0 postfix=12 validity=458",
    "sparse w40 E m7 states=1131 pair=0 postfix=12 validity=458",
    "sparse w40 C m0 states=11066 pair=0 postfix=0 validity=0",
    "sparse w40 C m1 states=11066 pair=0 postfix=0 validity=0",
    "sparse w40 C m2 states=10259 pair=0 postfix=178 validity=0",
    "sparse w40 C m3 states=10259 pair=0 postfix=178 validity=0",
    "one_symbol w0 E m0 states=283 pair=0 postfix=0 validity=0",
    "one_symbol w0 E m1 states=283 pair=0 postfix=0 validity=0",
    "one_symbol w0 E m2 states=283 pair=0 postfix=0 validity=0",
    "one_symbol w0 E m3 states=283 pair=0 postfix=0 validity=0",
    "one_symbol w0 E m4 states=283 pair=0 postfix=0 validity=128",
    "one_symbol w0 E m5 states=283 pair=0 postfix=0 validity=128",
    "one_symbol w0 E m6 states=283 pair=0 postfix=0 validity=128",
    "one_symbol w0 E m7 states=283 pair=0 postfix=0 validity=128",
    "one_symbol w0 C m0 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w0 C m1 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w0 C m2 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w0 C m3 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w40 E m0 states=203 pair=0 postfix=0 validity=0",
    "one_symbol w40 E m1 states=203 pair=0 postfix=0 validity=0",
    "one_symbol w40 E m2 states=203 pair=0 postfix=0 validity=0",
    "one_symbol w40 E m3 states=203 pair=0 postfix=0 validity=0",
    "one_symbol w40 E m4 states=203 pair=0 postfix=0 validity=80",
    "one_symbol w40 E m5 states=203 pair=0 postfix=0 validity=80",
    "one_symbol w40 E m6 states=203 pair=0 postfix=0 validity=80",
    "one_symbol w40 E m7 states=203 pair=0 postfix=0 validity=80",
    "one_symbol w40 C m0 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w40 C m1 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w40 C m2 states=73 pair=0 postfix=0 validity=0",
    "one_symbol w40 C m3 states=73 pair=0 postfix=0 validity=0",
    "dense w0 E m0 states=1980 pair=0 postfix=0 validity=0",
    "dense w0 E m1 states=1980 pair=0 postfix=0 validity=0",
    "dense w0 E m2 states=1917 pair=0 postfix=33 validity=0",
    "dense w0 E m3 states=1917 pair=0 postfix=33 validity=0",
    "dense w0 E m4 states=1980 pair=0 postfix=0 validity=899",
    "dense w0 E m5 states=1980 pair=0 postfix=0 validity=899",
    "dense w0 E m6 states=1917 pair=0 postfix=33 validity=899",
    "dense w0 E m7 states=1917 pair=0 postfix=33 validity=899",
    "dense w0 C m0 states=10778 pair=0 postfix=0 validity=0",
    "dense w0 C m1 states=10778 pair=0 postfix=0 validity=0",
    "dense w0 C m2 states=9514 pair=0 postfix=347 validity=0",
    "dense w0 C m3 states=9514 pair=0 postfix=347 validity=0",
    "dense w40 E m0 states=1148 pair=0 postfix=0 validity=0",
    "dense w40 E m1 states=1148 pair=0 postfix=0 validity=0",
    "dense w40 E m2 states=1131 pair=0 postfix=12 validity=0",
    "dense w40 E m3 states=1131 pair=0 postfix=12 validity=0",
    "dense w40 E m4 states=1148 pair=0 postfix=0 validity=458",
    "dense w40 E m5 states=1148 pair=0 postfix=0 validity=458",
    "dense w40 E m6 states=1131 pair=0 postfix=12 validity=458",
    "dense w40 E m7 states=1131 pair=0 postfix=12 validity=458",
    "dense w40 C m0 states=11066 pair=0 postfix=0 validity=0",
    "dense w40 C m1 states=11066 pair=0 postfix=0 validity=0",
    "dense w40 C m2 states=10259 pair=0 postfix=178 validity=0",
    "dense w40 C m3 states=10259 pair=0 postfix=178 validity=0",
    "quest w0 E m0 states=1913 pair=0 postfix=0 validity=0",
    "quest w0 E m1 states=518 pair=525 postfix=0 validity=0",
    "quest w0 E m2 states=787 pair=0 postfix=458 validity=0",
    "quest w0 E m3 states=504 pair=69 postfix=458 validity=0",
    "quest w0 E m4 states=1913 pair=0 postfix=0 validity=231",
    "quest w0 E m5 states=518 pair=525 postfix=0 validity=231",
    "quest w0 E m6 states=787 pair=0 postfix=458 validity=231",
    "quest w0 E m7 states=504 pair=69 postfix=458 validity=231",
    "quest w0 C m0 states=10754 pair=0 postfix=0 validity=0",
    "quest w0 C m1 states=2756 pair=747 postfix=0 validity=0",
    "quest w0 C m2 states=4166 pair=0 postfix=662 validity=0",
    "quest w0 C m3 states=2328 pair=94 postfix=662 validity=0",
    "quest w40 E m0 states=1333 pair=0 postfix=0 validity=0",
    "quest w40 E m1 states=458 pair=361 postfix=0 validity=0",
    "quest w40 E m2 states=644 pair=0 postfix=306 validity=0",
    "quest w40 E m3 states=454 pair=57 postfix=306 validity=0",
    "quest w40 E m4 states=1333 pair=0 postfix=0 validity=201",
    "quest w40 E m5 states=458 pair=361 postfix=0 validity=201",
    "quest w40 E m6 states=644 pair=0 postfix=306 validity=201",
    "quest w40 E m7 states=454 pair=57 postfix=306 validity=201",
    "quest w40 C m0 states=9816 pair=0 postfix=0 validity=0",
    "quest w40 C m1 states=2961 pair=650 postfix=0 validity=0",
    "quest w40 C m2 states=3830 pair=0 postfix=575 validity=0",
    "quest w40 C m3 states=2475 pair=84 postfix=575 validity=0",
};

TEST(GrowthEngineCounterTest, PruningMasksKeepCountersExact) {
  const GrowthConfig baseline{.physical_baseline = true};

  std::vector<std::pair<std::string, IntervalDatabase>> dbs;
  for (const DbCase& c : Cases()) dbs.emplace_back(c.name, MakeDb(c, 1));
  dbs.emplace_back("quest", MakeCounterQuestDb());
  std::vector<std::string> lines;
  for (const auto& [name, db] : dbs) {
    for (TimeT window : {TimeT{0}, TimeT{40}}) {
      const std::string group = name + " w" + std::to_string(window);
      auto ep_base = MineEndpointGrowth(db, Options(0, window), baseline);
      auto co_base = MineCoincidenceGrowth(db, Options(0, window), baseline);
      ASSERT_TRUE(ep_base.ok()) << ep_base.status();
      ASSERT_TRUE(co_base.ok()) << co_base.status();
      ASSERT_GT(ep_base->stats.candidates_checked, 0u) << group;
      for (uint32_t mask = 0; mask < 8; ++mask) {
        auto ep = MineEndpointGrowth(db, Options(mask, window),
                                     GrowthConfig{});
        ASSERT_TRUE(ep.ok()) << ep.status();
        EXPECT_EQ(ep->stats.candidates_checked,
                  ep_base->stats.candidates_checked)
            << group << " endpoint mask " << mask;
        lines.push_back(CounterLine(group + " E", mask, ep->stats));
      }
      for (uint32_t mask = 0; mask < 4; ++mask) {
        auto co = MineCoincidenceGrowth(db, Options(mask, window),
                                        GrowthConfig{});
        ASSERT_TRUE(co.ok()) << co.status();
        EXPECT_EQ(co->stats.candidates_checked,
                  co_base->stats.candidates_checked)
            << group << " coincidence mask " << mask;
        lines.push_back(CounterLine(group + " C", mask, co->stats));
      }
    }
  }
#ifndef TPM_OBS_DISABLED
  ASSERT_EQ(lines.size(), std::size(kGoldenCounters));
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i], kGoldenCounters[i]);
  }
#endif
}

// ---- Nested splitting ------------------------------------------------------
//
// A heavyweight unit is split into sub-units, and a sub-unit rooted above
// the deepest split depth is split again. This QUEST database has units
// heavy enough to split and subtrees deep enough for sub-units at every
// split depth; the item set depends on the data only, so patterns and
// merged metrics (the item histograms included) match at every thread
// count, and so does a run stopped inside a nested split and resumed at
// another thread count.

IntervalDatabase MakeDeepDb() {
  QuestConfig config;
  config.num_sequences = 60;
  config.avg_intervals_per_sequence = 8.0;
  config.num_symbols = 14;
  config.num_potential_patterns = 4;
  config.pattern_injection_prob = 0.8;
  config.seed = 2;
  auto db = GenerateQuest(config);
  EXPECT_TRUE(db.ok()) << db.status();
  return std::move(*db);
}

MinerOptions DeepOptions(uint32_t threads) {
  MinerOptions options;
  options.min_support = 0.15;
  options.threads = threads;
  return options;
}

// No pruning, at a minsup some symbols miss: the root then stages buckets
// below minsup, and their weights count toward the mean weight that picks
// the split units.
MinerOptions UnprunedDeepOptions(uint32_t threads) {
  MinerOptions options = DeepOptions(threads);
  options.min_support = 0.3;
  options.pair_pruning = false;
  options.postfix_pruning = false;
  options.validity_pruning = false;
  return options;
}

template <typename PatternT>
using MineFn = Result<MiningResult<PatternT>> (*)(const IntervalDatabase&,
                                                  const MinerOptions&);

Result<MiningResult<EndpointPattern>> MineEndpoint(const IntervalDatabase& db,
                                                   const MinerOptions& o) {
  return MineEndpointGrowth(db, o, GrowthConfig{});
}

Result<MiningResult<CoincidencePattern>> MineCoincidence(
    const IntervalDatabase& db, const MinerOptions& o) {
  return MineCoincidenceGrowth(db, o, GrowthConfig{});
}

// Work items per root depth (index 0 = whole units), from the merged
// miner.item.depth histogram.
std::vector<uint64_t> ItemsByDepth(const obs::MetricsSnapshot& snap) {
  const obs::HistogramSample* h = snap.FindHistogram("miner.item.depth");
  return h == nullptr ? std::vector<uint64_t>{} : h->counts;
}

// The item histograms as "depth=<counts> nodes=<counts>".
std::string ItemSizes(const obs::MetricsSnapshot& snap) {
  std::string out;
  for (const char* name : {"miner.item.depth", "miner.item.nodes"}) {
    const obs::HistogramSample* h = snap.FindHistogram(name);
    out += out.empty() ? "depth=" : " nodes=";
    if (h == nullptr) continue;
    for (size_t i = 0; i < h->counts.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(h->counts[i]);
    }
  }
  return out;
}

// Mines the nested-split database at threads 1, 2, 4 and 8 and stores the
// single-thread item histograms in `item_sizes`.
template <typename PatternT>
void ExpectNestedSplitsAgree(MineFn<PatternT> mine, const std::string& lang,
                             MinerOptions (*make_options)(uint32_t),
                             std::string* item_sizes) {
  SCOPED_TRACE(lang);
  const IntervalDatabase db = MakeDeepDb();
  obs::StatsDomain base_domain("t1");
  MinerOptions options = make_options(1);
  options.stats_domain = &base_domain;
  auto single = mine(db, options);
  ASSERT_TRUE(single.ok()) << single.status();
#ifndef TPM_OBS_DISABLED
  // Sub-units rooted at depths 3 and 4 exist only if sub-units split again.
  const std::vector<uint64_t> by_depth = ItemsByDepth(single->stats.metrics);
  ASSERT_GE(by_depth.size(), 4u);
  EXPECT_GT(by_depth[2], 0u);
  EXPECT_GT(by_depth[3], 0u);
#endif
  *item_sizes = ItemSizes(single->stats.metrics);
  const std::string want = EmissionOrderRender(*single, db.dict());
  const std::string want_metrics = ComparableMetricsJson(single->stats.metrics);
  for (uint32_t threads : {2u, 4u, 8u}) {
    // Not `"t" + std::to_string(...)`: a false -Werror=restrict at -O3.
    std::string domain_name = "t";
    domain_name += std::to_string(threads);
    obs::StatsDomain domain(domain_name);
    MinerOptions par = make_options(threads);
    par.stats_domain = &domain;
    auto result = mine(db, par);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(EmissionOrderRender(*result, db.dict()), want)
        << "threads " << threads;
    EXPECT_EQ(ComparableMetricsJson(result->stats.metrics), want_metrics)
        << "threads " << threads;
  }
}

// The single-thread item histograms with DeepOptions and
// UnprunedDeepOptions, recorded when every bucket was finalized whatever
// its support. The root's unit weights pick the split units, and a split
// unit's children become depth-2 items, so a unit weight that changed (an
// infrequent root bucket weighed as empty, say) moves these counts.
const char* const kGoldenItemSizes[] = {
    "depth=14,13,40,46,0 nodes=82,25,3,2,1,0,0,0,0,0,0,0,0",
    "depth=10,7,12,6,0 nodes=26,8,1,0,0,0,0,0,0,0,0,0,0",
    "depth=14,13,53,68,0 nodes=94,30,18,4,1,1,0,0,0,0,0,0,0",
    "depth=10,7,4,2,0 nodes=19,2,2,0,0,0,0,0,0,0,0,0,0",
};

TEST(GrowthEngineSplitTest, NestedSplitsAgreeAcrossThreadCounts) {
  std::vector<std::string> sizes(4);
  ExpectNestedSplitsAgree<EndpointPattern>(&MineEndpoint, "endpoint",
                                           &DeepOptions, &sizes[0]);
  ExpectNestedSplitsAgree<EndpointPattern>(&MineEndpoint, "endpoint",
                                           &UnprunedDeepOptions, &sizes[1]);
  ExpectNestedSplitsAgree<CoincidencePattern>(&MineCoincidence, "coincidence",
                                              &DeepOptions, &sizes[2]);
  ExpectNestedSplitsAgree<CoincidencePattern>(&MineCoincidence, "coincidence",
                                              &UnprunedDeepOptions, &sizes[3]);
#ifndef TPM_OBS_DISABLED
  ASSERT_EQ(sizes.size(), std::size(kGoldenItemSizes));
  for (size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], kGoldenItemSizes[i]);
  }
#endif
}

// A bucket whose staged span count is below minsup is never finalized:
// that count bounds its support from above. Here every symbol occurs in one
// sequence only, so with pruning off the root stages one bucket per symbol
// and none of them is frequent: nothing lands in the depth-1 arena.
TEST(GrowthEngineFinalizeTest, InfrequentBucketsAreNotFinalized) {
  IntervalDatabase db;
  for (uint32_t s = 0; s < 4; ++s) {
    db.dict().Intern(std::string(1, static_cast<char>('A' + s)));
    EventSequence seq;
    seq.Add(s, 0, 10);
    db.AddSequence(std::move(seq));
  }
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    MinerOptions options = Options(0, 0);
    options.min_support = 0.5;
    options.threads = threads;
    obs::StatsDomain ep_domain("ep");
    options.stats_domain = &ep_domain;
    auto ep = MineEndpointGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(ep.ok()) << ep.status();
    obs::StatsDomain co_domain("co");
    options.stats_domain = &co_domain;
    auto co = MineCoincidenceGrowth(db, options, GrowthConfig{});
    ASSERT_TRUE(co.ok()) << co.status();
    for (const MiningStats* stats : {&ep->stats, &co->stats}) {
      EXPECT_EQ(stats->patterns_found, 0u);
      EXPECT_EQ(stats->candidates_checked, 4u);
#ifndef TPM_OBS_DISABLED
      const obs::HistogramSample* h =
          stats->metrics.FindHistogram("miner.arena.depth_bytes");
      ASSERT_NE(h, nullptr);
      EXPECT_EQ(h->count, 1u) << "threads " << threads;
      EXPECT_EQ(h->sum, 0u) << "threads " << threads;
#endif
    }
  }
}

// The pattern cap stops the run inside the heaviest unit, at a pattern at
// least three steps deep — inside a sub-unit of a sub-unit. The
// single-thread emission order is the output order, so the cap that stops
// there is that pattern's index.
template <typename PatternT>
void ExpectNestedStopResumes(MineFn<PatternT> mine, const std::string& lang) {
  SCOPED_TRACE(lang);
  const IntervalDatabase db = MakeDeepDb();
  obs::StatsDomain clean_domain("clean");
  MinerOptions clean_options = DeepOptions(1);
  clean_options.stats_domain = &clean_domain;
  auto clean = mine(db, clean_options);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // The heaviest unit: the longest run of patterns with the same first step.
  size_t best_begin = 0;
  size_t best_size = 0;
  for (size_t i = 0; i < clean->patterns.size();) {
    const Step first = Steps(clean->patterns[i].pattern)[0];
    size_t j = i + 1;
    while (j < clean->patterns.size() &&
           Steps(clean->patterns[j].pattern)[0] == first) {
      ++j;
    }
    if (j - i > best_size) {
      best_begin = i;
      best_size = j - i;
    }
    i = j;
  }
  uint64_t cap = 0;
  for (size_t i = best_begin + best_size / 2; i < best_begin + best_size; ++i) {
    if (Steps(clean->patterns[i].pattern).size() >= 3) {
      cap = i;
      break;
    }
  }
  ASSERT_GT(cap, 0u) << "no deep pattern in the heaviest unit";

  struct Combo {
    uint32_t part_threads;
    uint32_t resume_threads;
  };
  for (const Combo c : {Combo{1, 4}, Combo{4, 2}, Combo{8, 1}}) {
    SCOPED_TRACE("part=" + std::to_string(c.part_threads) +
                 " resume=" + std::to_string(c.resume_threads));
    const std::string path =
        ::testing::TempDir() + "/nested_split_" + lang + ".tpmc";
    MinerOptions part = DeepOptions(c.part_threads);
    part.max_patterns = cap;
    CheckpointWriter writer(path, 0.0);
    part.checkpoint_writer = &writer;
    obs::StatsDomain part_domain("part");
    part.stats_domain = &part_domain;
    auto interrupted = mine(db, part);
    ASSERT_TRUE(interrupted.ok()) << interrupted.status();
    ASSERT_TRUE(interrupted->stats.truncated);
    auto ckpt = ReadCheckpointFile(path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();

    MinerOptions resume_options = DeepOptions(c.resume_threads);
    resume_options.resume = &*ckpt;
    obs::StatsDomain resume_domain("resume");
    resume_options.stats_domain = &resume_domain;
    auto resumed = mine(db, resume_options);
    ASSERT_TRUE(resumed.ok()) << resumed.status();
    EXPECT_FALSE(resumed->stats.truncated);
    EXPECT_EQ(EmissionOrderRender(*resumed, db.dict()),
              EmissionOrderRender(*clean, db.dict()));
    EXPECT_EQ(ComparableMetricsJson(resumed->stats.metrics),
              ComparableMetricsJson(clean->stats.metrics));
    std::remove(path.c_str());
  }
}

TEST(GrowthEngineSplitTest, StopInsideNestedSplitResumesAtOtherThreadCounts) {
  ExpectNestedStopResumes<EndpointPattern>(&MineEndpoint, "endpoint");
  ExpectNestedStopResumes<CoincidencePattern>(&MineCoincidence, "coincidence");
}

// The final progress snapshot reports the run's exact totals: every node,
// every pattern and every root bucket, whichever context charged them and
// however late in its last item it emitted.
template <typename PatternT>
void ExpectExactFinalProgress(MineFn<PatternT> mine, const std::string& lang) {
  SCOPED_TRACE(lang);
  QuestConfig config;
  config.num_sequences = 200;
  config.num_symbols = 50;
  auto db = GenerateQuest(config);
  ASSERT_TRUE(db.ok()) << db.status();
  for (uint32_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(threads);
    std::vector<obs::ProgressSnapshot> finals;
    obs::ProgressTracker tracker(3600.0,
                                 [&finals](const obs::ProgressSnapshot& s) {
                                   if (s.final_snapshot) finals.push_back(s);
                                 });
    MinerOptions options;
    options.min_support = 0.05;
    options.threads = threads;
    options.progress = &tracker;
    auto result = mine(*db, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(result->stats.truncated);
    ASSERT_EQ(finals.size(), 1u);
    const obs::ProgressSnapshot& last = finals.back();
    EXPECT_EQ(last.nodes, result->stats.nodes_expanded);
    EXPECT_EQ(last.patterns, result->stats.patterns_found);
    EXPECT_EQ(last.patterns, result->patterns.size());
    EXPECT_GT(last.buckets_total, 0u);
    EXPECT_EQ(last.buckets_done, last.buckets_total);
  }
}

TEST(GrowthEngineProgressTest, FinalSnapshotReportsExactTotals) {
  ExpectExactFinalProgress<EndpointPattern>(&MineEndpoint, "endpoint");
  ExpectExactFinalProgress<CoincidencePattern>(&MineCoincidence, "coincidence");
}

}  // namespace
}  // namespace tpm
