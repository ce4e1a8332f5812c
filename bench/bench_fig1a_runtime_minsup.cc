// Figure 1(a): runtime vs. minimum support, endpoint pattern language.
//
// Reproduction target: P-TPMiner/E is fastest at every support level; the
// gap to TPrefixSpan (physical projection) and especially to the level-wise
// IEMiner-style baseline widens as minsup drops, with the level-wise miner
// timing out first (the papers report it failing to finish at low supports).

#include "bench_util.h"
#include "datagen/quest.h"
#include "util/logging.h"
#include "util/macros.h"
#include "util/string_util.h"

using namespace tpm;
using namespace tpm::bench;

int main() {
  SetLogLevel(LogLevel::kWarning);
  const double scale = BenchScale();

  QuestConfig config;
  config.num_sequences = static_cast<uint32_t>(2000 * scale);
  config.avg_intervals_per_sequence = 8.0;
  config.num_symbols = 200;
  config.seed = 101;
  auto db = GenerateQuest(config);
  TPM_CHECK_OK(db.status());

  PrintBanner(
      "Figure 1(a): runtime vs minsup (endpoint patterns)",
      "P-TPMiner beats both baselines; gap widens as minsup drops; the "
      "level-wise miner stops finishing first",
      config.Name() + ", minsup 2% -> 0.5%, budget 60s/run");

  const double kBudget = 60.0;
  std::vector<Cell> cells;
  for (double minsup : {0.02, 0.015, 0.01, 0.0075, 0.005}) {
    MinerOptions options;
    options.min_support = minsup;
    const std::string cfg = StringPrintf("%.2f%%", minsup * 100);
    cells.push_back(
        RunEndpoint(MakePTPMinerE().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunEndpoint(MakeTPrefixSpan().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunEndpoint(MakeLevelwiseMiner().get(), *db, options, cfg, kBudget));
  }
  PrintTable(cells);
  WriteJsonRecords("fig1a_runtime_minsup", cells);
  CheckAgreement(cells);
  return 0;
}
