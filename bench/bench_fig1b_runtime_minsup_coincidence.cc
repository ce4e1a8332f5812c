// Figure 1(b): runtime vs. minimum support, coincidence pattern language.
//
// Reproduction target: P-TPMiner/C (pseudo-projection + pruning) beats
// CTMiner (physical projection, no pruning) at every support level, with the
// gap widening as minsup drops.

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
      "Figure 1(b): runtime vs minsup (coincidence patterns)",
      "P-TPMiner/C beats CTMiner at every support; gap widens as minsup drops",
      config.Name() + ", minsup 2% -> 0.5%, budget 60s/run");

  const double kBudget = 60.0;
  std::vector<Cell> cells;
  for (double minsup : {0.02, 0.015, 0.01, 0.0075, 0.005}) {
    MinerOptions options;
    options.min_support = minsup;
    const std::string cfg = StringPrintf("%.2f%%", minsup * 100);
    cells.push_back(
        RunCoincidence(MakePTPMinerC().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunCoincidence(MakeCTMiner().get(), *db, options, cfg, kBudget));
  }
  PrintTable(cells);
  WriteJsonRecords("fig1b_runtime_minsup_coincidence", cells);
  CheckAgreement(cells);
  return 0;
}
