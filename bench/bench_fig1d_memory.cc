// Figure 1(d): peak memory vs. minimum support.
//
// Reproduction target: pseudo-projection (P-TPMiner) keeps peak memory well
// below the physical-projection baselines (TPrefixSpan/CTMiner), whose
// per-node postfix copies stack up along the DFS path; the level-wise miner
// pays for whole candidate levels at once.

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
      "Figure 1(d): peak logical memory vs minsup",
      "pseudo-projection stays below physical projection at every support",
      config.Name() + ", minsup 2% -> 0.5% (logical bytes tracked by miners)");

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
        RunCoincidence(MakePTPMinerC().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunCoincidence(MakeCTMiner().get(), *db, options, cfg, kBudget));
  }

  // Memory-focused table.
  std::printf("%-10s | %-21s | %-21s | %-21s | %-21s\n", "config",
              "P-TPMiner/E", "TPrefixSpan", "P-TPMiner/C", "CTMiner");
  for (size_t i = 0; i < cells.size(); i += 4) {
    std::printf("%-10s | %21s | %21s | %21s | %21s\n", cells[i].config.c_str(),
                HumanBytes(cells[i].memory_bytes).c_str(),
                HumanBytes(cells[i + 1].memory_bytes).c_str(),
                HumanBytes(cells[i + 2].memory_bytes).c_str(),
                HumanBytes(cells[i + 3].memory_bytes).c_str());
  }
  std::printf("\n");
  PrintTable(cells);
  WriteJsonRecords("fig1d_memory", cells);
  CheckAgreement(cells);
  return 0;
}
