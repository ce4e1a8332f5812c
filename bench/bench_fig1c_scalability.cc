// Figure 1(c): scalability — runtime vs. database size at fixed minsup.
//
// Reproduction target: P-TPMiner scales near-linearly in the number of
// sequences (both pattern languages); the physical-projection baselines grow
// faster because per-node postfix copies grow with the data.

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
  const double kBudget = 120.0;

  PrintBanner(
      "Figure 1(c): runtime vs |D| (scalability)",
      "P-TPMiner grows near-linearly with the number of sequences",
      "C8N200, |D| = 1k..16k, minsup 1%, budget 120s/run");

  std::vector<Cell> cells;
  for (uint32_t base : {1000, 2000, 4000, 8000, 16000}) {
    QuestConfig config;
    config.num_sequences = static_cast<uint32_t>(base * scale);
    config.avg_intervals_per_sequence = 8.0;
    config.num_symbols = 200;
    config.seed = 101;  // same pool across sizes: support ratios stay stable
    auto db = GenerateQuest(config);
    TPM_CHECK_OK(db.status());

    MinerOptions options;
    options.min_support = 0.01;
    const std::string cfg = StringPrintf("D=%uk", base / 1000);
    cells.push_back(
        RunEndpoint(MakePTPMinerE().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunEndpoint(MakeTPrefixSpan().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunCoincidence(MakePTPMinerC().get(), *db, options, cfg, kBudget));
    cells.push_back(
        RunCoincidence(MakeCTMiner().get(), *db, options, cfg, kBudget));
  }
  PrintTable(cells);
  WriteJsonRecords("fig1c_scalability", cells);
  CheckAgreement(cells);
  return 0;
}
