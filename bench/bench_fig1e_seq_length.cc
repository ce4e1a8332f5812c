// Figure 1(e): runtime vs. average sequence length (C) at fixed |D| and
// minsup.
//
// Reproduction target: cost grows super-linearly in sequence length for the
// physical-projection baselines (each node copies longer postfixes) while
// P-TPMiner degrades most gracefully.

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
      "Figure 1(e): runtime vs average sequence length",
      "longer sequences hurt physical projection most; P-TPMiner degrades "
      "most gracefully",
      "D2kN200, C = 4..16, minsup 2%, budget 120s/run");

  std::vector<Cell> cells;
  for (double c : {4.0, 6.0, 8.0, 12.0, 16.0}) {
    QuestConfig config;
    config.num_sequences = static_cast<uint32_t>(2000 * scale);
    config.avg_intervals_per_sequence = c;
    config.num_symbols = 200;
    config.seed = 101;
    auto db = GenerateQuest(config);
    TPM_CHECK_OK(db.status());

    MinerOptions options;
    options.min_support = 0.02;
    const std::string cfg = StringPrintf("C=%.0f", c);
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
  WriteJsonRecords("fig1e_seq_length", cells);
  CheckAgreement(cells);
  return 0;
}
