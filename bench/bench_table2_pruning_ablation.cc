// Table 2 (ablation): contribution of each pruning technique.
//
// Reproduction target: the paper's claim that "pruning techniques ... further
// reduce the search space". Each row toggles one configuration of
// {pair, postfix, validity} pruning on P-TPMiner and reports runtime and the
// number of occurrence states materialized (the dominant search-space cost). The result set is identical in
// every row (prunings are exact); only cost changes.

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

  PrintBanner("Table 2 (ablation): effect of each pruning technique",
              "each pruning reduces work; combined they give the headline "
              "speedup; the mined pattern set never changes",
              config.Name() + ", minsup 0.75%, endpoint + coincidence engines");

  struct Config {
    const char* name;
    bool pair, postfix, validity;
  };
  const Config kConfigs[] = {
      {"none", false, false, false},
      {"pair", true, false, false},
      {"postfix", false, true, false},
      {"validity", false, false, true},
      {"pair+post", true, true, false},
      {"all", true, true, true},
  };

  std::vector<Cell> cells;
  for (const Config& c : kConfigs) {
    MinerOptions options;
    options.min_support = 0.0075;
    options.pair_pruning = c.pair;
    options.postfix_pruning = c.postfix;
    options.validity_pruning = c.validity;
    cells.push_back(
        RunEndpoint(MakePTPMinerE().get(), *db, options, c.name, 120.0));
    cells.push_back(
        RunCoincidence(MakePTPMinerC().get(), *db, options, c.name, 120.0));
  }

  std::printf("%-10s | %-34s | %-34s\n", "", "P-TPMiner/E", "P-TPMiner/C");
  std::printf("%-10s | %9s %11s %12s | %9s %11s %12s\n", "prunings", "time(s)",
              "patterns", "states", "time(s)", "patterns", "states");
  for (size_t i = 0; i < cells.size(); i += 2) {
    std::printf("%-10s | %9s %11llu %12llu | %9s %11llu %12llu\n",
                cells[i].config.c_str(), cells[i].SecondsStr().c_str(),
                static_cast<unsigned long long>(cells[i].patterns),
                static_cast<unsigned long long>(cells[i].states),
                cells[i + 1].SecondsStr().c_str(),
                static_cast<unsigned long long>(cells[i + 1].patterns),
                static_cast<unsigned long long>(cells[i + 1].states));
  }
  std::printf("\n");
  PrintTable(cells);
  WriteJsonRecords("table2_pruning_ablation", cells);
  // Prunings are exact: every row of a language mines the same set.
  CheckAgreement(cells, /*across_configs=*/true);
  return 0;
}
