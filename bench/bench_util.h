// Shared harness for the figure/table reproduction benchmarks.
//
// Each bench binary regenerates one figure or table of the paper's
// evaluation (see EXPERIMENTS.md for the mapping and the recorded results).
// Output is a self-describing aligned table; a trailing "csv:" block gives
// machine-readable rows for plotting.

#pragma once


#include <cstdio>
#include <string>
#include <vector>

#include "core/database.h"
#include "miner/miner.h"
#include "obs/metrics.h"
#include "util/guard.h"

namespace tpm {
namespace bench {

/// Outcome of one (algorithm, configuration) cell.
struct Cell {
  std::string algo;
  std::string config;    // x-axis value, e.g. "1.0%" or "D=4k"
  double seconds = 0.0;
  uint64_t patterns = 0;
  size_t memory_bytes = 0;
  uint64_t candidates = 0;
  uint64_t states = 0;
  std::string language;     // "endpoint" or "coincidence"
  std::string pattern_hash;  // FNV-1a of the sorted "support\tpattern" lines
  bool dnf = false;      // truncated or failed before completing
  StopReason stop_reason = StopReason::kNone;  // why, when dnf is true
  obs::MetricsSnapshot metrics;  // per-run registry delta (prune.*, search.*)

  std::string SecondsStr() const;
};

/// Runs an endpoint miner once and captures the cell.
Cell RunEndpoint(EndpointMiner* miner, const IntervalDatabase& db,
                 MinerOptions options, const std::string& config,
                 double budget_seconds);

/// Runs a coincidence miner once and captures the cell.
Cell RunCoincidence(CoincidenceMiner* miner, const IntervalDatabase& db,
                    MinerOptions options, const std::string& config,
                    double budget_seconds);

/// Fails the bench (exit 1, after naming every disagreeing pair) unless all
/// cells that finished agree on the pattern set within each language and
/// config — or, with `across_configs`, within each language over all
/// configs (for tables whose rows vary only exact prunings). Prints one
/// summary line on success.
void CheckAgreement(const std::vector<Cell>& cells,
                    bool across_configs = false);

/// Prints the experiment banner.
void PrintBanner(const std::string& figure, const std::string& claim,
                 const std::string& setup);

/// Prints cells as an aligned table grouped by config, one column block per
/// algorithm, followed by a csv block.
void PrintTable(const std::vector<Cell>& cells);

/// Writes cells (including each cell's metrics snapshot) as a JSON array to
/// BENCH_<name>.json in TPM_BENCH_JSON_DIR (default: current directory).
/// Failures only warn: record files must never break a bench run.
void WriteJsonRecords(const std::string& name, const std::vector<Cell>& cells);

/// Reads TPM_BENCH_SCALE (default 1.0): multiplies dataset sizes so the
/// suite can be shrunk for smoke runs or grown for slower machines.
double BenchScale();

}  // namespace bench
}  // namespace tpm

