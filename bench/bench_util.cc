#include "bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <map>
#include <sstream>
#include <utility>

#include "io/atomic_write.h"
#include "util/string_util.h"

namespace tpm {
namespace bench {

std::string Cell::SecondsStr() const {
  if (dnf) return "DNF";
  return StringPrintf("%.3f", seconds);
}

namespace {

// FNV-1a over the sorted "support<TAB>pattern" lines of a pattern list, as
// 16 hex digits: equal for two miners exactly when they mined the same set.
template <typename PatternT>
std::string PatternSetHash(const std::vector<MinedPattern<PatternT>>& patterns,
                           const Dictionary& dict) {
  std::vector<std::string> lines;
  lines.reserve(patterns.size());
  for (const auto& mp : patterns) {
    lines.push_back(std::to_string(mp.support) + "\t" +
                    mp.pattern.ToString(dict));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = 14695981039346656037ull;
  for (const std::string& line : lines) {
    for (char ch : line) {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  return StringPrintf("%016" PRIx64, h);
}

template <typename ResultT>
Cell MakeCell(const std::string& algo, const std::string& language,
              const std::string& config, const ResultT& result,
              const Dictionary& dict) {
  const MiningStats& stats = result.stats;
  Cell c;
  c.algo = algo;
  c.language = language;
  c.config = config;
  c.seconds = stats.build_seconds + stats.mine_seconds;
  c.patterns = result.patterns.size();
  c.pattern_hash = PatternSetHash(result.patterns, dict);
  c.memory_bytes = stats.peak_tracked_bytes;
  c.candidates = stats.candidates_checked;
  c.states = stats.states_created;
  c.dnf = stats.truncated;
  c.stop_reason = stats.stop_reason;
  c.metrics = stats.metrics;
  return c;
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += StringPrintf("\\u%04x", ch);
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

// Every cell runs under this logical memory budget, so a configuration
// whose search explodes ends as a `memory` DNF cell instead of exhausting
// the host. It sits far above any cell that finishes at scale 1.
constexpr size_t kCellMemoryBudgetBytes = size_t{512} << 20;

}  // namespace

Cell RunEndpoint(EndpointMiner* miner, const IntervalDatabase& db,
                 MinerOptions options, const std::string& config,
                 double budget_seconds) {
  options.time_budget_seconds = budget_seconds;
  options.memory_budget_bytes = kCellMemoryBudgetBytes;
  auto result = miner->Mine(db, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", miner->name().c_str(),
                 result.status().ToString().c_str());
    Cell c;
    c.algo = miner->name();
    c.language = "endpoint";
    c.config = config;
    c.dnf = true;
    return c;
  }
  return MakeCell(miner->name(), "endpoint", config, *result, db.dict());
}

Cell RunCoincidence(CoincidenceMiner* miner, const IntervalDatabase& db,
                    MinerOptions options, const std::string& config,
                    double budget_seconds) {
  options.time_budget_seconds = budget_seconds;
  options.memory_budget_bytes = kCellMemoryBudgetBytes;
  auto result = miner->Mine(db, options);
  if (!result.ok()) {
    std::fprintf(stderr, "bench: %s failed: %s\n", miner->name().c_str(),
                 result.status().ToString().c_str());
    Cell c;
    c.algo = miner->name();
    c.language = "coincidence";
    c.config = config;
    c.dnf = true;
    return c;
  }
  return MakeCell(miner->name(), "coincidence", config, *result, db.dict());
}

void CheckAgreement(const std::vector<Cell>& cells, bool across_configs) {
  // Group key -> the first finishing cell seen in the group.
  std::map<std::pair<std::string, std::string>, const Cell*> first;
  size_t compared = 0;
  bool agree = true;
  for (const Cell& c : cells) {
    if (c.dnf) continue;
    const auto key =
        std::make_pair(c.language, across_configs ? std::string() : c.config);
    auto [it, inserted] = first.emplace(key, &c);
    if (inserted) continue;
    ++compared;
    const Cell& ref = *it->second;
    if (c.pattern_hash != ref.pattern_hash) {
      agree = false;
      std::fprintf(stderr,
                   "agreement: %s %s (%llu patterns, %s) != %s %s "
                   "(%llu patterns, %s)\n",
                   c.algo.c_str(), c.config.c_str(),
                   static_cast<unsigned long long>(c.patterns),
                   c.pattern_hash.c_str(), ref.algo.c_str(),
                   ref.config.c_str(),
                   static_cast<unsigned long long>(ref.patterns),
                   ref.pattern_hash.c_str());
    }
  }
  if (!agree) {
    std::fprintf(stderr, "agreement: FAILED\n");
    std::exit(1);
  }
  std::printf("agreement: ok (%zu groups, %zu cross-checks)\n", first.size(),
              compared);
}

void PrintBanner(const std::string& figure, const std::string& claim,
                 const std::string& setup) {
  std::printf("================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper claim : %s\n", claim.c_str());
  std::printf("setup       : %s\n", setup.c_str());
  std::printf("================================================================\n");
}

void PrintTable(const std::vector<Cell>& cells) {
  // Collect algorithms (stable order of first appearance) and configs.
  std::vector<std::string> algos;
  std::vector<std::string> configs;
  for (const Cell& c : cells) {
    if (std::find(algos.begin(), algos.end(), c.algo) == algos.end()) {
      algos.push_back(c.algo);
    }
    if (std::find(configs.begin(), configs.end(), c.config) == configs.end()) {
      configs.push_back(c.config);
    }
  }
  auto find_cell = [&](const std::string& algo,
                       const std::string& config) -> const Cell* {
    for (const Cell& c : cells) {
      if (c.algo == algo && c.config == config) return &c;
    }
    return nullptr;
  };

  std::printf("%-10s", "");
  for (const std::string& a : algos) std::printf(" | %-21s", a.c_str());
  std::printf("\n%-10s", "config");
  for (size_t i = 0; i < algos.size(); ++i) std::printf(" | %9s %11s", "time(s)", "patterns");
  std::printf("\n");
  for (const std::string& cfg : configs) {
    std::printf("%-10s", cfg.c_str());
    for (const std::string& a : algos) {
      const Cell* c = find_cell(a, cfg);
      if (c == nullptr) {
        std::printf(" | %9s %11s", "-", "-");
      } else {
        std::printf(" | %9s %11llu", c->SecondsStr().c_str(),
                    static_cast<unsigned long long>(c->patterns));
      }
    }
    std::printf("\n");
  }

  std::printf(
      "\ncsv: algo,config,seconds,patterns,memory_bytes,candidates,states,dnf,"
      "stop_reason\n");
  for (const Cell& c : cells) {
    std::printf("csv: %s,%s,%.4f,%llu,%zu,%llu,%llu,%d,%s\n", c.algo.c_str(),
                c.config.c_str(), c.seconds,
                static_cast<unsigned long long>(c.patterns), c.memory_bytes,
                static_cast<unsigned long long>(c.candidates),
                static_cast<unsigned long long>(c.states), c.dnf ? 1 : 0,
                StopReasonName(c.stop_reason));
  }
  std::printf("\n");
}

void WriteJsonRecords(const std::string& name, const std::vector<Cell>& cells) {
  // Benches are single-threaded drivers and never call setenv.
  const char* dir =
      std::getenv("TPM_BENCH_JSON_DIR");  // NOLINT(concurrency-mt-unsafe)
  const std::string path =
      std::string(dir != nullptr ? dir : ".") + "/BENCH_" + name + ".json";
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "  {\"algo\": " << JsonQuote(c.algo)
        << ", \"config\": " << JsonQuote(c.config)
        << ", \"seconds\": " << StringPrintf("%.6f", c.seconds)
        << ", \"patterns\": " << c.patterns
        << ", \"memory_bytes\": " << c.memory_bytes
        << ", \"candidates\": " << c.candidates << ", \"states\": " << c.states
        << ", \"language\": " << JsonQuote(c.language)
        << ", \"pattern_hash\": " << JsonQuote(c.pattern_hash)
        << ", \"dnf\": " << (c.dnf ? "true" : "false")
        << ", \"stop_reason\": " << JsonQuote(StopReasonName(c.stop_reason))
        << ", \"metrics\": " << c.metrics.ToJson() << "}"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "]\n";
  if (Status st = WriteFileAtomic(path, out.str()); !st.ok()) {
    std::fprintf(stderr, "bench: %s (skipping)\n", st.ToString().c_str());
    return;
  }
  std::printf("json: %s\n", path.c_str());
}

double BenchScale() {
  // Benches are single-threaded drivers and never call setenv.
  const char* env =
      std::getenv("TPM_BENCH_SCALE");  // NOLINT(concurrency-mt-unsafe)
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

}  // namespace bench
}  // namespace tpm
