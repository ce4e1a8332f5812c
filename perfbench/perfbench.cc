// Job-level benchmark for the `tpm mine` pipeline.
//
// perfbench/run.py runs each subcommand in a process of its own:
//
//   tpm_perfbench setup --sequences N --seed S --output FILE --reps K
//     Generates QUEST data (N sequences, C8, N200, content seed 101),
//     shuffles the order of its sequences with seed S (the file bytes change,
//     and so does the symbol numbering of a text file; the pattern set does
//     not) and saves it. Repeats K times and prints each repetition's timing.
//
//   tpm_perfbench run --input FILE --lang endpoint|coincidence --threads T
//                     --closed 0|1 --seconds S --out-dir DIR --trace 0|1
//     Runs the steps of `tpm mine --minsup 0.01` (tools/cli.cc, CmdMine) on
//     FILE as one job: load, mine, sort/filter, render, atomic write. One
//     warm-up job, then timed jobs until S seconds (and at least 3 jobs)
//     have passed. Every job's output is checked outside the timed region,
//     and a host-speed kernel is timed before each job and after the last.
//     With --trace 1, one more job runs with tracing on and layer spans
//     recorded here, followed by direct build timings, a 1-thread mine for
//     the speedup and the physical-projection baseline agreement check; the
//     spans go to DIR/trace.json.
//
// Both subcommands print one JSON object on stdout.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/postprocess.h"
#include "core/coincidence.h"
#include "core/endpoint.h"
#include "core/validate.h"
#include "datagen/quest.h"
#include "io/atomic_write.h"
#include "io/loader.h"
#include "miner/cooccurrence.h"
#include "miner/miner.h"
#include "obs/metrics.h"
#include "obs/stats_domain.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/memory.h"

#ifndef TPM_PERFBENCH_BUILD_TYPE
#define TPM_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tpm {
namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

constexpr double kMiB = 1024.0 * 1024.0;

// Every workload: QUEST content seed, alphabet size, minimum support, and
// the fewest timed jobs a run reports a median over.
constexpr uint64_t kContentSeed = 101;
constexpr uint32_t kSymbols = 200;
constexpr double kMinSupport = 0.01;
constexpr size_t kMinJobs = 3;

// ---------------------------------------------------------------------------
// Command line: every option is `--name value`.

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) == 0) values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    return it == values_.end() ? std::string() : it->second;
  }
  double Num(const std::string& key, double def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---------------------------------------------------------------------------
// Minimal JSON object writer.

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class Json {
 public:
  Json& Raw(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
    return *this;
  }
  Json& Num(const std::string& key, double v) { return Raw(key, Number(v)); }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Nums(const std::string& key, const std::vector<double>& v) {
    std::string raw = "[";
    for (size_t i = 0; i < v.size(); ++i) raw += (i ? ", " : "") + Number(v[i]);
    return Raw(key, raw + "]");
  }
  Json& Strs(const std::string& key, const std::vector<std::string>& v) {
    std::string raw = "[";
    for (size_t i = 0; i < v.size(); ++i) raw += (i ? ", " : "") + Quote(v[i]);
    return Raw(key, raw + "]");
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Layer spans recorded by the benchmark itself, on the calling thread.

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t dur_ns;
};

class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name)
        : log_(log), name_(name), start_ns_(log ? NowNs() : 0) {}
    ~Scope() {
      if (log_ != nullptr) {
        log_->spans.push_back({name_, start_ns_, NowNs() - start_ns_});
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    const char* name_;
    uint64_t start_ns_;
  };

  double Duration(std::string_view name) const {
    for (const SpanRecord& s : spans) {
      if (name == s.name) return Seconds(s.dur_ns);
    }
    return 0.0;
  }

  std::vector<SpanRecord> spans;
};

// ---------------------------------------------------------------------------
// Host speed. The host's speed drifts by up to 1.5x over minutes, which
// moves every job time with it. A fixed kernel that uses no library code is
// timed next to the jobs, and the end-to-end times are scaled by it.

// Random gathers from a 32 MiB buffer, then a sort of 1 Mi keys.
double KernelSeconds() {
  static std::vector<uint64_t> buf = [] {
    std::vector<uint64_t> b(size_t{1} << 22);
    uint64_t x = 88172645463325252ull;
    for (uint64_t& e : b) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    return b;
  }();
  static std::vector<uint32_t> keys(size_t{1} << 20);
  const uint64_t t0 = NowNs();
  uint64_t sum = 0;
  for (uint64_t r = 0; r < (uint64_t{1} << 22); ++r) {
    sum += buf[(r * 0x9E3779B97F4A7C15ull >> 20) & (buf.size() - 1)];
  }
  for (size_t k = 0; k < keys.size(); ++k) {
    keys[k] = static_cast<uint32_t>((buf[k] + sum) >> 7);
  }
  std::sort(keys.begin(), keys.end());
  volatile uint32_t sink = keys[keys.size() / 2];
  (void)sink;
  return Seconds(NowNs() - t0);
}

// Runs KernelSeconds on request in a child process, so that the kernel's
// buffers stay out of this process's VmHWM. Construct it before any thread
// starts; the destructor ends and reaps the child.
class SpeedProbe {
 public:
  SpeedProbe() {
    int request[2], reply[2];
    if (pipe(request) != 0) return;
    if (pipe(reply) != 0) {
      close(request[0]);
      close(request[1]);
      return;
    }
    pid_ = fork();
    if (pid_ == 0) {
      close(request[1]);
      close(reply[0]);
      KernelSeconds();  // warm-up: allocate and touch the buffers
      char c;
      while (read(request[0], &c, 1) == 1) {
        const double seconds = KernelSeconds();
        if (write(reply[1], &seconds, sizeof(seconds)) != sizeof(seconds)) break;
      }
      _exit(0);
    }
    close(request[0]);
    close(reply[1]);
    to_child_ = request[1];
    from_child_ = reply[0];
  }
  ~SpeedProbe() {
    if (to_child_ >= 0) close(to_child_);
    if (from_child_ >= 0) close(from_child_);
    if (pid_ > 0) waitpid(pid_, nullptr, 0);
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // The kernel's time in seconds, or 0 when the child is not running.
  double Measure() {
    const char c = 1;
    double seconds = 0.0;
    if (pid_ <= 0 || write(to_child_, &c, 1) != 1 ||
        read(from_child_, &seconds, sizeof(seconds)) != sizeof(seconds)) {
      return 0.0;
    }
    return seconds;
  }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

// ---------------------------------------------------------------------------
// Input presentation: the seed reorders the sequences. The dictionary keeps
// its generated order, because a renumbering changes the 4-thread unit order
// and with it the coinc-d8k-t4 job time by up to 1.7x between seeds.

// Fisher-Yates. std::shuffle's algorithm is left to the library, and the same
// seed must give the same file everywhere.
template <typename T>
void SeededShuffle(std::vector<T>* v, std::mt19937_64* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>((*rng)() % i);
    std::swap((*v)[i - 1], (*v)[j]);
  }
}

IntervalDatabase Represent(const IntervalDatabase& base, uint64_t seed) {
  std::mt19937_64 rng(seed);
  IntervalDatabase out;
  out.dict() = base.dict();
  std::vector<size_t> order(base.size());
  std::iota(order.begin(), order.end(), size_t{0});
  SeededShuffle(&order, &rng);
  for (size_t s : order) out.AddSequence(base[s]);
  return out;
}

int CmdSetup(const Args& args) {
  QuestConfig config;
  config.num_sequences = static_cast<uint32_t>(args.Num("sequences", 8000));
  config.num_symbols = kSymbols;
  config.seed = kContentSeed;
  const uint64_t seed = static_cast<uint64_t>(args.Num("seed", 101));
  const std::string output = args.Str("output");
  const int reps = std::max(1, static_cast<int>(args.Num("reps", 3)));

  SpeedProbe probe;
  std::vector<double> generate_s, save_s, setup_s, kernel_s;
  size_t sequences = 0, intervals = 0;
  for (int r = 0; r < reps; ++r) {
    if (r == 0 || r == reps / 2) kernel_s.push_back(probe.Measure());
    const uint64_t t0 = NowNs();
    IntervalDatabase db;
    {
      auto base = GenerateQuest(config);
      if (!base.ok()) {
        std::fprintf(stderr, "setup: %s\n", base.status().ToString().c_str());
        return 1;
      }
      db = Represent(*base, seed);
    }
    const uint64_t t1 = NowNs();
    if (Status st = SaveDatabase(db, output); !st.ok()) {
      std::fprintf(stderr, "setup: %s\n", st.ToString().c_str());
      return 1;
    }
    const uint64_t t2 = NowNs();
    generate_s.push_back(Seconds(t1 - t0));
    save_s.push_back(Seconds(t2 - t1));
    setup_s.push_back(Seconds(t2 - t0));
    sequences = db.size();
    intervals = db.TotalIntervals();
  }
  kernel_s.push_back(probe.Measure());
  Json json;
  json.Nums("generate_s", generate_s)
      .Nums("save_s", save_s)
      .Nums("setup_s", setup_s)
      .Nums("kernel_s", kernel_s)
      .Int("input_bytes", std::filesystem::file_size(output))
      .Int("sequences", sequences)
      .Int("intervals", intervals)
      .Str("dataset", config.Name());
  std::printf("%s\n", json.Done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Output checks.

// Support can only drop from a pattern to its extension. The parent of a
// coincidence pattern drops the last symbol of its last coincidence; any
// sub-pattern that is in the result must have at least the pattern's support.
Status CoincidenceMonotonicity(
    const std::vector<MinedPattern<CoincidencePattern>>& patterns) {
  std::unordered_map<CoincidencePattern, SupportCount, CoincidencePatternHash>
      support;
  support.reserve(patterns.size());
  for (const auto& mp : patterns) support.emplace(mp.pattern, mp.support);
  for (const auto& mp : patterns) {
    if (mp.pattern.num_items() < 2) continue;
    std::vector<EventId> items = mp.pattern.items();
    std::vector<uint32_t> offsets = mp.pattern.offsets();
    items.pop_back();
    --offsets.back();
    if (offsets[offsets.size() - 2] == offsets.back()) offsets.pop_back();
    const auto it =
        support.find(CoincidencePattern(std::move(items), std::move(offsets)));
    if (it != support.end() && it->second < mp.support) {
      return Status::Internal("support monotonicity violated: parent support " +
                              std::to_string(it->second) + " < " +
                              std::to_string(mp.support));
    }
  }
  return Status::OK();
}

// One output line with the symbols of each slice `{...}` or coincidence
// `(...)` sorted by name, so that it does not depend on symbol numbering.
std::string CanonicalLine(std::string_view line) {
  std::string out;
  size_t i = 0;
  while (i < line.size()) {
    const char open = line[i];
    const char close = open == '{' ? '}' : open == '(' ? ')' : '\0';
    const size_t end = close ? line.find(close, i) : std::string_view::npos;
    if (end == std::string_view::npos) {
      out += open;
      ++i;
      continue;
    }
    std::vector<std::string_view> tokens;
    std::string_view body = line.substr(i + 1, end - i - 1);
    while (!body.empty()) {
      const size_t sp = body.find(' ');
      tokens.push_back(body.substr(0, sp));
      body = sp == std::string_view::npos ? std::string_view() : body.substr(sp + 1);
    }
    std::sort(tokens.begin(), tokens.end());
    out += open;
    for (size_t t = 0; t < tokens.size(); ++t) {
      if (t) out += ' ';
      out += tokens[t];
    }
    out += close;
    i = end + 1;
  }
  return out;
}

struct Digest {
  uint64_t count = 0;
  std::string hash;
};

// FNV-1a over the sorted canonical lines of a rendered pattern list.
Digest CanonicalDigest(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(CanonicalLine(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = 14695981039346656037ull;
  for (const std::string& line : lines) {
    for (char c : line) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return {lines.size(), buf};
}

// ---------------------------------------------------------------------------
// The two pattern languages.

struct EndpointLang {
  using Pattern = EndpointPattern;
  using MiningResultT = EndpointMiningResult;
  static std::unique_ptr<EndpointMiner> Miner() { return MakePTPMinerE(); }
  static std::unique_ptr<EndpointMiner> Baseline() { return MakeTPrefixSpan(); }
  static size_t BuildRepresentation(const IntervalDatabase& db) {
    return EndpointDatabase::FromDatabase(db).size();
  }
  static Status Monotonicity(const std::vector<MinedPattern<Pattern>>& p) {
    return ValidateSupportMonotonicity(p);
  }
};

struct CoincidenceLang {
  using Pattern = CoincidencePattern;
  using MiningResultT = CoincidenceMiningResult;
  static std::unique_ptr<CoincidenceMiner> Miner() { return MakePTPMinerC(); }
  static std::unique_ptr<CoincidenceMiner> Baseline() { return MakeCTMiner(); }
  static size_t BuildRepresentation(const IntervalDatabase& db) {
    return CoincidenceDatabase::FromDatabase(db).size();
  }
  static Status Monotonicity(const std::vector<MinedPattern<Pattern>>& p) {
    return CoincidenceMonotonicity(p);
  }
};

// ---------------------------------------------------------------------------
// One job: the steps `tpm mine <input> --output <file>` runs.

struct JobSpec {
  std::string input;
  std::string output;
  uint32_t threads = 1;
  bool closed = false;
};

template <typename Lang>
struct JobOutput {
  IntervalDatabase db;
  std::vector<MinedPattern<typename Lang::Pattern>> patterns;
  MiningStats stats;
  size_t bytes_written = 0;
  double wall_s = 0.0;
};

template <typename PatternT>
std::string Render(const std::vector<MinedPattern<PatternT>>& patterns,
                   const Dictionary& dict) {
  std::ostringstream out;
  for (const auto& mp : patterns) {
    out << mp.support << "\t" << mp.pattern.ToString(dict) << "\n";
  }
  return std::move(out).str();
}

template <typename Lang>
Status RunJob(const JobSpec& spec, SpanLog* log, JobOutput<Lang>* out) {
  const uint64_t t0 = NowNs();
  {
    SpanLog::Scope job(log, "bench.job");
    obs::StatsDomain domain("mine");
    {
      SpanLog::Scope span(log, "bench.io.load");
      auto db = LoadDatabase(spec.input);
      if (!db.ok()) return db.status();
      out->db = std::move(*db);
    }
    MinerOptions options;
    options.min_support = kMinSupport;
    options.threads = spec.threads;
    options.stats_domain = &domain;
    typename Lang::MiningResultT result;
    {
      SpanLog::Scope span(log, "bench.miner.mine");
      auto mined = Lang::Miner()->Mine(out->db, options);
      if (!mined.ok()) return mined.status();
      result = std::move(*mined);
    }
    {
      SpanLog::Scope span(log, "bench.analysis.filter");
      result.SortCanonically();
      if (spec.closed) result.patterns = FilterClosed(std::move(result.patterns));
    }
    std::string text;
    {
      SpanLog::Scope span(log, "bench.output.render");
      text = Render(result.patterns, out->db.dict());
    }
    {
      SpanLog::Scope span(log, "bench.io.write");
      TPM_RETURN_NOT_OK(WriteFileAtomic(spec.output, text));
    }
    out->patterns = std::move(result.patterns);
    out->stats = std::move(result.stats);
    out->bytes_written = text.size();
  }
  out->wall_s = Seconds(NowNs() - t0);
  return Status::OK();
}

// Checks one finished job: every pattern valid and frequent, support
// monotone, the run complete, and the written file holding exactly the
// reported patterns. Fills `digest` from the file as written.
template <typename Lang>
Status CheckJob(const JobSpec& spec, const JobOutput<Lang>& job, Digest* digest) {
  if (job.stats.truncated) return Status::Internal("mining run was truncated");
  const SupportCount minsup = job.db.AbsoluteSupport(kMinSupport);
  for (const auto& mp : job.patterns) {
    TPM_RETURN_NOT_OK(ValidatePattern(mp.pattern));
    if (mp.support < minsup || mp.support > job.db.size()) {
      return Status::Internal("support " + std::to_string(mp.support) +
                              " outside [minsup, |D|]");
    }
  }
  TPM_RETURN_NOT_OK(Lang::Monotonicity(job.patterns));
  std::ifstream in(spec.output, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (text.size() != job.bytes_written) {
    return Status::Internal("output file size differs from the rendered output");
  }
  *digest = CanonicalDigest(text);
  if (digest->count != job.patterns.size()) {
    return Status::Internal("output file line count differs from the result");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Trace analysis: nesting, self time, uncovered remainder, Chrome JSON.

struct TimedSpan {
  std::string name;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t dur_ns;
  int depth = 0;
  uint64_t child_ns = 0;
};

// Sorts the spans and, per thread, charges each span to its innermost
// enclosing span. Returns the spans in start order with depth and the time
// their direct children cover.
std::vector<TimedSpan> NestSpans(std::vector<TimedSpan> spans) {
  std::sort(spans.begin(), spans.end(), [](const TimedSpan& a, const TimedSpan& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  std::vector<size_t> stack;
  for (size_t i = 0; i < spans.size(); ++i) {
    TimedSpan& s = spans[i];
    while (!stack.empty()) {
      const TimedSpan& top = spans[stack.back()];
      if (top.tid == s.tid && s.start_ns + s.dur_ns <= top.start_ns + top.dur_ns) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      spans[stack.back()].child_ns += s.dur_ns;
      s.depth = static_cast<int>(stack.size());
    }
    stack.push_back(i);
  }
  return spans;
}

Status WriteChromeTrace(const std::string& path, const std::vector<TimedSpan>& spans) {
  uint64_t origin = UINT64_MAX;
  for (const TimedSpan& s : spans) origin = std::min(origin, s.start_ns);
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TimedSpan& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f}%s\n",
                  Quote(s.name).c_str(), s.tid,
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3,
                  i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return WriteFileAtomic(path, out.str());
}

// ---------------------------------------------------------------------------
// `run`: warm-up, timed jobs, checks, and the traced run.

std::string BuildFacts() {
  std::vector<std::string> flags;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  flags.push_back("sanitizer");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  flags.push_back("sanitizer");
#endif
#endif
#ifndef NDEBUG
  flags.push_back("assertions");
#endif
#ifdef TPM_OBS_DISABLED
  flags.push_back("obs-disabled");
#endif
  Json json;
  json.Str("compiler", __VERSION__)
      .Str("build_type", TPM_PERFBENCH_BUILD_TYPE)
      .Strs("flags", flags)
      .Int("hardware_threads", std::thread::hardware_concurrency());
  return json.Done();
}

template <typename Lang>
int RunBench(const Args& args) {
  JobSpec spec;
  spec.input = args.Str("input");
  const std::string out_dir = args.Str("out-dir");
  spec.output = out_dir + "/patterns.txt";
  spec.threads = static_cast<uint32_t>(args.Num("threads", 1));
  spec.closed = args.Num("closed", 0) != 0;
  const double seconds = args.Num("seconds", 10);
  const bool trace = args.Num("trace", 0) != 0;
  const uint64_t input_bytes = std::filesystem::file_size(spec.input);
  SpeedProbe probe;

  std::vector<std::string> errors;
  Digest reference;
  // Runs one untraced job and its checks; false when either fails.
  auto run_checked = [&](JobOutput<Lang>* job, Digest* digest) {
    Status st = RunJob<Lang>(spec, nullptr, job);
    if (st.ok()) st = CheckJob<Lang>(spec, *job, digest);
    if (st.ok() && !reference.hash.empty() &&
        (digest->hash != reference.hash || digest->count != reference.count)) {
      st = Status::Internal("pattern set differs from the first job's");
    }
    if (!st.ok()) errors.push_back(st.ToString());
    return st.ok();
  };

  bool warmup_ok;
  {
    JobOutput<Lang> job;
    warmup_ok = run_checked(&job, &reference);
    if (!warmup_ok) reference = Digest();
  }

  std::vector<double> wall_s, mine_s, kernel_s;
  uint64_t failed = 0;
  const uint64_t start = NowNs();
  while (wall_s.size() < kMinJobs || Seconds(NowNs() - start) < seconds) {
    kernel_s.push_back(probe.Measure());
    JobOutput<Lang> job;
    Digest digest;
    const bool ok = run_checked(&job, &digest);
    if (!ok) ++failed;
    if (reference.hash.empty() && ok) reference = digest;
    wall_s.push_back(job.wall_s);
    mine_s.push_back(job.stats.mine_seconds);
  }
  kernel_s.push_back(probe.Measure());
  const uint64_t peak_rss = ReadPeakRssBytes();

  Json json;
  json.Raw("build", BuildFacts())
      .Bool("warmup_ok", warmup_ok)
      .Int("attempted", wall_s.size())
      .Int("failed", failed)
      .Strs("errors", errors)
      .Nums("wall_s", wall_s)
      .Nums("mine_s", mine_s)
      .Nums("kernel_s", kernel_s)
      .Num("peak_rss_mib", static_cast<double>(peak_rss) / kMiB)
      .Int("patterns", reference.count)
      .Str("hash", reference.hash);

  if (trace) {
    Json t;
    SpanLog log;
    JobOutput<Lang> job;
    obs::ClearTrace();
    obs::SetTraceEnabled(true);
    const obs::MetricsSnapshot before = obs::MetricsRegistry::Global().Snapshot();
    Status st = RunJob<Lang>(spec, &log, &job);
    obs::SetTraceEnabled(false);
    const obs::MetricsSnapshot delta =
        obs::MetricsRegistry::Global().Snapshot().Since(before);
    Digest digest;
    if (st.ok()) st = CheckJob<Lang>(spec, job, &digest);
    if (st.ok() && (digest.hash != reference.hash || digest.count != reference.count)) {
      st = Status::Internal("traced job's pattern set differs from the first job's");
    }
    t.Bool("traced_ok", st.ok());
    if (!st.ok()) t.Str("traced_error", st.ToString());

    // Layer table over the benchmark's spans and the program's own spans on
    // the job's thread; spans of other threads are listed but not charged.
    const std::vector<obs::TraceEvent> events = obs::TraceEvents();
    uint32_t main_tid = 0;
    for (const obs::TraceEvent& e : events) {
      if (std::string_view(e.name) == "io.load") {
        main_tid = e.tid;
        break;
      }
    }
    std::vector<TimedSpan> all;
    for (const SpanRecord& s : log.spans) all.push_back({s.name, main_tid, s.start_ns, s.dur_ns});
    for (const obs::TraceEvent& e : events) all.push_back({e.name, e.tid, e.start_ns, e.dur_ns});
    all = NestSpans(std::move(all));
    std::string layers = "[";
    double uncovered_s = 0.0;
    double direct_children_s = 0.0;
    for (const TimedSpan& s : all) {
      const double self_s = Seconds(s.dur_ns - std::min(s.dur_ns, s.child_ns));
      if (s.name == "bench.job") uncovered_s = self_s;
      if (s.depth == 1 && s.tid == main_tid) direct_children_s += Seconds(s.dur_ns);
      Json layer;
      layer.Str("name", s.name)
          .Int("tid", s.tid)
          .Int("depth", static_cast<uint64_t>(s.depth))
          .Num("total_s", Seconds(s.dur_ns))
          .Num("self_s", self_s);
      layers += (layers.size() > 1 ? ", " : "") + layer.Done();
    }
    t.Raw("layers", layers + "]");
    const std::string trace_path = out_dir + "/trace.json";
    if (Status ws = WriteChromeTrace(trace_path, all); !ws.ok()) {
      t.Str("trace_error", ws.ToString());
    }
    t.Str("trace_file", trace_path);

    const double job_s = log.Duration("bench.job");
    const double load_s = log.Duration("bench.io.load");
    const MiningStats& stats = job.stats;
    t.Num("trace.job_s", job_s)
        .Num("trace.layer_sum_s", direct_children_s)
        .Num("trace.uncovered_s", uncovered_s)
        .Num("trace.overhead_frac", job.wall_s / Median(wall_s) - 1.0)
        .Num("io.load_s", load_s)
        .Num("io.load_mb_per_s", static_cast<double>(input_bytes) / 1e6 / load_s)
        .Num("io.parse_s", static_cast<double>(delta.CounterValue("io.text.parse_ns") +
                                               delta.CounterValue("io.binary.parse_ns")) /
                               1e9)
        .Num("miner.build_s", stats.build_seconds)
        .Num("miner.mine_s", stats.mine_seconds)
        .Num("miner.states_per_s",
             static_cast<double>(stats.states_created) / stats.mine_seconds)
        .Int("miner.nodes", stats.nodes_expanded)
        .Int("miner.candidates", stats.candidates_checked)
        .Int("miner.states", stats.states_created)
        .Int("miner.patterns", stats.patterns_found)
        .Int("prune.pair.hits", stats.metrics.CounterValue("prune.pair.hits"))
        .Int("prune.postfix.hits", stats.metrics.CounterValue("prune.postfix.hits"))
        .Num("miner.node_yield", static_cast<double>(stats.nodes_expanded) /
                                     static_cast<double>(stats.candidates_checked))
        .Num("miner.peak_tracked_mb", static_cast<double>(stats.peak_tracked_bytes) / kMiB)
        .Num("miner.arena_peak_mb", static_cast<double>(stats.arena_peak_bytes) / kMiB)
        .Num("analysis.filter_s", log.Duration("bench.analysis.filter"))
        .Num("output.render_s", log.Duration("bench.output.render"))
        .Num("io.write_s", log.Duration("bench.io.write"))
        .Int("io.write_bytes", job.bytes_written);

    // The representation and co-occurrence builds, called directly.
    std::vector<double> rep_s, cooc_s;
    size_t sink = 0;
    for (int r = 0; r < 3; ++r) {
      uint64_t t0 = NowNs();
      sink += Lang::BuildRepresentation(job.db);
      rep_s.push_back(Seconds(NowNs() - t0));
      t0 = NowNs();
      sink += CooccurrenceTable::Build(job.db, job.db.AbsoluteSupport(kMinSupport))
                  .MemoryBytes();
      cooc_s.push_back(Seconds(NowNs() - t0));
    }
    t.Num("core.rep_build_s", Median(rep_s))
        .Num("miner.cooc_build_s", Median(cooc_s))
        .Int("build_sink", sink);

    // Speedup: untraced mine time at 1 thread over the timed jobs' median.
    MinerOptions options;
    options.min_support = kMinSupport;
    options.threads = 1;
    double mine1_s = 0.0;
    if (auto one = Lang::Miner()->Mine(job.db, options); one.ok()) {
      mine1_s = one->stats.mine_seconds;
    } else {
      t.Str("speedup_error", one.status().ToString());
    }
    t.Num("miner.mine_1thread_s", mine1_s)
        .Num("miner.speedup", mine1_s / Median(mine_s));

    // The physical-projection baseline must report the same canonical set.
    options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    options.steal = true;
    bool baseline_ok = false;
    const uint64_t b0 = NowNs();
    if (auto base = Lang::Baseline()->Mine(job.db, options); base.ok()) {
      base->SortCanonically();
      if (spec.closed) base->patterns = FilterClosed(std::move(base->patterns));
      const Digest b = CanonicalDigest(Render(base->patterns, job.db.dict()));
      baseline_ok = b.hash == reference.hash && b.count == reference.count;
      t.Int("baseline_patterns", b.count).Str("baseline_hash", b.hash);
    } else {
      t.Str("baseline_error", base.status().ToString());
    }
    t.Str("baseline", Lang::Baseline()->name())
        .Bool("baseline_ok", baseline_ok)
        .Num("baseline_s", Seconds(NowNs() - b0));
    json.Raw("trace", t.Done());
  }
  std::printf("%s\n", json.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace tpm

int main(int argc, char** argv) {
  // A SpeedProbe child that died makes Measure() return 0 instead of
  // killing this process with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  const std::string cmd = argc > 1 ? argv[1] : "";
  const tpm::Args args(argc, argv);
  if (cmd == "setup") return tpm::CmdSetup(args);
  if (cmd == "run") {
    const std::string lang = args.Str("lang");
    if (lang == "endpoint") return tpm::RunBench<tpm::EndpointLang>(args);
    if (lang == "coincidence") return tpm::RunBench<tpm::CoincidenceLang>(args);
  }
  std::fprintf(stderr,
               "usage: tpm_perfbench setup|run --name value ... "
               "(see perfbench/README.md)\n");
  return 1;
}
