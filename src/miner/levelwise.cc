#include "miner/levelwise.h"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/coincidence.h"
#include "core/containment.h"
#include "core/endpoint.h"
#include "miner/cooccurrence.h"
#include "miner/miner_metrics.h"
#include "miner/validate_hooks.h"
#include "obs/metrics.h"
#include "obs/stats_domain.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/memory.h"
#include "util/timer.h"

namespace tpm {

namespace {

// Rebuilds (items, offsets) with the given sorted item positions removed and
// empty slices collapsed. Works for both pattern item types.
template <typename ItemT>
void RemovePositions(const std::vector<ItemT>& items,
                     const std::vector<uint32_t>& offsets,
                     const std::vector<uint32_t>& remove,
                     std::vector<ItemT>* out_items,
                     std::vector<uint32_t>* out_offsets) {
  out_items->clear();
  out_offsets->clear();
  size_t r = 0;
  const uint32_t num_slices = static_cast<uint32_t>(offsets.size()) - 1;
  for (uint32_t s = 0; s < num_slices; ++s) {
    const size_t slice_start = out_items->size();
    for (uint32_t i = offsets[s]; i < offsets[s + 1]; ++i) {
      if (r < remove.size() && remove[r] == i) {
        ++r;
        continue;
      }
      out_items->push_back(items[i]);
    }
    if (out_items->size() > slice_start) {
      out_offsets->push_back(static_cast<uint32_t>(slice_start));
    }
  }
  out_offsets->push_back(static_cast<uint32_t>(out_items->size()));
}

// ---------------------------------------------------------------------------
// Endpoint language
// ---------------------------------------------------------------------------

struct EndpointFrontierPat {
  std::vector<EndpointCode> items;
  std::vector<uint32_t> offsets;  // slice begins, WITHOUT the final sentinel
  std::vector<EventId> open;      // symbols opened but not closed, any order

  EndpointPattern ToPattern() const {
    std::vector<uint32_t> full = offsets;
    full.push_back(static_cast<uint32_t>(items.size()));
    return EndpointPattern(items, full);
  }
  size_t Bytes() const {
    return items.capacity() * sizeof(EndpointCode) +
           offsets.capacity() * sizeof(uint32_t) + open.capacity() * sizeof(EventId);
  }
};

class EndpointLevelwise {
 public:
  EndpointLevelwise(const IntervalDatabase& db, const MinerOptions& options,
                    const LevelwiseConfig& config)
      : db_(db),
        options_(options),
        config_(config),
        minsup_(db.AbsoluteSupport(options.min_support)),
        owned_domain_(options.stats_domain != nullptr
                          ? nullptr
                          : new obs::StatsDomain("levelwise.endpoint")),
        domain_(options.stats_domain != nullptr ? options.stats_domain
                                                : owned_domain_.get()),
        om_(MinerMetrics::ForRegistry(&domain_->registry())) {}

  Result<EndpointMiningResult> Run() {
    EndpointMiningResult result;
    out_ = &result;
    if (MinerFaultPoint("miner.alloc", &domain_->registry())) {
      domain_->RecordEvent("fault");
      return Status::ResourceExhausted(
          "injected allocation failure building the level-wise endpoint "
          "representation (fault site miner.alloc)");
    }
    obs_start_ = domain_->registry().Snapshot();
    domain_->RecordEvent("run.begin", db_.size(), minsup_);
    WallTimer build_timer;
    {
      TPM_TRACE_SPAN("levelwise.build");
      edb_ = EndpointDatabase::FromDatabase(db_);
    }
    tracker_.Allocate(edb_.MemoryBytes());
    result.stats.build_seconds = build_timer.ElapsedSeconds();

    WallTimer mine_timer;
    // Extension alphabet: start endpoints of (frequent) symbols. Finish
    // endpoints are derived from each pattern's open list.
    CooccurrenceTable cooc = CooccurrenceTable::Build(db_, minsup_);
    std::vector<EventId> alphabet;
    for (EventId e = 0; e < db_.dict().size(); ++e) {
      const SupportCount s = cooc.SymbolSupport(e);
      if (s == 0) continue;
      if (!config_.frequent_alphabet || s >= minsup_) alphabet.push_back(e);
    }

    // Level 1: single start endpoints.
    std::vector<EndpointFrontierPat> frontier;
    for (EventId e : alphabet) {
      EndpointFrontierPat p;
      p.items = {MakeStart(e)};
      p.offsets = {0};
      p.open = {e};
      frontier.push_back(std::move(p));
    }
    while (!frontier.empty() && !guard_.stopped()) {
      frontier = ProcessLevel(std::move(frontier), alphabet);
    }
    result.stats.mine_seconds = mine_timer.ElapsedSeconds();
    result.stats.patterns_found = result.patterns.size();
    result.stats.truncated = guard_.stopped();
    result.stats.stop_reason = guard_.reason();
    RecordStopMetrics(guard_.reason(), &domain_->registry());
    result.stats.peak_tracked_bytes = tracker_.peak_bytes();
    result.stats.peak_rss_bytes = ReadPeakRssBytes();
    if (result.stats.peak_rss_bytes > 0) {
      om_.process_peak_rss->Set(
          static_cast<int64_t>(result.stats.peak_rss_bytes));
    }
    domain_->RecordEvent("run.end", result.patterns.size(),
                         result.stats.nodes_expanded);
    result.stats.metrics = domain_->registry().Snapshot().Since(obs_start_);
    obs::MetricsRegistry::Global().MergeSnapshot(result.stats.metrics);
    return result;
  }

 private:
  // Counts every candidate in `level` by a database scan, records frequent
  // ones, and returns the next level's candidates.
  std::vector<EndpointFrontierPat> ProcessLevel(
      std::vector<EndpointFrontierPat> level, const std::vector<EventId>& alphabet) {
    TPM_TRACE_SPAN("levelwise.level");
    domain_->RecordEvent("level", level.size(), out_->patterns.size());
    std::vector<EndpointFrontierPat> survivors;
    size_t level_bytes = 0;
    for (EndpointFrontierPat& cand : level) {
      if (CheckBudget()) break;
      ++out_->stats.candidates_checked;
      om_.candidates->Increment();
      const EndpointPattern pattern = cand.ToPattern();
      SupportCount support = 0;
      for (const EndpointSequence& es : edb_.sequences()) {
        if (Contains(es, pattern, options_.max_window)) ++support;
      }
      if (support < minsup_) continue;
      ++out_->stats.nodes_expanded;
      om_.node_depth->Observe(cand.items.size());
      frequent_.insert(pattern);
      if (cand.open.empty()) {
        out_->patterns.push_back(MinedPattern<EndpointPattern>{pattern, support});
        om_.patterns->Increment();
        guard_.NotePattern(out_->patterns.size());
      }
      level_bytes += cand.Bytes();
      survivors.push_back(std::move(cand));
    }
    tracker_.Allocate(level_bytes);

    std::vector<EndpointFrontierPat> next;
    for (const EndpointFrontierPat& f : survivors) {
      if (guard_.stopped()) break;
      GenerateExtensions(f, alphabet, &next);
    }
    tracker_.Release(level_bytes);
    return next;
  }

  void GenerateExtensions(const EndpointFrontierPat& f,
                          const std::vector<EventId>& alphabet,
                          std::vector<EndpointFrontierPat>* next) {
    if (options_.max_items > 0 && f.items.size() >= options_.max_items) return;
    const EndpointCode last = f.items.back();
    const bool allow_s =
        options_.max_length == 0 || f.offsets.size() < options_.max_length;

    auto try_candidate = [&](EndpointCode code, bool i_ext) {
      EndpointFrontierPat c = f;
      if (!i_ext) c.offsets.push_back(static_cast<uint32_t>(c.items.size()));
      c.items.push_back(code);
      const EventId ev = EndpointEvent(code);
      if (!IsFinish(code)) {
        c.open.push_back(ev);
      } else {
        c.open.erase(std::find(c.open.begin(), c.open.end(), ev));
      }
      if (!c.ToPattern().Validate().ok()) return;
      if (config_.apriori_check && !PassesApriori(c)) {
        om_.apriori_hits->Increment();
        return;
      }
      next->push_back(std::move(c));
    };

    for (EventId e : alphabet) {
      const bool is_open = std::find(f.open.begin(), f.open.end(), e) != f.open.end();
      const EndpointCode start = MakeStart(e);
      const EndpointCode finish = MakeFinish(e);
      if (!is_open) {
        if (allow_s) try_candidate(start, /*i_ext=*/false);
        if (start > last) try_candidate(start, /*i_ext=*/true);
      } else {
        if (allow_s) try_candidate(finish, /*i_ext=*/false);
        if (finish > last) try_candidate(finish, /*i_ext=*/true);
      }
    }
  }

  // Interval-removal Apriori check: every subpattern reachable by deleting a
  // closed interval (both endpoints) or a dangling open start must itself be
  // frequent (monotone containment, see DESIGN.md §2.2).
  bool PassesApriori(const EndpointFrontierPat& c) {
    std::vector<uint32_t> offsets_full = c.offsets;
    offsets_full.push_back(static_cast<uint32_t>(c.items.size()));
    // Pair up endpoints positionally.
    std::vector<std::vector<uint32_t>> removals;
    std::vector<std::pair<EventId, uint32_t>> open_stack;
    for (uint32_t i = 0; i < c.items.size(); ++i) {
      const EndpointCode code = c.items[i];
      const EventId ev = EndpointEvent(code);
      if (!IsFinish(code)) {
        open_stack.emplace_back(ev, i);
      } else {
        for (size_t k = open_stack.size(); k-- > 0;) {
          if (open_stack[k].first == ev) {
            removals.push_back({open_stack[k].second, i});
            open_stack.erase(open_stack.begin() + static_cast<ptrdiff_t>(k));
            break;
          }
        }
      }
    }
    for (const auto& [ev, pos] : open_stack) removals.push_back({pos});

    std::vector<EndpointCode> sub_items;
    std::vector<uint32_t> sub_offsets;
    for (const std::vector<uint32_t>& rm : removals) {
      RemovePositions(c.items, offsets_full, rm, &sub_items, &sub_offsets);
      if (sub_items.empty()) continue;
      if (frequent_.find(EndpointPattern(sub_items, sub_offsets)) ==
          frequent_.end()) {
        return false;
      }
    }
    return true;
  }

  bool CheckBudget() { return guard_.ShouldStop(); }
  const IntervalDatabase& db_;
  const MinerOptions& options_;
  const LevelwiseConfig& config_;
  const SupportCount minsup_;
  EndpointDatabase edb_;
  std::unordered_set<EndpointPattern, EndpointPatternHash> frequent_;
  // Declared before guard_ so the on_stop hook may fire at any point in the
  // guard's lifetime.
  std::unique_ptr<obs::StatsDomain> owned_domain_;
  obs::StatsDomain* domain_ = nullptr;
  MinerMetrics om_;
  GuardLimits MakeGuardLimits() {
    GuardLimits limits = options_.ToGuardLimits();
    limits.on_stop = [this](StopReason reason) {
      domain_->RecordEvent("guard.stop", static_cast<uint64_t>(reason),
                           out_ != nullptr ? out_->stats.nodes_expanded : 0);
    };
    return limits;
  }
  MemoryTracker tracker_;
  ExecutionGuard guard_{MakeGuardLimits(), &tracker_};
  EndpointMiningResult* out_ = nullptr;
  obs::MetricsSnapshot obs_start_;
};

// ---------------------------------------------------------------------------
// Coincidence language
// ---------------------------------------------------------------------------

struct CoinFrontierPat {
  std::vector<EventId> items;
  std::vector<uint32_t> offsets;  // coincidence begins, WITHOUT final sentinel

  CoincidencePattern ToPattern() const {
    std::vector<uint32_t> full = offsets;
    full.push_back(static_cast<uint32_t>(items.size()));
    return CoincidencePattern(items, full);
  }
  size_t Bytes() const {
    return items.capacity() * sizeof(EventId) +
           offsets.capacity() * sizeof(uint32_t);
  }
};

class CoincidenceLevelwise {
 public:
  CoincidenceLevelwise(const IntervalDatabase& db, const MinerOptions& options,
                       const LevelwiseConfig& config)
      : db_(db),
        options_(options),
        config_(config),
        minsup_(db.AbsoluteSupport(options.min_support)),
        owned_domain_(options.stats_domain != nullptr
                          ? nullptr
                          : new obs::StatsDomain("levelwise.coincidence")),
        domain_(options.stats_domain != nullptr ? options.stats_domain
                                                : owned_domain_.get()),
        om_(MinerMetrics::ForRegistry(&domain_->registry())) {}

  Result<CoincidenceMiningResult> Run() {
    CoincidenceMiningResult result;
    out_ = &result;
    if (MinerFaultPoint("miner.alloc", &domain_->registry())) {
      domain_->RecordEvent("fault");
      return Status::ResourceExhausted(
          "injected allocation failure building the level-wise coincidence "
          "representation (fault site miner.alloc)");
    }
    obs_start_ = domain_->registry().Snapshot();
    domain_->RecordEvent("run.begin", db_.size(), minsup_);
    WallTimer build_timer;
    {
      TPM_TRACE_SPAN("levelwise.build");
      cdb_ = CoincidenceDatabase::FromDatabase(db_);
    }
    tracker_.Allocate(cdb_.MemoryBytes());
    result.stats.build_seconds = build_timer.ElapsedSeconds();

    WallTimer mine_timer;
    CooccurrenceTable cooc = CooccurrenceTable::Build(db_, minsup_);
    std::vector<EventId> alphabet;
    for (EventId e = 0; e < db_.dict().size(); ++e) {
      const SupportCount s = cooc.SymbolSupport(e);
      if (s == 0) continue;
      if (!config_.frequent_alphabet || s >= minsup_) alphabet.push_back(e);
    }

    std::vector<CoinFrontierPat> frontier;
    for (EventId e : alphabet) {
      frontier.push_back(CoinFrontierPat{{e}, {0}});
    }
    while (!frontier.empty() && !guard_.stopped()) {
      frontier = ProcessLevel(std::move(frontier), alphabet);
    }
    result.stats.mine_seconds = mine_timer.ElapsedSeconds();
    result.stats.patterns_found = result.patterns.size();
    result.stats.truncated = guard_.stopped();
    result.stats.stop_reason = guard_.reason();
    RecordStopMetrics(guard_.reason(), &domain_->registry());
    result.stats.peak_tracked_bytes = tracker_.peak_bytes();
    result.stats.peak_rss_bytes = ReadPeakRssBytes();
    if (result.stats.peak_rss_bytes > 0) {
      om_.process_peak_rss->Set(
          static_cast<int64_t>(result.stats.peak_rss_bytes));
    }
    domain_->RecordEvent("run.end", result.patterns.size(),
                         result.stats.nodes_expanded);
    result.stats.metrics = domain_->registry().Snapshot().Since(obs_start_);
    obs::MetricsRegistry::Global().MergeSnapshot(result.stats.metrics);
    return result;
  }

 private:
  std::vector<CoinFrontierPat> ProcessLevel(std::vector<CoinFrontierPat> level,
                                            const std::vector<EventId>& alphabet) {
    TPM_TRACE_SPAN("levelwise.level");
    domain_->RecordEvent("level", level.size(), out_->patterns.size());
    std::vector<CoinFrontierPat> survivors;
    size_t level_bytes = 0;
    for (CoinFrontierPat& cand : level) {
      if (CheckBudget()) break;
      ++out_->stats.candidates_checked;
      om_.candidates->Increment();
      const CoincidencePattern pattern = cand.ToPattern();
      SupportCount support = 0;
      for (const CoincidenceSequence& cs : cdb_.sequences()) {
        if (Contains(cs, pattern, options_.max_window)) ++support;
      }
      if (support < minsup_) continue;
      ++out_->stats.nodes_expanded;
      om_.node_depth->Observe(cand.items.size());
      frequent_.insert(pattern);
      out_->patterns.push_back(MinedPattern<CoincidencePattern>{pattern, support});
      om_.patterns->Increment();
      guard_.NotePattern(out_->patterns.size());
      level_bytes += cand.Bytes();
      survivors.push_back(std::move(cand));
    }
    tracker_.Allocate(level_bytes);

    std::vector<CoinFrontierPat> next;
    auto admit = [&](CoinFrontierPat c) {
      if (config_.apriori_check && !PassesApriori(c)) {
        om_.apriori_hits->Increment();
        return;
      }
      next.push_back(std::move(c));
    };
    for (const CoinFrontierPat& f : survivors) {
      if (guard_.stopped()) break;
      if (options_.max_items > 0 && f.items.size() >= options_.max_items) continue;
      const bool allow_s =
          options_.max_length == 0 || f.offsets.size() < options_.max_length;
      for (EventId e : alphabet) {
        if (allow_s) {
          CoinFrontierPat c = f;
          c.offsets.push_back(static_cast<uint32_t>(c.items.size()));
          c.items.push_back(e);
          admit(std::move(c));
        }
        if (e > f.items.back()) {
          CoinFrontierPat c = f;
          c.items.push_back(e);
          admit(std::move(c));
        }
      }
    }
    tracker_.Release(level_bytes);
    return next;
  }

  // Single-item-removal Apriori check (monotone for coincidence patterns).
  bool PassesApriori(const CoinFrontierPat& c) {
    std::vector<uint32_t> offsets_full = c.offsets;
    offsets_full.push_back(static_cast<uint32_t>(c.items.size()));
    std::vector<EventId> sub_items;
    std::vector<uint32_t> sub_offsets;
    for (uint32_t i = 0; i < c.items.size(); ++i) {
      RemovePositions(c.items, offsets_full, {i}, &sub_items, &sub_offsets);
      if (sub_items.empty()) continue;
      if (frequent_.find(CoincidencePattern(sub_items, sub_offsets)) ==
          frequent_.end()) {
        return false;
      }
    }
    return true;
  }

  bool CheckBudget() { return guard_.ShouldStop(); }
  const IntervalDatabase& db_;
  const MinerOptions& options_;
  const LevelwiseConfig& config_;
  const SupportCount minsup_;
  CoincidenceDatabase cdb_;
  std::unordered_set<CoincidencePattern, CoincidencePatternHash> frequent_;
  // Declared before guard_ so the on_stop hook may fire at any point in the
  // guard's lifetime.
  std::unique_ptr<obs::StatsDomain> owned_domain_;
  obs::StatsDomain* domain_ = nullptr;
  MinerMetrics om_;
  GuardLimits MakeGuardLimits() {
    GuardLimits limits = options_.ToGuardLimits();
    limits.on_stop = [this](StopReason reason) {
      domain_->RecordEvent("guard.stop", static_cast<uint64_t>(reason),
                           out_ != nullptr ? out_->stats.nodes_expanded : 0);
    };
    return limits;
  }
  MemoryTracker tracker_;
  ExecutionGuard guard_{MakeGuardLimits(), &tracker_};
  CoincidenceMiningResult* out_ = nullptr;
  obs::MetricsSnapshot obs_start_;
};

// Checkpoint/resume is a growth-engine feature: a level-wise run offered a
// writer or a checkpoint fails loudly instead of silently ignoring it.
Status RejectCheckpointing(const MinerOptions& options) {
  if (options.checkpoint_writer != nullptr || options.resume != nullptr) {
    return Status::InvalidArgument(
        "checkpoint/resume is supported only by the prefix-growth miners "
        "(P-TPMiner, TPrefixSpan, CTMiner), not the level-wise miners");
  }
  return Status::OK();
}

}  // namespace

Result<EndpointMiningResult> MineLevelwiseEndpoint(const IntervalDatabase& db,
                                                   const MinerOptions& options,
                                                   const LevelwiseConfig& config) {
  TPM_RETURN_NOT_OK(db.Validate());
  internal::DCheckEndpointMinerEntry(db);
  // Negated comparison so NaN is rejected too: NaN <= 0.0 is false, and a
  // NaN threshold would otherwise disable the support filter entirely.
  if (!(options.min_support > 0.0)) {
    return Status::InvalidArgument("min_support must be positive");
  }
  TPM_RETURN_NOT_OK(RejectCheckpointing(options));
  EndpointLevelwise miner(db, options, config);
  Result<EndpointMiningResult> result = miner.Run();
  if (result.ok()) internal::DCheckMinerExit(*result);
  return result;
}

Result<CoincidenceMiningResult> MineLevelwiseCoincidence(
    const IntervalDatabase& db, const MinerOptions& options,
    const LevelwiseConfig& config) {
  TPM_RETURN_NOT_OK(db.Validate());
  internal::DCheckCoincidenceMinerEntry(db);
  // Negated comparison so NaN is rejected too: NaN <= 0.0 is false, and a
  // NaN threshold would otherwise disable the support filter entirely.
  if (!(options.min_support > 0.0)) {
    return Status::InvalidArgument("min_support must be positive");
  }
  TPM_RETURN_NOT_OK(RejectCheckpointing(options));
  CoincidenceLevelwise miner(db, options, config);
  Result<CoincidenceMiningResult> result = miner.Run();
  if (result.ok()) internal::DCheckMinerExit(*result);
  return result;
}

}  // namespace tpm
