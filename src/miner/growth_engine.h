// Shared prefix-growth engine for the projection-based miners.
//
// P-TPMiner/E (endpoint language) and P-TPMiner/C (coincidence language)
// differ only in their pattern representation and extension semantics; the
// search scaffolding — projected-database buckets, support counting,
// candidate admission (pair/postfix pruning, decided once per child key in a
// dense key table), allowed-symbol epoch tracking, physical-copy baselines,
// deterministic child ordering, guard/metrics/validator hooks, and the
// recursion driver — is identical. GrowthEngine<Policy> owns all of that;
// the policy contributes the language-specific pieces:
//
//   using PatternT / ResultT
//   kBuildSpanName / kGrowSpanName / kFaultMessage
//   Build(db) -> representation bytes;  NumSeqs / NumItems / ItemCode
//   IntroducesSymbol(code) / SymbolOf(code)     admission gating
//   Stride() / ChildStride(code, i_ext)         aux-slice widths
//   ScanState(ctx, seq, rec, aux, item_at, try_push)   candidate loops
//   SExtFrom(seq, item) / SExtReachOf(code)     S-extension reach
//   SelectSpan(span_view, keep)                 per-sequence dedup/dominance
//   CanEmit / MakePattern / PatternLen / NumBlocks
//   Apply / Undo (extension on the pattern stack)
//   InPattern / PatternSymbols                  pair-pruning queries
//   BeginNode / FlushNodeMetrics                per-node policy counters
//
// ScanState gets a GrowthScanCtx per span: whether the pattern may grow a
// new slice/segment, and the ascending positions its S-extension loop walks
// from lower_bound(SExtFrom(seq, state item)). The engine builds that list
// in the pass that counts postfix symbols. It holds the positions whose key
// admission may keep (less codes that introduce no symbol and that
// SExtReachOf says are never pushed), and none whose key it rejects, except
// while such a key is unseen in the node and SExtReachOf says reaching it
// depends on the state. A rejected key that every state at or before its
// position reaches (kAlways) is admitted by the pass itself, so candidate
// and prune counts stay those of a full scan. The I-extension loops walk
// every item of the state's own slice/segment.
//
// The engine is split into three layers (docs/ARCHITECTURE.md, "Scheduler /
// worker / merger"):
//
//   scheduler  The root-node scan produces the level-1 buckets in the
//              deterministic child order. Each is a work unit whose id IS
//              the bucket index, so a unit means the same subtree for every
//              thread count and every checkpoint ever written; the units
//              are queued (miner/scheduler.h) as items rooted at depth 1. A
//              heavyweight unit (a decision on projection sizes only) is
//              split: its root's frequent children become items one level
//              deeper, and so do theirs, down to kMaxSplitDepth, so the
//              work-item set never depends on the thread count.
//
//   workers    Each worker owns a full WorkerCtx: a copy of the built
//              policy (cheap — the language representation is shared via
//              shared_ptr), its own MemoryTracker, ProjectionArenas,
//              ExecutionGuard, child-key table, per-depth child storage and
//              postfix-count scratch. Every unit is mined against its own
//              MetricsRegistry; the items of a split unit charge it from
//              whichever worker runs them, through the registry's lock-free
//              sharded cells. Worker 0 is the calling thread at every
//              thread count; --threads=N spawns N - 1 more.
//
//   merger     Workers deliver finished units (pattern bank + metrics
//              delta) through a single mutex-guarded inbox; worker 0, between
//              items and while it waits, folds them, advances the checkpoint
//              frontier and emits progress. Metrics fold through the
//              MergeDomainSnapshots contract (sorted, commutative folds) and
//              the final pattern list is assembled in unit-id order — so the
//              output is byte-identical for any thread count and any
//              completion order.
//
// Stop propagation is lock-free: every guard's on_stop funnels into a CAS
// on first_stop_reason_ plus a stop flag every worker polls, so a pattern
// cap, deadline, memory trip, or SIGINT on any thread winds down the whole
// crew with the usual bounded latency.
//
// Lock order (see docs/STATIC_ANALYSIS.md): WorkScheduler::mu_ and
// DeliveryInbox::mu are independent leaf locks — no code path holds both,
// and neither is held across metrics, I/O, or policy calls.
//
// Projection storage is delegated to core/projection.h: the builder stages
// into a per-worker shared arena (reset once per node) and finalizes into
// per-depth arenas (rewound when the subtree exits), making each
// MemoryTracker's view of projection bytes exact. The physical-projection
// baselines (TPrefixSpan / CTMiner) use the same builder; what makes them
// physical is the per-span postfix copy ExpandNode scans instead of the
// sequence itself.

#pragma once


#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/projection.h"
#include "io/checkpoint.h"
#include "miner/cooccurrence.h"
#include "miner/miner_metrics.h"
#include "miner/options.h"
#include "miner/scheduler.h"
#include "miner/validate_hooks.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stats_domain.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/memory.h"
#include "util/sched_test.h"
#include "util/string_util.h"
#include "util/sync.h"
#include "util/timer.h"

namespace tpm {

/// Which states of a node an S-extension to a given code can reach, for a
/// position at or after the state's Policy::SExtFrom.
enum class SExtReach : uint8_t {
  kNever,     ///< no state: the S-extension loop never pushes the code
  kAlways,    ///< every state: nothing between `from` and the push can skip it
  kPerState,  ///< it depends on the state (a window, a run-broken check, ...)
};

/// Span-scoped scan parameters handed to Policy::ScanState.
struct GrowthScanCtx {
  bool allow_s_ext = false;  ///< may the pattern grow a new slice/segment?
  /// The positions the S-extension loops walk, ascending from the span's
  /// first unmatched item: those whose key admission may keep, and those
  /// with a rejected key the node has not counted yet whose reach depends
  /// on the state. Every other position is either never pushed or pushes a
  /// key admission rejects.
  std::span<const uint32_t> s_items;
};

template <typename Policy>
class GrowthEngine {
 public:
  using ResultT = typename Policy::ResultT;
  using PatternT = typename Policy::PatternT;

  GrowthEngine(const IntervalDatabase& db, const MinerOptions& options,
               const GrowthConfig& config)
      : db_(db),
        options_(options),
        config_(config),
        minsup_(db.AbsoluteSupport(options.min_support)),
        policy_(options, config),
        owned_domain_(options.stats_domain != nullptr
                          ? nullptr
                          : new obs::StatsDomain(Policy::kGrowSpanName)),
        domain_(options.stats_domain != nullptr ? options.stats_domain
                                                : owned_domain_.get()),
        om_(MinerMetrics::ForRegistry(&domain_->registry())),
        progress_(options.progress),
        arenas_(&tracker_) {
    if (config_.physical_baseline) {
      pair_pruning_ = false;
      postfix_pruning_ = false;
    } else {
      pair_pruning_ = options_.pair_pruning;
      postfix_pruning_ = options_.postfix_pruning;
    }
    ckpt_writer_ = options.checkpoint_writer;
    resume_ = options.resume;
  }

  Result<ResultT> Run() {
    ResultT result;
    if (MinerFaultPoint("miner.alloc", &domain_->registry())) {
      domain_->RecordEvent("fault", /*a=*/0, /*b=*/0);
      return Status::ResourceExhausted(Policy::kFaultMessage);
    }
    // Run identity only matters when checkpointing is live: fingerprinting
    // walks the whole database, so the default (off) pays nothing.
    if (ckpt_writer_ != nullptr || resume_ != nullptr) {
      run_key_ = MakeRunKey();
      if (resume_ != nullptr && resume_->key != run_key_) {
        std::string msg = "checkpoint does not match this run:";
        for (const std::string& diff : DiffRunKeys(resume_->key, run_key_)) {
          msg += "\n  " + diff;
        }
        return Status::InvalidArgument(msg);
      }
    }
    run_timer_.Reset();
    // Per-run attribution against the domain registry: the domain may be
    // caller-owned and reused across runs, so deltas are still needed.
    obs_start_ = domain_->registry().Snapshot();
    domain_->RecordEvent("run.begin", db_.size(), minsup_);
    WallTimer build_timer;
    size_t rep_bytes = 0;
    {
      TPM_TRACE_SPAN(Policy::kBuildSpanName);
      rep_bytes = policy_.Build(db_);
      cooc_ = CooccurrenceTable::Build(db_, minsup_);
    }
    result.stats.build_bytes = rep_bytes + cooc_.MemoryBytes();
    tracker_.Allocate(result.stats.build_bytes);
    num_symbols_ = db_.dict().size();
    result.stats.build_seconds = build_timer.ElapsedSeconds();
    domain_->RecordEvent("build.done", rep_bytes, cooc_.MemoryBytes());

    WallTimer mine_timer;
    TPM_TRACE_SPAN(Policy::kGrowSpanName);
    // Root projection: one virgin state per non-empty sequence.
    ProjectionBuilder root_builder;
    root_builder.Init(/*stride=*/0, &arenas_, /*depth=*/0);
    for (uint32_t s = 0; s < policy_.NumSeqs(); ++s) {
      if (policy_.NumItems(s) == 0) continue;
      root_builder.Push(s, kNoStateItem, kNoStateItem);
    }
    const NodeProjection& root = root_builder.FinalizeKeepAll();
    internal::DCheckProjection(root);
    arenas_.staging().Reset();

    std::vector<uint8_t> allowed(num_symbols_, 1);
    if (postfix_pruning_ || pair_pruning_) {
      for (EventId e = 0; e < num_symbols_; ++e) {
        allowed[e] = cooc_.IsFrequentSymbol(e) ? 1 : 0;
      }
    }
    out_ = &result;
    SeedFromResume();

    // Progress slot 0 is the root context's; worker i charges slot i + 1.
    const uint32_t nthreads = options_.threads > 0 ? options_.threads : 1;
    if (progress_ != nullptr) progress_->ConfigureSlots(nthreads + 1);

    // The calling thread's context: the root node is expanded against the
    // engine-owned policy/tracker/arenas/guard, charging the run domain —
    // exactly the single-thread preamble every thread count shares. Its
    // pattern count starts at the resumed patterns, so progress counts them.
    WorkerCtx root_ctx;
    root_ctx.policy = &policy_;
    root_ctx.tracker = &tracker_;
    root_ctx.arenas = &arenas_;
    root_ctx.guard = &guard_;
    root_ctx.InitScratch(num_symbols_);
    root_ctx.om = om_;
    Bank root_bank;
    root_ctx.bank = &root_bank;
    root_ctx.patterns_emitted = patterns_total_.load(std::memory_order_relaxed);

    NodeChildren* root_nc = ExpandNode(root_ctx, root, allowed, 0);
    if (root_nc != nullptr) {
      BuildUnits(*root_nc);
      if (progress_ != nullptr) progress_->SetTotalBuckets(units_.size());
    }
    // Metrics watershed: everything charged to the run domain so far
    // (run.begin, build, the root-node scan) is the preamble; unit work is
    // charged to per-unit domains from here on, and the run domain only
    // accumulates the tail (run.end, stop accounting, end-of-run gauges).
    // base + unit deltas + tail partitions exactly the charges a
    // single-thread run makes, so the merged result is byte-identical for
    // every thread count — and, on a resume, composes with the prior
    // segment's boundary metrics the same way.
    preamble_end_ = domain_->registry().Snapshot();
    if (root_nc != nullptr && ckpt_writer_ != nullptr) {
      boundary_elapsed_ =
          (resume_ != nullptr ? resume_->elapsed_seconds : 0.0) +
          run_timer_.ElapsedSeconds();
    }

    if (root_nc != nullptr) {
      RunUnits(root_ctx, nthreads);
      ReleaseNode(root_ctx, root_nc, 0);
    }
    TickProgress(root_ctx);

    const StopReason stop_reason = static_cast<StopReason>(
        first_stop_reason_.load(std::memory_order_relaxed));
    // A stop that tripped on a worker guard has not been recorded in the
    // run's flight recorder yet (the engine guard's on_stop records its own
    // trips at trip time, pre-unit stops included).
    if (stop_reason != StopReason::kNone && !guard_.stopped()) {
      domain_->RecordEvent("guard.stop", static_cast<uint64_t>(stop_reason),
                           root_ctx.nodes + worker_nodes_);
    }
    if (!ckpt_status_.ok()) return ckpt_status_;
    // A truncated run (guard stop, cancellation/SIGINT) leaves a final
    // checkpoint at the merged completed-unit frontier so the work survives.
    // Written before assembly: AssembleResult moves the unit banks into the
    // result, and the checkpoint serializes those same banks.
    if (ckpt_writer_ != nullptr && stop_reason != StopReason::kNone) {
      TPM_RETURN_NOT_OK(WriteCheckpointNow());
      domain_->recorder().Record("ckpt.write", last_ckpt_units_,
                                 last_ckpt_patterns_);
    }
    AssembleResult(&result, &root_bank);
    result.stats.mine_seconds = mine_timer.ElapsedSeconds();
    result.stats.patterns_found = result.patterns.size();
    result.stats.truncated = stop_reason != StopReason::kNone;
    result.stats.stop_reason = stop_reason;
    RecordStopMetrics(stop_reason, &domain_->registry());
    result.stats.nodes_expanded = root_ctx.nodes + worker_nodes_;
    result.stats.candidates_checked = root_ctx.cands + worker_cands_;
    result.stats.states_created = root_ctx.states + worker_states_;
    result.stats.peak_tracked_bytes = tracker_.peak_bytes() + worker_peak_;
    result.stats.arena_peak_bytes =
        arenas_.total_allocated_bytes() + worker_arena_bytes_;
    result.stats.peak_rss_bytes = ReadPeakRssBytes();
    om_.arena_peak->Set(static_cast<int64_t>(result.stats.arena_peak_bytes));
    om_.arena_blocks->Increment(arenas_.total_blocks() + worker_arena_blocks_);
    // Final VmHWM sample: a truncated run's peak was already captured by the
    // progress tracker at snapshot time; this records the end-of-run value.
    if (result.stats.peak_rss_bytes > 0) {
      om_.process_peak_rss->Set(
          static_cast<int64_t>(result.stats.peak_rss_bytes));
    }
    domain_->RecordEvent("run.end", result.patterns.size(),
                         result.stats.nodes_expanded);
    result.stats.metrics = FinalMetrics();
    // Fold the run into the process-global registry so whole-process scrapes
    // (--metrics-out, CI smoke asserts) see every domain's work.
    obs::MetricsRegistry::Global().MergeSnapshot(result.stats.metrics);
    if (progress_ != nullptr) progress_->Finish();
    return result;
  }

 private:
  using Bank = std::vector<MinedPattern<PatternT>>;

  // One candidate extension's child projection under construction.
  struct Bucket {
    uint32_t code = 0;
    bool i_ext = false;
    uint32_t support = 0;  ///< staged span count, set before finalizing
    ProjectionBuilder builder;
  };

  // Child-key table slot values; any other slot is a bucket index.
  static constexpr int32_t kUnseenKey = -1;
  static constexpr int32_t kRejectedKey = -2;

  // A node's finalized children. Each context keeps one per depth and every
  // node it expands at that depth reuses it, so the vectors keep their
  // capacity. It is live from ExpandNode to ReleaseNode: the views and
  // `child_allowed` that the subtree walk, the root's units or a split
  // node's sub-units (Item::view, Item::allowed) read stay valid exactly
  // that long. ReleaseNode undoes the postfix-copy charge and
  // rewinds the child-depth arena.
  struct NodeChildren {
    std::vector<Bucket> buckets;  ///< in first-seen order
    std::vector<uint32_t> order;  ///< bucket indices: i_ext desc, code asc
    std::vector<uint8_t> child_allowed;
    size_t copies_bytes = 0;
    Arena::Mark child_mark;
    bool live = false;
  };

  // One execution context: the bindings a worker (or the calling thread)
  // mines with, plus the scan scratch it owns. The pointees are either
  // engine members (root context) or a WorkerSlot's privately owned copies —
  // never shared between two concurrently mining contexts.
  struct WorkerCtx {
    uint32_t id = 0;
    Policy* policy = nullptr;
    MemoryTracker* tracker = nullptr;
    ProjectionArenas* arenas = nullptr;
    ExecutionGuard* guard = nullptr;

    // Child-key table: one slot per key (code << 1) | i_ext, and both
    // policies' codes stay below 2·|alphabet|. A slot is kUnseenKey,
    // kRejectedKey or the bucket index of the node being scanned. Each scan
    // records the keys it first sees in `touched` and resets exactly those
    // afterwards, so the table is all-unseen between nodes.
    std::vector<int32_t> key_slot;
    std::vector<uint32_t> touched;
    std::vector<SupportCount> postfix_count;
    // Postfix-counting dedup: a symbol is counted once per projected span
    // when its stamp differs from the span's epoch. 64-bit because the
    // epoch advances once per span: a 32-bit one wraps after 2^32 spans on
    // one context, and never-seen symbols (stamp 0) would then look already
    // counted and silently undercount the postfix support.
    std::vector<uint64_t> seen_epoch;
    uint64_t epoch = 0;
    std::vector<uint32_t> s_items;  ///< GrowthScanCtx::s_items of one span
    std::deque<NodeChildren> children;  ///< by depth; deque: stable addresses

    // Current work-item bindings (swapped per item).
    MinerMetrics om{};
    Bank* bank = nullptr;

    // Cumulative counters, folded into MiningStats after the join and
    // published to the context's progress slot.
    uint64_t nodes = 0;
    uint64_t states = 0;
    uint64_t cands = 0;
    uint64_t patterns_emitted = 0;
    uint32_t progress_slot = 0;

    // Scheduling attribution (miner.worker.*); null for the root context.
    obs::Histogram* attr_nodes = nullptr;
    obs::Histogram* attr_units = nullptr;

    void InitScratch(size_t num_symbols) {
      key_slot.assign(4 * num_symbols, kUnseenKey);
      seen_epoch.assign(num_symbols, 0);
    }

    NodeChildren& ChildrenAt(uint32_t depth) {
      if (children.size() <= depth) children.resize(depth + 1);
      return children[depth];
    }
  };

  // Everything one worker privately owns. The policy copy is cheap: the
  // built language representation is shared behind a shared_ptr and the
  // DFS stacks are empty at unit-phase start.
  struct WorkerSlot {
    WorkerSlot(GrowthEngine* e, uint32_t id)
        : policy(e->policy_),
          arenas(&tracker),
          guard(e->MakeWorkerLimits(), &tracker) {
      ctx.id = id;
      ctx.progress_slot = id + 1;
      ctx.policy = &policy;
      ctx.tracker = &tracker;
      ctx.arenas = &arenas;
      ctx.guard = &guard;
      ctx.InitScratch(e->num_symbols_);
      ctx.attr_nodes = attribution.GetHistogram("miner.worker.nodes",
                                                obs::LinearBounds(0, 1, 65));
      ctx.attr_units = attribution.GetHistogram("miner.worker.units",
                                                obs::LinearBounds(0, 1, 65));
    }
    Policy policy;
    MemoryTracker tracker;
    ProjectionArenas arenas;
    ExecutionGuard guard;
    obs::MetricsRegistry attribution;  // worker-<id>: miner.worker.*
    WorkerCtx ctx;
  };

  // The merged fate of one unit. `bank`/`delta` are written by the merger
  // (or the pre-pass / resume transfer on the calling thread) only.
  struct UnitOutcome {
    bool delivered = false;  ///< a worker finished (possibly truncated)
    bool complete = false;   ///< subtree fully mined — checkpointable
    bool from_resume = false;
    Bank bank;
    obs::MetricsSnapshot delta;  ///< empty for resumed units (in the prior)
  };

  // A resumed unit whose key did not (or cannot yet) match a bucket: kept
  // verbatim so its patterns and checkpoint claim survive even when the run
  // stops before the root scan rebuilds the bucket set.
  struct ResumeUnit {
    uint64_t key = 0;
    Bank bank;
  };

  // What a worker hands the merger for one finished unit.
  struct UnitDelivery {
    uint64_t unit_id = 0;
    bool complete = false;
    Bank bank;
    obs::MetricsSnapshot delta;
  };

  // Leaf lock (held only around the vector ops, never across metrics, I/O,
  // or the scheduler's lock).
  struct DeliveryInbox {
    Mutex mu;
    std::vector<UnitDelivery> items TPM_GUARDED_BY(mu);
  };

  // Depth of the deepest sub-unit root. Inside a split unit, every
  // frequent child of an item rooted above this depth is published as a
  // sub-unit of its own, whatever its size: below the unit level neither
  // span nor state counts predict subtree size, so the split is structural
  // and the item set depends on the data only, never on the thread count.
  static constexpr uint32_t kMaxSplitDepth = 4;

  // Join state for one split node; `remaining` is the release/acquire
  // barrier that publishes the sub-units' results back to their parent.
  struct SplitState {
    std::atomic<uint32_t> remaining{0};
  };

  // A unit's metrics, shared by every item of the unit: sub-units may run
  // on other workers and charge the unit's registry directly (its cells are
  // lock-free sharded atomics, and every fold is a sum). The unit's own item
  // snapshots it, after every item has joined.
  struct UnitMetrics {
    UnitMetrics()
        : om(MinerMetrics::ForRegistry(&registry)),
          // Work-item sizes: the nodes each item expanded itself (a split
          // item's root only) and the depth of its root.
          item_nodes(registry.GetHistogram("miner.item.nodes",
                                           obs::ExponentialBounds(1, 4.0, 12))),
          item_depth(
              registry.GetHistogram("miner.item.depth",
                                    obs::LinearBounds(1, 1, kMaxSplitDepth))) {}
    obs::MetricsRegistry registry;
    MinerMetrics om;
    obs::Histogram* item_nodes;
    obs::Histogram* item_depth;
  };

  // One work item: a whole unit (root depth 1, no `join`; units_[unit_id])
  // or a sub-unit of a split node. The root's view and allowed set live in
  // the parent's arenas and NodeChildren (the root context's, for a unit),
  // which stay live until the item has joined. The outputs are written by
  // whoever mined the item; for a sub-unit that happens before its
  // release-decrement on `join`, and the parent reads them after its
  // acquire-load observes zero.
  struct Item {
    uint64_t unit_id = 0;
    UnitMetrics* unit = nullptr;  ///< the unit's, while the unit is mined
    /// Null for a unit below minsup: never finalized, never mined.
    const NodeProjection* view = nullptr;
    const std::vector<uint8_t>* allowed = nullptr;
    /// (code, i_ext) replay from the search root; its length is the depth
    /// of the item's root node.
    std::vector<std::pair<uint32_t, bool>> path;
    bool split = false;          ///< publish the root's children as items
    SplitState* join = nullptr;  ///< the parent's; null for a whole unit
    bool complete = false;
    Bank bank;
    uint64_t max_nodes = 0;  ///< the largest item among this one and its subs
  };

  // ---- Worker layer ----------------------------------------------------

  /// One consolidated stop poll: the context's own guard first (sticky),
  /// then the crew-wide flag (tripping this guard so the stop reason and
  /// on_stop accounting stay uniform), then the guard's own limits.
  bool WorkerShouldStop(WorkerCtx& w) {
    if (w.guard->stopped()) return true;
    if (stop_flag_.load(std::memory_order_relaxed)) {
      w.guard->Trip(StopReason::kCancelled);
      return true;
    }
    return w.guard->ShouldStop();
  }

  void TickProgress(WorkerCtx& w) {
    if (progress_ == nullptr) return;
    progress_->Tick(w.progress_slot, w.nodes, w.patterns_emitted,
                    w.tracker->current_bytes());
  }

  /// Expands one node: charges it, emits when the policy deems the pattern
  /// complete, scans the projection, and finalizes the children into the
  /// context's NodeChildren for `depth`, which it returns live. Returns null
  /// when the node produced no children to walk (guard stop, emit-time stop,
  /// or the max_items cutoff); nothing needs a ReleaseNode then.
  NodeChildren* ExpandNode(WorkerCtx& w, const NodeProjection& proj,
                           const std::vector<uint8_t>& allowed,
                           uint32_t depth) {
    // Arena-lifetime contract: the projection's depth arena must not have
    // rewound since Finalize (docs/ARCHITECTURE.md). A violation here means
    // a node's children were released while its subtree (or a published
    // sub-unit of it) was still live — exactly the bug class the scheduler
    // could introduce.
    proj.CheckAlive();
    if (WorkerShouldStop(w)) return nullptr;
    ++w.nodes;
    TickProgress(w);
    w.om.node_depth->Observe(w.policy->PatternLen());
    w.om.projected_seqs->Observe(proj.num_spans);
    w.om.projected_states->Observe(proj.num_states);
    if (w.attr_nodes != nullptr) w.attr_nodes->Observe(w.id);
    const uint64_t node_states_before = w.states;
    const uint64_t node_cands_before = w.cands;
    w.policy->BeginNode();

    // Report the pattern at this node when the policy deems it complete.
    if (w.policy->CanEmit()) {
      EmitPattern(w, static_cast<SupportCount>(proj.num_spans));
      if (w.guard->stopped()) return nullptr;
    }
    if (options_.max_items > 0 &&
        w.policy->PatternLen() >= options_.max_items) {
      return nullptr;
    }

    GrowthScanCtx ctx;
    ctx.allow_s_ext = options_.max_length == 0 ||
                      w.policy->NumBlocks() < options_.max_length ||
                      w.policy->PatternLen() == 0;

    // Same-depth storage contract: a node at this depth on this context is
    // still walking (or waiting on sub-units of) the children it finalized
    // here.
    NodeChildren& nc = w.ChildrenAt(depth);
    TPM_DCHECK(!nc.live);
    nc.live = true;
    nc.buckets.clear();
    nc.copies_bytes = 0;
    if (postfix_pruning_) w.postfix_count.assign(num_symbols_, 0);
    uint32_t cur_seq = 0;

    auto try_push = [&](uint32_t code, bool i_ext, uint32_t item,
                        uint32_t anchor) -> uint32_t* {
      const uint32_t key = (code << 1) | (i_ext ? 1u : 0u);
      TPM_DCHECK(key < w.key_slot.size());
      int32_t slot = w.key_slot[key];
      if (slot == kUnseenKey) slot = AdmitKey(w, &nc, allowed, depth, key);
      if (slot < 0) return nullptr;
      ++w.states;
      return nc.buckets[slot].builder.Push(cur_seq, item, anchor);
    };

    // ---- Candidate scan ------------------------------------------------
    for (uint32_t si = 0; si < proj.num_spans; ++si) {
      const SeqSpan& sp = proj.spans[si];
      cur_seq = sp.seq;
      const uint32_t nitems = w.policy->NumItems(sp.seq);

      uint32_t min_item = ~0u;
      uint32_t s_from = ~0u;  // the earliest S-extension start of any state
      for (uint32_t i = 0; i < sp.count; ++i) {
        const StateRec& r = proj.states[sp.offset + i];
        min_item =
            std::min(min_item, r.item == kNoStateItem ? 0 : r.item + 1);
        s_from = std::min(s_from, w.policy->SExtFrom(sp.seq, r.item));
      }

      // Baseline mode (TPrefixSpan / CTMiner): physically materialize this
      // node's postfix as (global item index, code) pairs and scan the copy.
      std::vector<std::pair<uint32_t, uint32_t>> copy;
      if (config_.physical_baseline) {
        copy.reserve(nitems - min_item);
        for (uint32_t p = min_item; p < nitems; ++p) {
          copy.emplace_back(p, w.policy->ItemCode(sp.seq, p));
        }
        nc.copies_bytes += copy.capacity() * sizeof(copy[0]);
      }
      auto item_at = [&](uint32_t p) -> uint32_t {
        if (config_.physical_baseline) return copy[p - min_item].second;
        return w.policy->ItemCode(cur_seq, p);
      };

      // One pass over the postfix counts its symbols for the children's
      // allowed set and lists the positions the S-extension loops walk. A
      // position whose key admission rejects is left off the list: where
      // every state at or before it reaches it, its key is admitted (and so
      // counted and rejected) here; only the state-dependent ones stay on
      // the list, until the node has counted their key.
      const uint64_t epoch = postfix_pruning_ ? ++w.epoch : 0;
      if (w.s_items.size() < nitems) w.s_items.resize(nitems);
      uint32_t* listed = w.s_items.data();
      uint32_t num_listed = 0;
      for (uint32_t p = min_item; p < nitems; ++p) {
        const uint32_t code = item_at(p);
        const EventId ev = Policy::SymbolOf(code);
        if (postfix_pruning_ && w.seen_epoch[ev] != epoch) {
          w.seen_epoch[ev] = epoch;
          ++w.postfix_count[ev];
        }
        if (!ctx.allow_s_ext) continue;
        if (!Policy::IntroducesSymbol(code)) {
          if (w.policy->SExtReachOf(code) != SExtReach::kNever) {
            listed[num_listed++] = p;
          }
        } else if (allowed[ev]) {
          listed[num_listed++] = p;
        } else if (p >= s_from && w.key_slot[code << 1] == kUnseenKey) {
          const SExtReach reach = w.policy->SExtReachOf(code);
          if (reach == SExtReach::kAlways) {
            const int32_t slot = AdmitKey(w, &nc, allowed, depth, code << 1);
            TPM_DCHECK(slot == kRejectedKey);
          } else if (reach == SExtReach::kPerState) {
            listed[num_listed++] = p;
          }
        }
      }
      ctx.s_items = std::span<const uint32_t>(listed, num_listed);

      for (uint32_t i = 0; i < sp.count; ++i) {
        const size_t state_index = sp.offset + i;
        w.policy->ScanState(ctx, sp.seq, proj.states[state_index],
                            proj.aux_of(state_index), item_at, try_push);
      }
    }

    // The key table is all-unseen again for the next node on this context.
    for (uint32_t key : w.touched) w.key_slot[key] = kUnseenKey;
    w.touched.clear();

    // Flush this node's scan tallies before recursion resets them.
    w.om.states->Increment(w.states - node_states_before);
    w.om.candidates->Increment(w.cands - node_cands_before);
    w.policy->FlushNodeMetrics(w.om);

    // ---- Children ------------------------------------------------------
    nc.child_allowed = allowed;
    if (postfix_pruning_) {
      for (EventId e = 0; e < num_symbols_; ++e) {
        if (w.postfix_count[e] < minsup_) nc.child_allowed[e] = 0;
      }
    }

    // Projection storage is charged by the arenas themselves as blocks map;
    // only the baselines' postfix copies need an explicit charge.
    w.tracker->Allocate(nc.copies_bytes);

    // Deterministic child order, sorted as bucket indices.
    nc.order.resize(nc.buckets.size());
    for (uint32_t i = 0; i < nc.order.size(); ++i) nc.order[i] = i;
    std::sort(nc.order.begin(), nc.order.end(),
              [&nc](uint32_t x, uint32_t y) {
                const Bucket& a = nc.buckets[x];
                const Bucket& b = nc.buckets[y];
                if (a.i_ext != b.i_ext) return a.i_ext > b.i_ext;
                return a.code < b.code;
              });

    // A bucket's staged span count bounds its support from above, so one
    // below minsup is never walked and is not finalized: nothing reads its
    // projection.
    Arena& child_arena = w.arenas->depth(depth + 1);
    nc.child_mark = child_arena.mark();
    for (uint32_t i : nc.order) {
      Bucket& b = nc.buckets[i];
      b.support = b.builder.num_spans();
      if (b.support < minsup_) continue;
      const NodeProjection& view = b.builder.Finalize(
          [&w](const ProjectionBuilder::SpanView& v,
               std::vector<uint32_t>* keep) {
            w.policy->SelectSpan(v, keep);
          });
      internal::DCheckProjection(view);
    }
    // All parents up this context's stack finalized before recursing, so
    // nothing else is staged: the staging arena can rewind to empty.
    w.arenas->staging().Reset();
    w.om.arena_depth_bytes->Observe(child_arena.used_bytes());
    return &nc;
  }

  /// First sight of `key` in the scan of a node at `depth`: counts the
  /// candidate, runs the admission checks for an extension that introduces
  /// a new symbol, and records the decision in the key table, so every
  /// later push of the key is one load.
  int32_t AdmitKey(WorkerCtx& w, NodeChildren* nc,
                   const std::vector<uint8_t>& allowed, uint32_t depth,
                   uint32_t key) {
    const uint32_t code = key >> 1;
    const bool i_ext = (key & 1) != 0;
    ++w.cands;
    w.touched.push_back(key);
    int32_t slot = static_cast<int32_t>(nc->buckets.size());
    if (Policy::IntroducesSymbol(code)) {
      const EventId ev = Policy::SymbolOf(code);
      if ((postfix_pruning_ || pair_pruning_) && !allowed[ev]) {
        // The allowed set is narrowed by postfix counting when postfix
        // pruning runs; otherwise it is the pair table's frequent-symbol
        // filter — attribute the rejection accordingly.
        (postfix_pruning_ ? w.om.postfix_hits : w.om.pair_hits)->Increment();
        slot = kRejectedKey;
      } else if (pair_pruning_ && !w.policy->InPattern(ev)) {
        for (EventId a : w.policy->PatternSymbols()) {
          if (!cooc_.IsFrequentPair(a, ev)) {
            w.om.pair_hits->Increment();
            slot = kRejectedKey;
            break;
          }
        }
      }
    }
    if (slot != kRejectedKey) {
      nc->buckets.emplace_back();
      Bucket& b = nc->buckets.back();
      b.code = code;
      b.i_ext = i_ext;
      b.builder.Init(w.policy->ChildStride(code, i_ext), w.arenas, depth + 1);
    }
    w.key_slot[key] = slot;
    return slot;
  }

  void ReleaseNode(WorkerCtx& w, NodeChildren* nc, uint32_t depth) {
    TPM_DCHECK(nc->live);
    w.tracker->Release(nc->copies_bytes);
    w.arenas->depth(depth + 1).Rewind(nc->child_mark);
    nc->live = false;
  }

  /// The recursion driver below the unit roots: expand, walk the frequent
  /// children depth-first, release.
  void ExpandSubtree(WorkerCtx& w, const NodeProjection& proj,
                     const std::vector<uint8_t>& allowed, uint32_t depth) {
    NodeChildren* nc = ExpandNode(w, proj, allowed, depth);
    if (nc == nullptr) return;
    for (uint32_t i : nc->order) {
      if (w.guard->stopped()) break;
      const Bucket& b = nc->buckets[i];
      if (b.support < minsup_) continue;
      w.policy->Apply(b.code, b.i_ext);
      ExpandSubtree(w, b.builder.view(), nc->child_allowed, depth + 1);
      w.policy->Undo(b.code, b.i_ext);
    }
    ReleaseNode(w, nc, depth);
  }

  void EmitPattern(WorkerCtx& w, SupportCount support) {
    w.bank->push_back(
        MinedPattern<PatternT>{w.policy->MakePattern(), support});
    w.om.patterns->Increment();
    ++w.patterns_emitted;
    // items + slice offsets (incl. the trailing end offset).
    tracker_charge_pattern(w, w.bank->back());
    const uint64_t total =
        patterns_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    w.guard->NotePattern(total);
  }

  void tracker_charge_pattern(WorkerCtx& w,
                              const MinedPattern<PatternT>& /*p*/) {
    w.tracker->Allocate((w.policy->PatternLen() + w.policy->NumBlocks() + 1) *
                        sizeof(uint32_t));
  }

  // ---- Scheduler layer -------------------------------------------------

  /// `(code << 1) | i_ext` of the unit's root: the checkpoint unit key.
  static uint64_t UnitKey(const Item& unit) {
    return (static_cast<uint64_t>(unit.path[0].first) << 1) |
           (unit.path[0].second ? 1 : 0);
  }

  /// Freezes the root's bucket walk into the deterministic unit table and
  /// transfers resumed unit banks onto their units.
  void BuildUnits(const NodeChildren& root_nc) {
    std::vector<std::pair<uint64_t, size_t>> by_key;  // sorted: resume lookup
    std::vector<uint64_t> weights;
    units_.reserve(root_nc.order.size());
    for (uint32_t i : root_nc.order) {
      const Bucket& b = root_nc.buckets[i];
      Item& u = units_.emplace_back();
      u.unit_id = units_.size() - 1;
      if (b.support >= minsup_) u.view = &b.builder.view();
      u.allowed = &root_nc.child_allowed;
      u.path.emplace_back(b.code, b.i_ext);
      by_key.emplace_back(UnitKey(u), u.unit_id);
      weights.push_back(b.support);
    }
    std::sort(by_key.begin(), by_key.end());
    outcomes_.resize(units_.size());
    // Thread-count independent: the split set depends only on the
    // projection sizes, so the work-item set (and every per-unit metrics
    // delta) is the same for any --threads.
    const std::vector<bool> split = MarkSplittableUnits(weights, minsup_);
    for (size_t i = 0; i < units_.size(); ++i) units_[i].split = split[i];
    // Attach resumed banks to their units; a key with no bucket (possible
    // only for a tampered-but-CRC-valid checkpoint) stays orphaned and is
    // still carried through result assembly and checkpoint writes.
    std::vector<ResumeUnit> leftovers;
    for (ResumeUnit& r : orphan_units_) {
      auto it = std::lower_bound(by_key.begin(), by_key.end(),
                                 std::make_pair(r.key, size_t{0}));
      if (it == by_key.end() || it->first != r.key) {
        leftovers.push_back(std::move(r));
        continue;
      }
      UnitOutcome& o = outcomes_[it->second];
      o.delivered = true;
      o.complete = true;
      o.from_resume = true;
      o.bank = std::move(r.bank);
    }
    orphan_units_.swap(leftovers);
  }

  /// The unit phase: settles resumed and infrequent units on the calling
  /// thread, queues the rest as items rooted at depth 1, and drains the
  /// queue with worker 0 on the calling thread and `nthreads - 1` spawned
  /// workers.
  void RunUnits(WorkerCtx& root_ctx, uint32_t nthreads) {
    std::vector<void*> pending;
    for (size_t i = 0; i < units_.size(); ++i) {
      if (outcomes_[i].delivered) {
        // Seeded from the checkpoint: re-expanding would double-count both
        // the patterns and the metrics.
        NoteBucketDone(root_ctx);
        continue;
      }
      if (units_[i].view == nullptr) {
        NoteBucketDone(root_ctx);
        UnitOutcome& o = outcomes_[i];
        o.delivered = true;
        o.complete = true;
        OnUnitComplete(i);
        if (!ckpt_status_.ok()) return;
        continue;
      }
      pending.push_back(&units_[i]);
    }
    if (pending.empty()) return;
    open_items_.store(pending.size(), std::memory_order_relaxed);
    scheduler_.Push(1, pending);

    std::deque<WorkerSlot> slots;
    for (uint32_t i = 0; i < nthreads; ++i) slots.emplace_back(this, i);
    std::vector<std::thread> crew;
    crew.reserve(nthreads - 1);
    for (uint32_t i = 1; i < nthreads; ++i) {
      WorkerCtx* w = &slots[i].ctx;
      crew.emplace_back([this, w] { WorkerLoop(*w); });
    }
    WorkerLoop(slots[0].ctx);
    for (std::thread& t : crew) t.join();
    MergeDeliveries();
    for (WorkerSlot& s : slots) {
      TickProgress(s.ctx);  // the exact totals, for the final snapshot
      worker_nodes_ += s.ctx.nodes;
      worker_states_ += s.ctx.states;
      worker_cands_ += s.ctx.cands;
      worker_peak_ += s.tracker.peak_bytes();
      worker_arena_bytes_ += s.arenas.total_allocated_bytes();
      worker_arena_blocks_ += s.arenas.total_blocks();
      attr_parts_.push_back({StringPrintf("worker-%u", s.ctx.id),
                             s.attribution.Snapshot()});
    }
  }

  /// Claims and mines items until every item is done or a stop winds the
  /// crew down.
  void WorkerLoop(WorkerCtx& w) {
    while (!w.guard->stopped() &&
           !stop_flag_.load(std::memory_order_relaxed)) {
      if (void* item = scheduler_.TryNext()) {
        ProcessItem(w, *static_cast<Item*>(item));
      } else if (open_items_.load(std::memory_order_acquire) == 0) {
        break;
      } else {
        // Another worker is splitting a node (its subs are not published
        // yet) or the tail items are in flight elsewhere.
        ServeMerger(w);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }

  /// Worker 0 is the calling thread: between items and while it waits, it
  /// folds deliveries (advancing the checkpoint frontier) and emits
  /// progress.
  void ServeMerger(WorkerCtx& w) {
    if (w.id != 0) return;
    MergeDeliveries();
    if (progress_ != nullptr) progress_->PollEmit();
  }

  void ProcessItem(WorkerCtx& w, Item& it) {
    SplitState* join = it.join;
    MineItem(w, it);
    // Release-decrement publishes a sub-unit's outputs and metric charges
    // to the parent's acquire-load in MineItem; `it` may be gone right
    // after.
    if (join != nullptr) join->remaining.fetch_sub(1, std::memory_order_release);
    open_items_.fetch_sub(1, std::memory_order_release);
    ServeMerger(w);
  }

  // Saved per-item bindings so nested items (a split node's owner helping
  // while its children join) restore their parent's context.
  struct ItemBinding {
    MinerMetrics om;
    Bank* bank;
  };
  ItemBinding BindItem(WorkerCtx& w, const MinerMetrics& om, Bank* bank) {
    ItemBinding saved{w.om, w.bank};
    w.om = om;
    w.bank = bank;
    return saved;
  }
  void RestoreItem(WorkerCtx& w, const ItemBinding& saved) {
    w.om = saved.om;
    w.bank = saved.bank;
  }

  /// Mines one work item: expand, publish, help, join. An unsplit item
  /// walks its whole subtree. A split item expands only its root, publishes
  /// the root's frequent children as sub-units, and helps drain items rooted
  /// deeper than its root until they all joined — its own children stay
  /// live in ChildrenAt(depth) and the arena at depth + 1, which nothing it
  /// may claim touches. It then appends the children's banks in child
  /// order, so a split item is indistinguishable from one mined in a single
  /// piece. An item with no `join` is a whole unit: it owns the metrics all
  /// of the unit's items charge, and delivers them with its bank.
  void MineItem(WorkerCtx& w, Item& it) {
    std::optional<UnitMetrics> unit;
    if (it.join == nullptr) it.unit = &unit.emplace();
    Bank bank;
    const ItemBinding saved = BindItem(w, it.unit->om, &bank);
    const uint32_t depth = static_cast<uint32_t>(it.path.size());
    for (const std::pair<uint32_t, bool>& step : it.path) {
      w.policy->Apply(step.first, step.second);
    }
    const uint64_t nodes_before = w.nodes;
    std::deque<Item> subs;  // stable addresses: published by pointer
    SplitState join;
    NodeChildren* nc = nullptr;
    if (it.split) {
      nc = ExpandNode(w, *it.view, *it.allowed, depth);
      if (nc != nullptr) PublishChildren(it, *nc, &subs, &join);
    } else {
      ExpandSubtree(w, *it.view, *it.allowed, depth);
    }
    for (size_t i = it.path.size(); i > 0; --i) {
      w.policy->Undo(it.path[i - 1].first, it.path[i - 1].second);
    }
    it.max_nodes = w.nodes - nodes_before;
    it.unit->item_nodes->Observe(it.max_nodes);
    it.unit->item_depth->Observe(depth);
    RestoreItem(w, saved);

    // Help until the children are all accounted for. This keeps going even
    // when a stop tripped: a stopped crew unwinds items fast, and the join
    // must complete before this context may rewind the children's arena.
    while (join.remaining.load(std::memory_order_acquire) > 0) {
      if (void* item = scheduler_.TryNext(depth)) {
        ProcessItem(w, *static_cast<Item*>(item));
      } else {
        ServeMerger(w);
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    }
    if (nc != nullptr) ReleaseNode(w, nc, depth);
    it.complete = !w.guard->stopped();
    size_t total = bank.size();
    for (const Item& s : subs) total += s.bank.size();
    bank.reserve(total);
    for (Item& s : subs) {
      it.complete = it.complete && s.complete;
      it.max_nodes = std::max(it.max_nodes, s.max_nodes);
      for (MinedPattern<PatternT>& p : s.bank) bank.push_back(std::move(p));
      Bank().swap(s.bank);
    }
    it.bank = std::move(bank);
    if (unit.has_value()) DeliverUnit(w, it);
  }

  /// Publishes the frequent children of a split item's root, in child
  /// order, as sub-units rooted one level deeper.
  void PublishChildren(const Item& parent, const NodeChildren& nc,
                       std::deque<Item>* subs, SplitState* join) {
    std::vector<void*> published;
    for (uint32_t i : nc.order) {
      const Bucket& b = nc.buckets[i];
      if (b.support < minsup_) continue;
      Item& s = subs->emplace_back();
      s.unit_id = parent.unit_id;
      s.unit = parent.unit;
      s.view = &b.builder.view();
      s.allowed = &nc.child_allowed;
      s.path = parent.path;
      s.path.emplace_back(b.code, b.i_ext);
      s.split = s.path.size() < kMaxSplitDepth;
      s.join = join;
      published.push_back(&s);
    }
    if (published.empty()) return;
    join->remaining.store(static_cast<uint32_t>(published.size()),
                          std::memory_order_release);
    open_items_.fetch_add(published.size(), std::memory_order_relaxed);
    scheduler_.Push(static_cast<uint32_t>(parent.path.size()) + 1, published);
  }

  void NoteBucketDone(WorkerCtx& w) {
    if (progress_ != nullptr) progress_->NoteBucketDone(w.progress_slot);
  }

  // ---- Merger layer ----------------------------------------------------

  /// Hands a finished unit's bank and metrics to the merger.
  void DeliverUnit(WorkerCtx& w, Item& unit) {
    unit.unit->registry.GetGauge("miner.item.max_nodes")
        ->Set(static_cast<int64_t>(unit.max_nodes));
    UnitDelivery d;
    d.unit_id = unit.unit_id;
    d.complete = unit.complete;
    d.bank = std::move(unit.bank);
    d.delta = unit.unit->registry.Snapshot();
    unit.unit = nullptr;
    // Tier E seam: delivery timing relative to other workers and the merger
    // must not matter (util/sched_test.h).
    TPM_TEST_YIELD("miner.unit.deliver");
    {
      MutexLock lock(&inbox_.mu);
      inbox_.items.push_back(std::move(d));
    }
    NoteBucketDone(w);
    if (unit.complete && w.attr_units != nullptr) w.attr_units->Observe(w.id);
  }

  /// Worker 0 only: folds delivered units into the outcome table and
  /// advances the checkpoint frontier. Incomplete (stop-truncated) units
  /// keep their partial bank for the result but are never checkpointed.
  void MergeDeliveries() {
    std::vector<UnitDelivery> batch;
    {
      MutexLock lock(&inbox_.mu);
      batch.swap(inbox_.items);
    }
    for (UnitDelivery& d : batch) {
      UnitOutcome& o = outcomes_[d.unit_id];
      o.delivered = true;
      o.complete = d.complete;
      o.bank = std::move(d.bank);
      o.delta = std::move(d.delta);
      if (d.complete) {
        OnUnitComplete(d.unit_id);
        if (!ckpt_status_.ok()) return;
      }
    }
  }

  void OnUnitComplete(uint64_t /*unit_id*/) {
    // Tier E seam: the checkpoint-unit boundary — where completed work
    // becomes durable state (util/sched_test.h).
    TPM_TEST_YIELD("miner.unit_boundary");
    if (ckpt_writer_ == nullptr) return;
    boundary_elapsed_ =
        (resume_ != nullptr ? resume_->elapsed_seconds : 0.0) +
        run_timer_.ElapsedSeconds();
    if (!ckpt_writer_->Due()) return;
    const Status st = WriteCheckpointNow();
    if (st.ok()) {
      domain_->recorder().Record("ckpt.write", last_ckpt_units_,
                                 last_ckpt_patterns_);
    } else {
      // Surfaced after the crew winds down: a checkpoint that cannot be
      // written is a run failure, not something to silently drop.
      ckpt_status_ = st;
      stop_flag_.store(true, std::memory_order_release);
    }
  }

  /// Stop-propagation hub: first reason wins, and the flag winds every
  /// worker down (each trips its own guard as kCancelled, which the CAS
  /// then ignores). Safe from any thread; called from guard on_stop hooks.
  void NoteStop(StopReason reason) {
    int expected = 0;
    first_stop_reason_.compare_exchange_strong(
        expected, static_cast<int>(reason), std::memory_order_relaxed);
    stop_flag_.store(true, std::memory_order_release);
  }

  void AssembleResult(ResultT* result, Bank* root_bank) {
    size_t total = root_bank->size();
    for (const ResumeUnit& r : orphan_units_) total += r.bank.size();
    for (const UnitOutcome& o : outcomes_) total += o.bank.size();
    result->patterns.reserve(total);
    auto append = [&](Bank& bank) {
      for (MinedPattern<PatternT>& p : bank) {
        result->patterns.push_back(std::move(p));
      }
      bank.clear();
    };
    append(*root_bank);
    // Orphans (resume seeds with no matching bucket — including the case
    // where a pre-unit stop meant the buckets were never built) first, then
    // every unit's bank in unit-id order: the same concatenation the
    // single-thread recursion produced, for any completion order.
    for (ResumeUnit& r : orphan_units_) append(r.bank);
    for (UnitOutcome& o : outcomes_) append(o.bank);
  }

  // ---- Metrics composition ---------------------------------------------

  /// base (preamble delta, or the resumed segment's boundary metrics) +
  /// every delivered unit's delta + the run domain's tail + the workers'
  /// scheduling attribution. All folds go through MergeDomainSnapshots, so
  /// the result depends only on the multiset of charges.
  obs::MetricsSnapshot FinalMetrics() const {
    std::vector<obs::DomainSnapshot> parts;
    parts.push_back({"base", resume_ != nullptr
                                 ? resume_->metrics
                                 : preamble_end_.Since(obs_start_)});
    for (size_t i = 0; i < outcomes_.size(); ++i) {
      const UnitOutcome& o = outcomes_[i];
      if (o.delivered && !o.from_resume) {
        parts.push_back(
            {StringPrintf("unit-%llu", static_cast<unsigned long long>(i)),
             o.delta});
      }
    }
    parts.push_back(
        {"tail", domain_->registry().Snapshot().Since(preamble_end_)});
    for (const obs::DomainSnapshot& a : attr_parts_) parts.push_back(a);
    return obs::MergeDomainSnapshots(std::move(parts));
  }

  /// The checkpoint's metrics: base + the deltas of *complete* units only.
  /// Excludes the run-domain tail (not yet final), incomplete units (their
  /// work is not claimed), and the scheduling attribution (thread-count
  /// dependent by design — a checkpoint must be bytewise independent of
  /// how the work was scheduled).
  obs::MetricsSnapshot BoundaryMetrics() const {
    std::vector<obs::DomainSnapshot> parts;
    parts.push_back({"base", resume_ != nullptr
                                 ? resume_->metrics
                                 : preamble_end_.Since(obs_start_)});
    for (size_t i = 0; i < outcomes_.size(); ++i) {
      const UnitOutcome& o = outcomes_[i];
      if (o.delivered && o.complete && !o.from_resume) {
        parts.push_back(
            {StringPrintf("unit-%llu", static_cast<unsigned long long>(i)),
             o.delta});
      }
    }
    return obs::MergeDomainSnapshots(std::move(parts));
  }

  // ---- Checkpoint/resume (io/checkpoint.h) -----------------------------
  //
  // The depth-0 unit is the unit of completed work. The merger advances the
  // completed frontier as units join and writes a checkpoint when the
  // interval gate is due; a truncated exit writes a final checkpoint at the
  // merged frontier. The checkpoint serializes the completed units sorted by
  // unit key with each unit's pattern bank (and per-unit counts), so the
  // bytes are independent of completion order and the resume regroups every
  // prior pattern onto its unit. Resuming seeds the banks back and skips the
  // completed subtrees, so interrupted-then-resumed output is
  // byte-identical to an uninterrupted run at any thread count.

  CheckpointRunKey MakeRunKey() const {
    constexpr bool kIsEndpoint =
        std::is_same<PatternT, EndpointPattern>::value;
    CheckpointRunKey key;
    key.db_fingerprint = FingerprintDatabase(db_);
    key.language = kIsEndpoint ? "endpoint" : "coincidence";
    key.algo = config_.physical_baseline ? "growth-physical" : "growth";
    key.min_support = options_.min_support;
    key.max_items = options_.max_items;
    key.max_length = options_.max_length;
    key.max_window = options_.max_window;
    // Effective pruning decisions (none for a physical baseline), not the raw
    // option bits: only toggles that change the search shape block a resume.
    // Coincidence mining ignores validity pruning entirely, so the flag is
    // canonicalized to false there.
    key.pair_pruning = pair_pruning_;
    key.postfix_pruning = postfix_pruning_;
    key.validity_pruning = kIsEndpoint && !config_.physical_baseline &&
                           options_.validity_pruning;
    return key;
  }

  void SeedFromResume() {
    if (resume_ == nullptr) return;
    size_t off = 0;
    uint64_t seeded = 0;
    for (size_t i = 0; i < resume_->completed_units.size(); ++i) {
      ResumeUnit unit;
      unit.key = resume_->completed_units[i];
      const uint64_t n = resume_->unit_pattern_counts[i];
      unit.bank.reserve(n);
      for (uint64_t j = 0; j < n; ++j) {
        const CheckpointPatternRec& rec = resume_->patterns[off++];
        unit.bank.push_back(MinedPattern<PatternT>{
            PatternT(rec.items, rec.offsets), rec.support});
        // Mirror EmitPattern's accounting so a resumed run's memory and
        // guard views match the uninterrupted run's.
        tracker_.Allocate((rec.items.size() + rec.offsets.size()) *
                          sizeof(uint32_t));
        ++seeded;
        patterns_total_.store(seeded, std::memory_order_relaxed);
        guard_.NotePattern(seeded);
      }
      orphan_units_.push_back(std::move(unit));
    }
    boundary_elapsed_ = resume_->elapsed_seconds;
    // Recorded against the flight recorder directly: ckpt bookkeeping must
    // not perturb the obs.flight.events counter the determinism tests merge.
    domain_->recorder().Record("ckpt.resume",
                               resume_->completed_units.size(), seeded);
  }

  Status WriteCheckpointNow() {
    struct DoneUnit {
      uint64_t key;
      const Bank* bank;
    };
    std::vector<DoneUnit> done;
    for (const ResumeUnit& r : orphan_units_) done.push_back({r.key, &r.bank});
    for (size_t i = 0; i < outcomes_.size(); ++i) {
      const UnitOutcome& o = outcomes_[i];
      if (o.delivered && o.complete) {
        done.push_back({UnitKey(units_[i]), &o.bank});
      }
    }
    // Ascending unit key: completion (and thread-count) independent bytes.
    std::sort(done.begin(), done.end(),
              [](const DoneUnit& a, const DoneUnit& b) {
                return a.key < b.key;
              });
    Checkpoint ckpt;
    ckpt.key = run_key_;
    ckpt.total_units = units_.size();
    size_t npat = 0;
    for (const DoneUnit& d : done) npat += d.bank->size();
    ckpt.completed_units.reserve(done.size());
    ckpt.unit_pattern_counts.reserve(done.size());
    ckpt.patterns.reserve(npat);
    for (const DoneUnit& d : done) {
      ckpt.completed_units.push_back(d.key);
      ckpt.unit_pattern_counts.push_back(d.bank->size());
      for (const MinedPattern<PatternT>& p : *d.bank) {
        CheckpointPatternRec rec;
        rec.support = p.support;
        rec.items.assign(p.pattern.items().begin(), p.pattern.items().end());
        rec.offsets = p.pattern.offsets();
        ckpt.patterns.push_back(std::move(rec));
      }
    }
    ckpt.metrics = BoundaryMetrics();
    ckpt.elapsed_seconds = boundary_elapsed_;
    ckpt.time_budget_seconds = options_.time_budget_seconds;
    last_ckpt_units_ = done.size();
    last_ckpt_patterns_ = npat;
    return ckpt_writer_->Write(ckpt);
  }

  const IntervalDatabase& db_;
  const MinerOptions& options_;
  const GrowthConfig& config_;
  const SupportCount minsup_;
  bool pair_pruning_ = false;
  bool postfix_pruning_ = false;

  Policy policy_;
  CooccurrenceTable cooc_;
  size_t num_symbols_ = 0;

  // Observability domain the run charges: caller-provided (`tpm mine`) or a
  // private throwaway. Declared before guard_ so the on_stop hook may touch
  // it at any point in the guard's lifetime.
  std::unique_ptr<obs::StatsDomain> owned_domain_;
  obs::StatsDomain* domain_ = nullptr;
  MinerMetrics om_;
  obs::ProgressTracker* progress_ = nullptr;

  GuardLimits MakeGuardLimits() {
    GuardLimits limits = options_.ToGuardLimits();
    limits.on_stop = [this](StopReason reason) {
      domain_->RecordEvent("guard.stop", static_cast<uint64_t>(reason),
                           out_ != nullptr ? out_->stats.nodes_expanded : 0);
      NoteStop(reason);
    };
    return limits;
  }

  /// Worker budgets derived so the crew respects the run's limits: the
  /// remaining wall budget as-is (the deadline is absolute), the remaining
  /// memory budget split evenly (exact for one worker, a fair share
  /// otherwise — the RSS backstop still guards gross overshoot), and the
  /// pattern cap enforced exactly via the shared emission total.
  GuardLimits MakeWorkerLimits() {
    GuardLimits limits = options_.ToGuardLimits();
    if (limits.time_budget_seconds > 0.0) {
      const double remaining =
          limits.time_budget_seconds - run_timer_.ElapsedSeconds();
      limits.time_budget_seconds = remaining > 1e-9 ? remaining : 1e-9;
    }
    if (limits.memory_budget_bytes > 0) {
      const size_t used = tracker_.current_bytes();
      const size_t left = limits.memory_budget_bytes > used
                              ? limits.memory_budget_bytes - used
                              : 1;
      const uint32_t n = options_.threads > 0 ? options_.threads : 1;
      limits.memory_budget_bytes = std::max<size_t>(left / n, 1);
    }
    limits.on_stop = [this](StopReason reason) { NoteStop(reason); };
    return limits;
  }

  MemoryTracker tracker_;
  ProjectionArenas arenas_;
  ExecutionGuard guard_{MakeGuardLimits(), &tracker_};
  ResultT* out_ = nullptr;

  // --- Scheduler / worker / merger state ---
  WorkScheduler scheduler_;
  DeliveryInbox inbox_;
  std::vector<Item> units_;  ///< unit id == index; built once, never resized
  std::vector<UnitOutcome> outcomes_;
  std::atomic<uint64_t> open_items_{0};
  std::atomic<bool> stop_flag_{false};
  std::atomic<int> first_stop_reason_{0};
  std::atomic<uint64_t> patterns_total_{0};
  uint64_t worker_nodes_ = 0;
  uint64_t worker_states_ = 0;
  uint64_t worker_cands_ = 0;
  size_t worker_peak_ = 0;
  size_t worker_arena_bytes_ = 0;
  uint64_t worker_arena_blocks_ = 0;
  std::vector<obs::DomainSnapshot> attr_parts_;

  // --- Checkpoint/resume state (see the helper block above) ---
  CheckpointWriter* ckpt_writer_ = nullptr;  // not owned; null = off
  const Checkpoint* resume_ = nullptr;       // not owned; null = fresh run
  CheckpointRunKey run_key_;
  std::vector<ResumeUnit> orphan_units_;
  obs::MetricsSnapshot obs_start_;
  obs::MetricsSnapshot preamble_end_;
  double boundary_elapsed_ = 0.0;
  size_t last_ckpt_units_ = 0;
  size_t last_ckpt_patterns_ = 0;
  WallTimer run_timer_;
  Status ckpt_status_;  // first failed checkpoint write, else OK
};

}  // namespace tpm
