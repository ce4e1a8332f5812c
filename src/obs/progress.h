// Live progress / ETA for long mining runs (`tpm mine --progress`).
//
// Progress is charged through per-context slots: the owner sizes them once
// (ConfigureSlots), and each mining context publishes its own cumulative
// totals into its slot (Tick — three relaxed stores into a cache-line-padded
// slot, no shared hot counter, no clock read) and counts the level-1
// buckets it finishes (NoteBucketDone). The owner folds every slot when it
// emits: PollEmit reads the clock and emits when the interval elapsed, and
// Finish always emits the final snapshot. The growth engine's calling
// thread owns the tracker and polls it between work items and while it
// waits; before Finish it publishes every context's exact totals once more,
// so the final snapshot reports the run's exact node, pattern and bucket
// counts.
//
// ETA comes from the level-1 bucket walk: the engine announces how many
// root buckets exist (SetTotalBuckets) and marks each one done, so
// `elapsed / done * (total - done)` projects the remaining wall time from
// completed subtrees — coarse, but honest about the only unit of work whose
// total is known up front. Before the first bucket completes the ETA is
// unknown (-1).
//
// Every emission samples the Linux VmHWM peak-RSS gauge (0 on other
// platforms, see util/memory.h), so a truncated run's recorded peak is the
// peak *at truncation time*, not just at exit. Emissions are charged to the
// owning StatsDomain (progress.snapshots counter, process.peak_rss_bytes
// gauge) when one is attached. Emission stays single-owner: only the owning
// thread may call ConfigureSlots, SetTotalBuckets, PollEmit, or Finish;
// Tick and NoteBucketDone are safe from any thread on its own slot.

#pragma once


#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "util/timer.h"

namespace tpm {
namespace obs {

class StatsDomain;
class Counter;
class Gauge;

/// One periodic (or final) progress emission.
struct ProgressSnapshot {
  double elapsed_seconds = 0.0;
  uint64_t buckets_done = 0;
  uint64_t buckets_total = 0;   ///< 0 until the engine announces the total
  uint64_t nodes = 0;           ///< search-tree nodes expanded so far
  uint64_t patterns = 0;        ///< patterns reported so far
  uint64_t projected_bytes = 0; ///< live tracked bytes (projections + reps)
  double nodes_per_second = 0.0;
  double eta_seconds = -1.0;    ///< projected remaining seconds; -1 = unknown
  uint64_t peak_rss_bytes = 0;  ///< VmHWM at emission time (0 off-Linux)
  bool final_snapshot = false;  ///< true for the end-of-run emission

  /// One status line, e.g.
  /// "progress: 12/40 buckets  184320 nodes (61440/s)  97 patterns
  ///  12.4 MiB  elapsed 3.0s  eta 7.1s".
  std::string ToString() const;
};

class ProgressTracker {
 public:
  using Sink = std::function<void(const ProgressSnapshot&)>;

  /// Emits to `sink` at most every `interval_seconds` (0 emits on every
  /// poll). `domain`, when non-null, is charged per emission and must
  /// outlive the tracker.
  ProgressTracker(double interval_seconds, Sink sink,
                  StatsDomain* domain = nullptr);

  ProgressTracker(const ProgressTracker&) = delete;
  ProgressTracker& operator=(const ProgressTracker&) = delete;

  /// Allocates `num_slots` padded slots, one per mining context. Call once,
  /// before any context ticks; owner thread only.
  void ConfigureSlots(uint32_t num_slots);

  void SetTotalBuckets(uint64_t total) { buckets_total_ = total; }

  /// Hot-path hook: publishes one context's own cumulative totals. Relaxed
  /// stores into the context's private slot — safe to call concurrently
  /// with every other slot's ticks and with the owner's PollEmit.
  void Tick(uint32_t slot, uint64_t nodes, uint64_t patterns,
            uint64_t projected_bytes) {
    Slot& s = slots_[slot];
    s.nodes.store(nodes, std::memory_order_relaxed);
    s.patterns.store(patterns, std::memory_order_relaxed);
    s.bytes.store(projected_bytes, std::memory_order_relaxed);
  }

  /// One more level-1 bucket finished on the context owning `slot`.
  void NoteBucketDone(uint32_t slot) {
    slots_[slot].buckets.fetch_add(1, std::memory_order_relaxed);
  }

  /// Folds every slot into the run totals and emits if the interval
  /// elapsed. Owner thread only.
  void PollEmit();

  /// Emits the final snapshot (always, regardless of interval).
  void Finish();

  uint64_t snapshots_emitted() const { return emitted_; }

 private:
  // One cache line per slot so hot ticks never false-share.
  struct alignas(64) Slot {
    std::atomic<uint64_t> nodes{0};
    std::atomic<uint64_t> patterns{0};
    std::atomic<uint64_t> bytes{0};
    std::atomic<uint64_t> buckets{0};
  };

  ProgressSnapshot Build(double elapsed, bool final_snapshot) const;
  void Emit(const ProgressSnapshot& snap);

  const double interval_seconds_;
  Sink sink_;
  Counter* snapshots_counter_ = nullptr;  // progress.snapshots
  Gauge* peak_rss_gauge_ = nullptr;       // process.peak_rss_bytes

  WallTimer timer_;
  double last_emit_seconds_ = 0.0;
  uint64_t emitted_ = 0;
  uint64_t buckets_total_ = 0;

  std::unique_ptr<Slot[]> slots_;
  uint32_t num_slots_ = 0;
};

}  // namespace obs
}  // namespace tpm
