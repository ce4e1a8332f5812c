// Work scheduler for the parallel growth engine (the "scheduler" layer of
// the scheduler / worker / merger split, docs/ARCHITECTURE.md).
//
// The engine's root-node scan produces the level-1 frequent-item buckets in
// a deterministic order (i_ext desc, code asc — the same order the
// single-thread recursion visited them). Each bucket is a work unit with a
// stable id (unit id == index in bucket order), so a unit means the same
// subtree for every thread count, every completion order, and every
// checkpoint ever written. The units are pushed as items rooted at depth 1,
// in id order. A worker that opens a heavyweight item publishes the node's
// frequent children as items rooted one level deeper, then helps drain the
// queue until its children are all accounted for.
//
// Every item is an engine-owned payload the scheduler never dereferences:
// it keeps one FIFO per root depth, and nothing here inspects projections
// or patterns, which is what keeps it language-agnostic and testable
// without a miner. A claim names the depth its caller waits at: only items
// rooted deeper than that are handed out, deepest first, FIFO within one
// depth. The top-level loop waits at depth 0, so it alone takes units.
//
// Locking: one Mutex around the queues. TryNext/Push are called from every
// worker; the critical sections are a handful of pointer moves and never
// touch metrics, I/O, or other locks (leaf lock in the canonical lockdep
// order, see docs/STATIC_ANALYSIS.md).

#pragma once


#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/sync.h"

namespace tpm {

/// Which units are worth splitting, given each unit's projected span count:
/// those weighing at least `min_spans` and at least twice the mean weight.
/// Depends only on the projection sizes — never on the thread count — so
/// the work-item set (and therefore every per-unit metrics delta) is
/// identical for any --threads.
std::vector<bool> MarkSplittableUnits(const std::vector<uint64_t>& weights,
                                      uint64_t min_spans);

/// Work queue shared by the workers. Deeper items outrank shallower ones
/// (whole units last) so published splits join promptly.
class WorkScheduler {
 public:
  WorkScheduler() = default;
  WorkScheduler(const WorkScheduler&) = delete;
  WorkScheduler& operator=(const WorkScheduler&) = delete;

  /// Queues `items`, rooted at `depth`, in order (atomically, so a failed
  /// TryNext never observes half a split).
  void Push(uint32_t depth, const std::vector<void*>& items);

  /// Claims the oldest unclaimed item of the deepest depth greater than
  /// `deeper_than`. A context waiting on a node at depth d passes d: its
  /// children and the arenas below them stay live, and only deeper items
  /// leave them untouched. Null when nothing eligible is queued (more items
  /// may still be published by a worker splitting a node — callers gate
  /// shutdown on their own outstanding-item count, not on this).
  void* TryNext(uint32_t deeper_than = 0);

 private:
  struct Queue {
    std::vector<void*> items;
    size_t cursor = 0;
  };

  Mutex mu_;
  std::vector<Queue> queues_ TPM_GUARDED_BY(mu_);  ///< by root depth
};

}  // namespace tpm
