// Work-unit scheduler for the parallel growth engine (the "scheduler" layer
// of the scheduler / worker / merger split, docs/ARCHITECTURE.md).
//
// The engine's root-node scan produces the level-1 frequent-item buckets in
// a deterministic order (i_ext desc, code asc — the same order the
// single-thread recursion visited them). The scheduler freezes that order
// into work units with stable IDs (unit id == index in bucket order), so a
// unit means the same subtree for every thread count, every completion
// order, and every checkpoint ever written. Workers drain the queue FIFO;
// nothing here inspects projections or patterns — the scheduler is pure
// bookkeeping, which is what keeps it language-agnostic and testable
// without a miner.
//
// Splitting adds sub-units: a worker that opens a heavyweight unit (or a
// sub-unit above the engine's split depth) publishes the node's frequent
// children as sub-units any worker may claim, then helps drain the queue
// until its children are all accounted for. Sub-units are published with
// the depth of their root node — whole units are rooted at depth 1 — and a
// claim names the depth its caller waits at: only items rooted deeper than
// that are handed out, deepest first, FIFO within one depth. The sub payload is an
// engine-owned descriptor the scheduler never dereferences.
//
// Locking: one Mutex around the cursors/queues. TryNext/PushSubs are
// called from every worker; the critical sections are a handful of pointer
// moves and never touch metrics, I/O, or other locks (leaf lock in the
// canonical lockdep order, see docs/STATIC_ANALYSIS.md).

#pragma once


#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/sync.h"

namespace tpm {

/// One depth-0 subtree of the growth search, in deterministic bucket order.
struct WorkUnit {
  uint64_t id = 0;      ///< index in bucket order == stable checkpoint unit
  uint64_t key = 0;     ///< `(code << 1) | i_ext`, the checkpoint unit key
  uint64_t weight = 0;  ///< projected span count (split heuristic input)
  bool splittable = false;  ///< eligible for per-child sub-unit splitting
};

/// What TryNext hands a worker: a whole unit, or one sub-unit of a unit a
/// worker split. `sub` is an engine-owned descriptor.
struct WorkItem {
  enum class Kind { kNone, kUnit, kSub };
  Kind kind = Kind::kNone;
  uint64_t unit_id = 0;
  void* sub = nullptr;
};

/// Marks units whose subtrees are worth splitting: weight at least
/// `min_spans` and at least twice the mean weight. Depends only on the
/// projection sizes — never on the thread count — so the work-item set (and
/// therefore every per-unit metrics delta) is identical for any --threads.
void MarkSplittableUnits(std::vector<WorkUnit>* units, uint64_t min_spans);

/// Work queue shared by the workers. Deeper items outrank shallower ones
/// (whole units last) so published splits join promptly.
class WorkScheduler {
 public:
  WorkScheduler() = default;
  WorkScheduler(const WorkScheduler&) = delete;
  WorkScheduler& operator=(const WorkScheduler&) = delete;

  /// Replaces the queue with `units` (already in deterministic id order).
  void Reset(std::vector<WorkUnit> units);

  /// Claims the oldest unclaimed item of the deepest depth greater than
  /// `deeper_than`; whole units (depth 1) come out in id order. A context
  /// waiting on a node at depth d passes d: its children and the arenas
  /// below them stay live, and only deeper items leave them untouched.
  /// False when nothing eligible is queued (more sub-units may still be
  /// published by a worker splitting a node — callers gate shutdown on
  /// their own outstanding-item count, not on this).
  bool TryNext(WorkItem* out, uint32_t deeper_than = 0);

  /// Publishes one split node's sub-units, rooted at `depth`, in child
  /// order (atomically, so a failed TryNext never observes half a split).
  void PushSubs(uint64_t unit_id, uint32_t depth,
                const std::vector<void*>& subs);

  /// Whole units not yet handed out.
  uint64_t units_pending() const;

  /// Units handed out so far (diagnostics only).
  uint64_t units_dispatched() const;

 private:
  struct SubQueue {
    std::vector<WorkItem> items;
    size_t cursor = 0;
  };

  mutable Mutex mu_;
  std::vector<WorkUnit> units_ TPM_GUARDED_BY(mu_);
  size_t unit_cursor_ TPM_GUARDED_BY(mu_) = 0;
  std::vector<SubQueue> subs_ TPM_GUARDED_BY(mu_);  ///< by root depth
  uint64_t dispatched_ TPM_GUARDED_BY(mu_) = 0;
};

}  // namespace tpm
