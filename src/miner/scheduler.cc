#include "miner/scheduler.h"

#include <algorithm>

#include "util/sched_test.h"

namespace tpm {

std::vector<bool> MarkSplittableUnits(const std::vector<uint64_t>& weights,
                                      uint64_t min_spans) {
  std::vector<bool> split(weights.size(), false);
  if (weights.empty()) return split;
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;
  const uint64_t mean = total / weights.size();
  // `2 * mean` keeps splitting to genuinely skewed subtrees; the min_spans
  // floor stops tiny databases from splitting everything.
  const uint64_t threshold = std::max<uint64_t>(min_spans, 2 * mean);
  for (size_t i = 0; i < weights.size(); ++i) {
    split[i] = weights[i] >= threshold;
  }
  return split;
}

void WorkScheduler::Push(uint32_t depth, const std::vector<void*>& items) {
  TPM_TEST_YIELD("miner.sched.split");
  MutexLock lock(&mu_);
  if (queues_.size() <= depth) queues_.resize(depth + 1);
  std::vector<void*>& q = queues_[depth].items;
  q.insert(q.end(), items.begin(), items.end());
}

void* WorkScheduler::TryNext(uint32_t deeper_than) {
  // Tier E seam: the claim boundary is where worker interleavings diverge
  // (util/sched_test.h). Before the lock, never inside it.
  TPM_TEST_YIELD("miner.sched.next");
  MutexLock lock(&mu_);
  for (size_t depth = queues_.size(); depth-- > size_t{deeper_than} + 1;) {
    Queue& q = queues_[depth];
    if (q.cursor < q.items.size()) return q.items[q.cursor++];
  }
  return nullptr;
}

}  // namespace tpm
