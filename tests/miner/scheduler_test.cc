// Unit tests for the work scheduler layer (miner/scheduler.h).
//
// The scheduler is pure bookkeeping — no miner, no projections — so these
// tests pin down the exact contracts the growth engine builds on: units
// (items rooted at depth 1) dispatched in id order, deeper items outranking
// shallower ones (whole units last) with FIFO order within one depth, a
// waiter at depth d only ever claiming items rooted deeper than d, and the
// thread-count-independent split heuristic. A concurrency smoke at the end
// hammers the queue from several threads and checks every item is claimed
// exactly once (meaningful under TSan, cheap everywhere else).

#include "miner/scheduler.h"

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tpm {
namespace {

// Queues `n` unit payloads at depth 1, in id order.
void PushUnits(WorkScheduler* sched, std::vector<int>* units, size_t n) {
  units->assign(n, 0);
  std::vector<void*> items;
  for (int& u : *units) items.push_back(&u);
  sched->Push(1, items);
}

TEST(WorkSchedulerTest, DispatchesUnitsInIdOrder) {
  WorkScheduler sched;
  std::vector<int> units;
  PushUnits(&sched, &units, 4);
  for (int& want : units) EXPECT_EQ(sched.TryNext(), &want);
  EXPECT_EQ(sched.TryNext(), nullptr);
}

TEST(WorkSchedulerTest, SubsOutrankWholeUnits) {
  WorkScheduler sched;
  std::vector<int> units;
  PushUnits(&sched, &units, 3);
  ASSERT_EQ(sched.TryNext(), &units[0]);

  // Unit 0's owner publishes two children; they must be claimed before
  // units 1 and 2, in publication order.
  int payload_a = 0;
  int payload_b = 0;
  sched.Push(2, {&payload_a, &payload_b});
  EXPECT_EQ(sched.TryNext(), &payload_a);
  EXPECT_EQ(sched.TryNext(), &payload_b);
  EXPECT_EQ(sched.TryNext(), &units[1]);
}

TEST(WorkSchedulerTest, DeeperSubsFirstAndFifoWithinOneDepth) {
  WorkScheduler sched;
  std::vector<int> units;
  PushUnits(&sched, &units, 2);
  int d2[3] = {};
  int d3[2] = {};
  int d4[2] = {};
  sched.Push(2, {&d2[0], &d2[1]});
  sched.Push(3, {&d3[0]});
  sched.Push(2, {&d2[2]});
  sched.Push(4, {&d4[0], &d4[1]});
  sched.Push(3, {&d3[1]});

  // Deepest depth first; within a depth, publication order across owners.
  const std::vector<void*> want = {&d4[0], &d4[1], &d3[0], &d3[1],
                                   &d2[0], &d2[1], &d2[2]};
  for (void* sub : want) EXPECT_EQ(sched.TryNext(), sub);
  EXPECT_EQ(sched.TryNext(), &units[0]);
}

TEST(WorkSchedulerTest, WaitersClaimOnlyDeeperItems) {
  WorkScheduler sched;
  std::vector<int> units;
  PushUnits(&sched, &units, 2);

  // A context waiting at depth 1 (a split unit's owner) never gets a whole
  // unit: those are rooted at depth 1 too.
  EXPECT_EQ(sched.TryNext(1), nullptr);

  int d2 = 0;
  int d3 = 0;
  sched.Push(2, {&d2});
  sched.Push(3, {&d3});
  // Waiting at depth 3: nothing at depth 2 or 3 is eligible.
  EXPECT_EQ(sched.TryNext(3), nullptr);
  // Waiting at depth 2: only the depth-3 item.
  EXPECT_EQ(sched.TryNext(2), &d3);
  EXPECT_EQ(sched.TryNext(2), nullptr);
  // Waiting at depth 1: the depth-2 item, and still no whole unit.
  EXPECT_EQ(sched.TryNext(1), &d2);
  EXPECT_EQ(sched.TryNext(1), nullptr);
  // Both whole units are still there, in id order, for the top-level loop.
  EXPECT_EQ(sched.TryNext(), &units[0]);
  EXPECT_EQ(sched.TryNext(), &units[1]);
  EXPECT_EQ(sched.TryNext(), nullptr);
}

TEST(MarkSplittableUnitsTest, MarksOnlySkewedHeavyUnits) {
  // Mean weight = (1+1+1+1+16)/5 = 4; threshold = max(2, 8) = 8.
  EXPECT_EQ(MarkSplittableUnits({1, 1, 1, 1, 16}, 2),
            (std::vector<bool>{false, false, false, false, true}));
}

TEST(MarkSplittableUnitsTest, MinSpansFloorStopsTinyDatabases) {
  const std::vector<bool> none(3, false);
  // Uniform weights: 2*mean == every weight would qualify without the floor.
  EXPECT_EQ(MarkSplittableUnits({3, 3, 3}, 100), none);
  // With a low floor, 2*mean = 6 still disqualifies uniform weight-3 units.
  EXPECT_EQ(MarkSplittableUnits({3, 3, 3}, 1), none);
}

TEST(MarkSplittableUnitsTest, IndependentOfUnitOrderAndEmptyInput) {
  EXPECT_TRUE(MarkSplittableUnits({}, 2).empty());  // no divide by zero
  EXPECT_EQ(MarkSplittableUnits({16, 1, 1, 1, 1}, 2),
            (std::vector<bool>{true, false, false, false, false}));
  EXPECT_EQ(MarkSplittableUnits({1, 1, 16, 1, 1}, 2),
            (std::vector<bool>{false, false, true, false, false}));
}

TEST(WorkSchedulerTest, ConcurrentClaimsAreExactlyOnce) {
  constexpr int kUnits = 64;
  constexpr int kThreads = 8;
  struct Payload {
    int id = 0;
    bool unit = false;
  };
  std::vector<Payload> unit_payloads(kUnits);
  std::vector<Payload> sub_payloads(kUnits);
  std::vector<void*> items;
  for (int i = 0; i < kUnits; ++i) {
    unit_payloads[i] = {i, true};
    sub_payloads[i] = {i, false};
    items.push_back(&unit_payloads[i]);
  }
  WorkScheduler sched;
  sched.Push(1, items);

  // Each worker also publishes one sub per claimed even unit, at depths
  // 2..4, so every queue sees contention.
  std::atomic<int> units_claimed{0};
  std::atomic<int> subs_claimed{0};
  std::vector<std::set<int>> per_thread_units(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (void* item = sched.TryNext()) {
        const Payload& p = *static_cast<Payload*>(item);
        if (p.unit) {
          const int id = p.id;
          per_thread_units[t].insert(id);
          units_claimed.fetch_add(1, std::memory_order_relaxed);
          if (id % 2 == 0) {
            sched.Push(static_cast<uint32_t>(2 + id % 3), {&sub_payloads[id]});
          }
        } else {
          subs_claimed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Drain any subs published after the unit queue emptied.
      while (sched.TryNext(1) != nullptr) {
        subs_claimed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(units_claimed.load(), kUnits);
  EXPECT_EQ(subs_claimed.load(), kUnits / 2);
  std::set<int> all;
  for (const auto& s : per_thread_units) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kUnits));
}

}  // namespace
}  // namespace tpm
