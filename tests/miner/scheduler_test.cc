// Unit tests for the work-unit scheduler layer (miner/scheduler.h).
//
// The scheduler is pure bookkeeping — no miner, no projections — so these
// tests pin down the exact contracts the growth engine builds on: FIFO
// dispatch in unit-id order, deeper items outranking shallower ones (whole
// units last) with FIFO order within one depth, a waiter at depth d only
// ever claiming items rooted deeper than d, and the thread-count-independent
// split heuristic. A concurrency smoke at the end hammers the queue from several
// threads and checks every item is claimed exactly once (meaningful under
// TSan, cheap everywhere else).

#include "miner/scheduler.h"

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace tpm {
namespace {

std::vector<WorkUnit> MakeUnits(std::initializer_list<uint64_t> weights) {
  std::vector<WorkUnit> units;
  uint64_t id = 0;
  for (uint64_t w : weights) {
    WorkUnit u;
    u.id = id;
    u.key = id * 2;  // arbitrary but distinct
    u.weight = w;
    units.push_back(u);
    ++id;
  }
  return units;
}

TEST(WorkSchedulerTest, DispatchesUnitsInIdOrder) {
  WorkScheduler sched;
  sched.Reset(MakeUnits({5, 3, 9, 1}));
  EXPECT_EQ(sched.units_pending(), 4u);
  EXPECT_EQ(sched.units_dispatched(), 0u);

  for (uint64_t want = 0; want < 4; ++want) {
    WorkItem item;
    ASSERT_TRUE(sched.TryNext(&item));
    EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
    EXPECT_EQ(item.unit_id, want);
    EXPECT_EQ(item.sub, nullptr);
  }
  WorkItem item;
  EXPECT_FALSE(sched.TryNext(&item));
  EXPECT_EQ(sched.units_pending(), 0u);
  EXPECT_EQ(sched.units_dispatched(), 4u);
}

TEST(WorkSchedulerTest, SubsOutrankWholeUnits) {
  WorkScheduler sched;
  sched.Reset(MakeUnits({5, 5, 5}));

  WorkItem item;
  ASSERT_TRUE(sched.TryNext(&item));
  ASSERT_EQ(item.kind, WorkItem::Kind::kUnit);
  ASSERT_EQ(item.unit_id, 0u);

  // Unit 0's owner publishes two children; they must be claimed before
  // units 1 and 2, in publication order.
  int payload_a = 0;
  int payload_b = 0;
  sched.PushSubs(0, 2, {&payload_a, &payload_b});

  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kSub);
  EXPECT_EQ(item.unit_id, 0u);
  EXPECT_EQ(item.sub, &payload_a);

  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kSub);
  EXPECT_EQ(item.sub, &payload_b);

  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
  EXPECT_EQ(item.unit_id, 1u);
}

TEST(WorkSchedulerTest, DeeperSubsFirstAndFifoWithinOneDepth) {
  WorkScheduler sched;
  sched.Reset(MakeUnits({5, 5}));
  int d2[3] = {};
  int d3[2] = {};
  int d4[2] = {};
  sched.PushSubs(0, 2, {&d2[0], &d2[1]});
  sched.PushSubs(0, 3, {&d3[0]});
  sched.PushSubs(1, 2, {&d2[2]});
  sched.PushSubs(0, 4, {&d4[0], &d4[1]});
  sched.PushSubs(1, 3, {&d3[1]});

  // Deepest depth first; within a depth, publication order across owners.
  const std::vector<void*> want = {&d4[0], &d4[1], &d3[0], &d3[1],
                                   &d2[0], &d2[1], &d2[2]};
  for (void* sub : want) {
    WorkItem item;
    ASSERT_TRUE(sched.TryNext(&item));
    EXPECT_EQ(item.kind, WorkItem::Kind::kSub);
    EXPECT_EQ(item.sub, sub);
  }
  WorkItem item;
  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
  EXPECT_EQ(item.unit_id, 0u);
}

TEST(WorkSchedulerTest, WaitersClaimOnlyDeeperItems) {
  WorkScheduler sched;
  sched.Reset(MakeUnits({5, 5}));

  // A context waiting at depth 1 (a split unit's owner) never gets a whole
  // unit: those are rooted at depth 1 too.
  WorkItem item;
  EXPECT_FALSE(sched.TryNext(&item, 1));
  EXPECT_EQ(sched.units_pending(), 2u);  // untouched

  int d2 = 0;
  int d3 = 0;
  sched.PushSubs(0, 2, {&d2});
  sched.PushSubs(0, 3, {&d3});
  // Waiting at depth 3: nothing at depth 2 or 3 is eligible.
  EXPECT_FALSE(sched.TryNext(&item, 3));
  // Waiting at depth 2: only the depth-3 item.
  ASSERT_TRUE(sched.TryNext(&item, 2));
  EXPECT_EQ(item.sub, &d3);
  EXPECT_FALSE(sched.TryNext(&item, 2));
  // Waiting at depth 1: the depth-2 item, and still no whole unit.
  ASSERT_TRUE(sched.TryNext(&item, 1));
  EXPECT_EQ(item.sub, &d2);
  EXPECT_FALSE(sched.TryNext(&item, 1));
  // The whole units are still there for the top-level loop.
  EXPECT_EQ(sched.units_pending(), 2u);
  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
}

TEST(WorkSchedulerTest, ResetClearsEverything) {
  WorkScheduler sched;
  sched.Reset(MakeUnits({1, 2}));
  WorkItem item;
  ASSERT_TRUE(sched.TryNext(&item));
  int payload = 0;
  sched.PushSubs(0, 2, {&payload});
  sched.PushSubs(0, 3, {&payload});

  sched.Reset(MakeUnits({7}));
  EXPECT_EQ(sched.units_pending(), 1u);
  EXPECT_EQ(sched.units_dispatched(), 0u);
  // The stale subs from the previous generation must be gone.
  ASSERT_TRUE(sched.TryNext(&item));
  EXPECT_EQ(item.kind, WorkItem::Kind::kUnit);
  EXPECT_EQ(item.unit_id, 0u);
  EXPECT_FALSE(sched.TryNext(&item));
}

TEST(MarkSplittableUnitsTest, MarksOnlySkewedHeavyUnits) {
  // Mean weight = (1+1+1+1+16)/5 = 4; threshold = max(2, 8) = 8.
  auto units = MakeUnits({1, 1, 1, 1, 16});
  MarkSplittableUnits(&units, 2);
  EXPECT_FALSE(units[0].splittable);
  EXPECT_FALSE(units[1].splittable);
  EXPECT_FALSE(units[2].splittable);
  EXPECT_FALSE(units[3].splittable);
  EXPECT_TRUE(units[4].splittable);
}

TEST(MarkSplittableUnitsTest, MinSpansFloorStopsTinyDatabases) {
  // Uniform weights: 2*mean == every weight would qualify without the floor.
  auto units = MakeUnits({3, 3, 3});
  MarkSplittableUnits(&units, 100);
  for (const WorkUnit& u : units) EXPECT_FALSE(u.splittable);

  // With a low floor, 2*mean = 6 still disqualifies uniform weight-3 units.
  MarkSplittableUnits(&units, 1);
  for (const WorkUnit& u : units) EXPECT_FALSE(u.splittable);
}

TEST(MarkSplittableUnitsTest, IndependentOfUnitOrderAndEmptyInput) {
  std::vector<WorkUnit> empty;
  MarkSplittableUnits(&empty, 2);  // must not divide by zero
  EXPECT_TRUE(empty.empty());

  auto a = MakeUnits({16, 1, 1, 1, 1});
  auto b = MakeUnits({1, 1, 16, 1, 1});
  MarkSplittableUnits(&a, 2);
  MarkSplittableUnits(&b, 2);
  EXPECT_TRUE(a[0].splittable);
  EXPECT_TRUE(b[2].splittable);
}

TEST(WorkSchedulerTest, ConcurrentClaimsAreExactlyOnce) {
  constexpr int kUnits = 64;
  constexpr int kThreads = 8;
  std::vector<WorkUnit> units;
  for (int i = 0; i < kUnits; ++i) {
    WorkUnit u;
    u.id = static_cast<uint64_t>(i);
    u.weight = 1;
    units.push_back(u);
  }
  WorkScheduler sched;
  sched.Reset(std::move(units));

  // Each worker also publishes one sub per claimed even unit, at depths
  // 2..4, so every queue sees contention. Subs are tagged by pointer identity.
  std::vector<int> sub_payloads(kUnits, 0);
  std::atomic<int> units_claimed{0};
  std::atomic<int> subs_claimed{0};
  std::vector<std::set<uint64_t>> per_thread_units(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkItem item;
      while (sched.TryNext(&item)) {
        if (item.kind == WorkItem::Kind::kUnit) {
          per_thread_units[t].insert(item.unit_id);
          units_claimed.fetch_add(1, std::memory_order_relaxed);
          if (item.unit_id % 2 == 0) {
            sched.PushSubs(item.unit_id,
                           static_cast<uint32_t>(2 + item.unit_id % 3),
                           {&sub_payloads[item.unit_id]});
          }
        } else {
          subs_claimed.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Drain any subs published after the unit queue emptied.
      while (sched.TryNext(&item, 1)) {
        subs_claimed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(units_claimed.load(), kUnits);
  EXPECT_EQ(subs_claimed.load(), kUnits / 2);
  EXPECT_EQ(sched.units_dispatched(), static_cast<uint64_t>(kUnits));
  std::set<uint64_t> all;
  for (const auto& s : per_thread_units) all.insert(s.begin(), s.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kUnits));
}

}  // namespace
}  // namespace tpm
