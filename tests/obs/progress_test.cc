// ProgressTracker: per-slot charging, interval gating, ETA projection, and
// the StatsDomain charges per emission.

#include "obs/progress.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/stats_domain.h"

namespace tpm {
namespace obs {
namespace {

TEST(ProgressTrackerTest, ZeroIntervalEmitsOnEveryPoll) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureSlots(1);
  // Ticks only publish; with a zero interval every poll emits.
  for (uint64_t i = 1; i <= 3; ++i) {
    tracker.Tick(0, i, i / 2, i * 10);
    tracker.PollEmit();
  }
  EXPECT_EQ(seen.size(), 3u);
  EXPECT_EQ(tracker.snapshots_emitted(), 3u);
  EXPECT_EQ(seen.back().nodes, 3u);
  EXPECT_EQ(seen.back().patterns, 1u);
  EXPECT_EQ(seen.back().projected_bytes, 30u);
  EXPECT_FALSE(seen.back().final_snapshot);
}

TEST(ProgressTrackerTest, LargeIntervalSuppressesPeriodicEmissions) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(3600.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureSlots(1);
  for (uint64_t i = 1; i <= 100; ++i) {
    tracker.Tick(0, i, 0, 0);
    tracker.PollEmit();
  }
  EXPECT_TRUE(seen.empty());
  tracker.Finish();  // the final snapshot ignores the interval
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].final_snapshot);
  EXPECT_EQ(seen[0].nodes, 100u);
}

TEST(ProgressTrackerTest, EtaComesFromBucketCompletion) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.ConfigureSlots(2);
  tracker.SetTotalBuckets(10);
  // No bucket done yet: ETA unknown.
  tracker.Tick(0, 1, 0, 0);
  tracker.PollEmit();
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back().buckets_total, 10u);
  EXPECT_EQ(seen.back().buckets_done, 0u);
  EXPECT_LT(seen.back().eta_seconds, 0.0);
  // Half the buckets done, on two slots: ETA is defined and roughly equals
  // elapsed.
  for (int d = 0; d < 5; ++d) tracker.NoteBucketDone(d % 2);
  tracker.Tick(1, 100, 0, 0);
  tracker.PollEmit();
  const ProgressSnapshot& last = seen.back();
  EXPECT_EQ(last.buckets_done, 5u);
  EXPECT_GE(last.eta_seconds, 0.0);
  EXPECT_NEAR(last.eta_seconds, last.elapsed_seconds, 1e-6 + last.elapsed_seconds);
}

TEST(ProgressTrackerTest, FinalSnapshotHasNoEta) {
  ProgressSnapshot last;
  ProgressTracker tracker(3600.0,
                          [&last](const ProgressSnapshot& s) { last = s; });
  tracker.ConfigureSlots(1);
  tracker.SetTotalBuckets(4);
  tracker.NoteBucketDone(0);
  tracker.Tick(0, 5, 2, 100);
  tracker.Finish();
  EXPECT_TRUE(last.final_snapshot);
  EXPECT_LT(last.eta_seconds, 0.0);
  EXPECT_EQ(last.patterns, 2u);
  EXPECT_EQ(last.projected_bytes, 100u);
}

#ifndef TPM_OBS_DISABLED
TEST(ProgressTrackerTest, ChargesDomainPerEmission) {
  StatsDomain domain("d");
  ProgressTracker tracker(0.0, nullptr, &domain);
  tracker.ConfigureSlots(1);
  tracker.PollEmit();
  tracker.PollEmit();
  tracker.Finish();
  EXPECT_EQ(domain.Snapshot().CounterValue("progress.snapshots"),
            tracker.snapshots_emitted());
  EXPECT_EQ(tracker.snapshots_emitted(), 3u);
}
#endif

TEST(ProgressTrackerTest, SlotsFoldIntoSnapshots) {
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(3600.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  tracker.SetTotalBuckets(6);
  tracker.ConfigureSlots(4);
  // One slot per mining context (the growth engine's root context and its
  // workers); each publishes its own cumulative totals.
  tracker.Tick(0, 10, 1, 100);
  tracker.Tick(1, 50, 3, 1000);
  tracker.Tick(2, 30, 2, 500);
  tracker.Tick(3, 5, 0, 50);
  tracker.Tick(1, 60, 4, 900);  // a later tick replaces the slot's totals
  tracker.NoteBucketDone(0);
  tracker.NoteBucketDone(1);
  tracker.NoteBucketDone(1);
  tracker.NoteBucketDone(3);
  tracker.Finish();
  ASSERT_EQ(seen.size(), 1u);
  const ProgressSnapshot& snap = seen.back();
  EXPECT_EQ(snap.nodes, 10u + 60 + 30 + 5);
  EXPECT_EQ(snap.patterns, 1u + 4 + 2);
  EXPECT_EQ(snap.projected_bytes, 100u + 900 + 500 + 50);
  EXPECT_EQ(snap.buckets_done, 4u);
  EXPECT_EQ(snap.buckets_total, 6u);
}

TEST(ProgressTrackerTest, ConcurrentSlotTicksAreSafe) {
  // Hammer Tick/NoteBucketDone from several threads while the owner polls
  // — meaningful under TSan; the final fold must see each slot's last
  // published totals exactly once.
  std::vector<ProgressSnapshot> seen;
  ProgressTracker tracker(0.0,
                          [&seen](const ProgressSnapshot& s) { seen.push_back(s); });
  constexpr uint32_t kSlots = 4;
  constexpr uint64_t kTicks = 2000;
  tracker.ConfigureSlots(kSlots);
  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < kSlots; ++w) {
    threads.emplace_back([&tracker, w] {
      for (uint64_t i = 1; i <= kTicks; ++i) {
        tracker.Tick(w, i, i / 10, i * 4);
      }
      tracker.NoteBucketDone(w);
    });
  }
  for (int poll = 0; poll < 100; ++poll) tracker.PollEmit();
  for (std::thread& th : threads) th.join();
  tracker.Finish();
  ASSERT_FALSE(seen.empty());
  const ProgressSnapshot& snap = seen.back();
  EXPECT_EQ(snap.nodes, kSlots * kTicks);
  EXPECT_EQ(snap.patterns, kSlots * (kTicks / 10));
  EXPECT_EQ(snap.buckets_done, static_cast<uint64_t>(kSlots));
}

TEST(ProgressSnapshotTest, ToStringShapes) {
  ProgressSnapshot snap;
  snap.nodes = 1000;
  snap.patterns = 10;
  snap.elapsed_seconds = 2.0;
  snap.nodes_per_second = 500.0;
  std::string s = snap.ToString();
  EXPECT_NE(s.find("progress:"), std::string::npos);
  EXPECT_NE(s.find("1000 nodes"), std::string::npos);
  EXPECT_EQ(s.find("buckets"), std::string::npos);  // total unknown
  EXPECT_EQ(s.find("eta"), std::string::npos);      // eta unknown

  snap.buckets_done = 3;
  snap.buckets_total = 9;
  snap.eta_seconds = 4.0;
  s = snap.ToString();
  EXPECT_NE(s.find("3/9 buckets"), std::string::npos);
  EXPECT_NE(s.find("eta 4.0s"), std::string::npos);

  snap.final_snapshot = true;
  EXPECT_NE(snap.ToString().find("progress(final):"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace tpm
