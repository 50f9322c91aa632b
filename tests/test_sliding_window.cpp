#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/sliding_window.hpp"

namespace taamr::obs {
namespace {

// Every test drives the window with injected timestamps so boundary
// behavior is pinned exactly — no sleeps, no clock races.

constexpr std::uint64_t kSlotUs = 1'000'000;  // 1 s slots

TEST(SlidingWindow, RejectsInvalidConstruction) {
  EXPECT_THROW(SlidingWindowHistogram(0, 4), std::invalid_argument);
  EXPECT_THROW(SlidingWindowHistogram(10, 0), std::invalid_argument);
  EXPECT_THROW(SlidingWindowHistogram(10, 3), std::invalid_argument);  // 10 % 3
  EXPECT_THROW(SlidingWindowHistogram(8, 4, {2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(SlidingWindowHistogram(8, 4, {1.0, 1.0}), std::invalid_argument);
}

TEST(SlidingWindow, QuantileMatchesLifetimeHistogramEstimator) {
  // Same values into the window (all inside the live window) and into a
  // process-lifetime Histogram with identical bounds: quantiles must agree
  // bit-for-bit, since both delegate to bucket_quantile.
  const std::vector<double> bounds = exponential_bounds(1e-4, 2.0, 12);
  SlidingWindowHistogram win(10 * kSlotUs, 10, bounds);
  Histogram ref(bounds);
  std::uint64_t t = 100 * kSlotUs;
  for (int i = 0; i < 500; ++i) {
    const double v = 1e-4 * std::pow(1.013, i);
    win.observe(v, t + static_cast<std::uint64_t>(i) * 10'000);  // ~5 slots
    ref.observe(v);
  }
  const auto snap = win.snapshot(t + 500 * 10'000);
  ASSERT_EQ(snap.count, ref.count());
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(snap.quantile(q), ref.quantile(q)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(snap.sum, ref.sum());
  EXPECT_DOUBLE_EQ(snap.min, ref.min());
  EXPECT_DOUBLE_EQ(snap.max, ref.max());
}

TEST(SlidingWindow, QuantileTracksReferenceSortWithinBucketWidth) {
  // Against an exact order-statistic reference the interpolated estimate
  // can only be off by the width of the bucket the quantile lands in.
  const std::vector<double> bounds = exponential_bounds(1e-3, 2.0, 14);
  SlidingWindowHistogram win(4 * kSlotUs, 4, bounds);
  std::vector<double> values;
  std::uint64_t seed = 12345;
  std::uint64_t t = 50 * kSlotUs;
  for (int i = 0; i < 400; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(seed >> 11) / 9007199254740992.0;
    const double v = 1e-3 * std::pow(2.0, u * 13.0);  // spans the bucket range
    values.push_back(v);
    win.observe(v, t);
  }
  std::sort(values.begin(), values.end());
  const auto snap = win.snapshot(t);
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    // Bucket containing `exact`: [lo, hi] bounds the admissible error.
    const auto it = std::lower_bound(bounds.begin(), bounds.end(), exact);
    const double hi = it == bounds.end() ? snap.max : *it;
    const double lo = it == bounds.begin() ? snap.min : *(it - 1);
    const double est = snap.quantile(q);
    EXPECT_GE(est, lo - 1e-12) << "q=" << q;
    EXPECT_LE(est, hi + 1e-12) << "q=" << q;
  }
}

TEST(SlidingWindow, ObservationsExpireAtWindowBoundary) {
  SlidingWindowHistogram win(4 * kSlotUs, 4, {1.0, 10.0});
  const std::uint64_t t0 = 20 * kSlotUs;  // interval 20
  win.observe(0.5, t0);
  win.observe(5.0, t0 + kSlotUs);  // interval 21

  // Window covers intervals [current-3, current]. At current=23 both live.
  auto snap = win.snapshot(t0 + 3 * kSlotUs);
  EXPECT_EQ(snap.count, 2u);

  // current=24: interval 20 just rotated out, 21 still live.
  snap = win.snapshot(t0 + 4 * kSlotUs);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 5.0);
  EXPECT_DOUBLE_EQ(snap.min, 5.0);

  // current=25: everything expired — even though no writer recycled the
  // slots, the reader must skip them.
  snap = win.snapshot(t0 + 5 * kSlotUs);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 0.0);
}

TEST(SlidingWindow, WriterRecyclesRotatedSlot) {
  SlidingWindowHistogram win(2 * kSlotUs, 2, {1.0});
  const std::uint64_t t0 = 8 * kSlotUs;  // interval 8 -> slot 0
  win.observe(0.5, t0);
  win.observe(0.5, t0);
  // Interval 10 maps to the same slot; the write must reset it first.
  win.observe(2.0, t0 + 2 * kSlotUs);
  const auto snap = win.snapshot(t0 + 2 * kSlotUs);
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 2.0);
  EXPECT_EQ(snap.buckets[0], 0u);  // the two 0.5s are gone
  EXPECT_EQ(snap.buckets[1], 1u);
}

TEST(SlidingWindow, MergedShardSnapshotsMatchUnionQuantiles) {
  // Two shards with disjoint latency sets: a busy fast shard and a quiet
  // slow one. Merging their buckets must give exactly the quantiles of one
  // window fed the union; the max of per-shard p50s (the slow shard's)
  // would not.
  const std::vector<double> bounds = exponential_bounds(1e-6, 2.0, 30);
  SlidingWindowHistogram fast(30 * kSlotUs, 30, bounds);
  SlidingWindowHistogram slow(30 * kSlotUs, 30, bounds);
  SlidingWindowHistogram both(30 * kSlotUs, 30, bounds);
  const std::uint64_t t = 50 * kSlotUs;
  for (int i = 0; i < 300; ++i) {
    const double v = 1e-4 * (1.0 + 0.01 * i);
    fast.observe(v, t);
    both.observe(v, t);
  }
  for (int i = 0; i < 100; ++i) {
    const double v = 5e-3 * (1.0 + 0.01 * i);
    slow.observe(v, t);
    both.observe(v, t);
  }
  SlidingWindowHistogram::Snapshot merged;
  merged.merge(fast.snapshot(t));
  merged.merge(slow.snapshot(t));
  const auto reference = both.snapshot(t);
  EXPECT_EQ(merged.count, reference.count);
  EXPECT_EQ(merged.buckets, reference.buckets);
  for (const double q : {0.5, 0.9, 0.99}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), reference.quantile(q)) << "q=" << q;
  }
  EXPECT_LT(merged.quantile(0.5), slow.snapshot(t).quantile(0.5));

  SlidingWindowHistogram other_bounds(30 * kSlotUs, 30, {1.0, 2.0});
  EXPECT_THROW(merged.merge(other_bounds.snapshot(t)), std::invalid_argument);
}

TEST(SlidingWindow, ConcurrentObserveAndSnapshot) {
  // TSan leg: hammer observe() from several threads (real clock) while a
  // reader merges snapshots. Every snapshot must be internally consistent —
  // bucket sums equal to count — and the final tally must see every write.
  SlidingWindowHistogram win(30 * kSlotUs, 30, exponential_bounds(1e-6, 4.0, 10));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&win, t] {
      for (int i = 0; i < kPerThread; ++i) {
        win.observe(1e-5 * static_cast<double>(t + 1));
      }
    });
  }
  std::thread reader([&win, &stop] {
    while (!stop.load()) {
      const auto snap = win.snapshot();
      std::uint64_t total = 0;
      for (const std::uint64_t b : snap.buckets) total += b;
      EXPECT_EQ(total, snap.count);
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  // The run takes far less than the 30 s window, so nothing has expired.
  const auto snap = win.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace taamr::obs
