#include "stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

TEST(PercentileTest, NearestRankQuantile) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(quantile_sorted(sorted, 0.5), 5.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.9), 9.0);
  EXPECT_EQ(quantile_sorted(sorted, 1.0), 10.0);
  EXPECT_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_EQ(quantile_sorted({}, 0.5), 0.0);
  EXPECT_EQ(median_of({3, 1, 2}).value, 2.0);
  EXPECT_EQ(median_of({3, 1, 2}).count, 3u);
}

TEST(PercentileTest, TailKeepsTenSamplesBeyond) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Quantile q = tail_of(v);
  EXPECT_EQ(q.q, 0.99);
  EXPECT_EQ(q.value, 990.0);  // 10 samples (991..1000) lie beyond it
  EXPECT_EQ(q.count, 1000u);

  v.resize(999);  // p99 would leave only 9 beyond: fall back to p95
  q = tail_of(v);
  EXPECT_EQ(q.q, 0.95);
  EXPECT_EQ(q.value, 950.0);

  v.resize(40);  // p75 leaves 10 beyond
  EXPECT_EQ(tail_of(v).q, 0.75);
  v.resize(20);
  EXPECT_EQ(tail_of(v).q, 0.5);
  v.resize(19);  // nothing qualifies: the maximum
  q = tail_of(v);
  EXPECT_EQ(q.q, 1.0);
  EXPECT_EQ(q.value, 19.0);
  EXPECT_EQ(tail_of({}).value, 0.0);
}

TEST(PercentileTest, WindowedTailIgnoresAStallInOneWindow) {
  std::vector<double> v;
  for (int w = 0; w < 8; ++w) {
    for (int i = 1; i <= 1000; ++i) v.push_back(i);
  }
  Quantile q = windowed_tail(v, 8);
  EXPECT_EQ(q.value, 990.0);
  EXPECT_EQ(q.q, 0.99);
  EXPECT_EQ(q.count, 8000u);
  for (int i = 0; i < 1000; ++i) v[static_cast<std::size_t>(i)] = 1e6;  // one stalled window
  EXPECT_EQ(windowed_tail(v, 8).value, 990.0);
  EXPECT_EQ(tail_of(v).value, 1e6);
  EXPECT_EQ(windowed_tail(v, 1).value, tail_of(v).value);
  EXPECT_EQ(windowed_tail({}, 8).value, 0.0);
}

TEST(PercentileTest, WindowedMedianIsTheMedianOfSliceMedians) {
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 101; ++i) v.push_back(i + (w == 2 ? 1000 : 0));  // one slow slice
  }
  const Quantile q = windowed_median(v, 5);
  EXPECT_EQ(q.value, 51.0);
  EXPECT_EQ(q.q, 0.5);
  EXPECT_EQ(q.count, 505u);
  EXPECT_EQ(windowed_median(v, 1).value, median_of(v).value);
  EXPECT_EQ(windowed_median({}, 3).value, 0.0);
}

TEST(ThroughputTest, WindowRatesCountCompletionsPerSecond) {
  // 100 completions per second for 2 s, then nothing for 1 s.
  std::vector<double> done;
  for (int i = 0; i < 200; ++i) done.push_back(0.005 + 0.01 * i);
  const std::vector<double> rates = window_rates(done, 0.0, 3.0, 0.5);
  ASSERT_EQ(rates.size(), 6u);
  for (std::size_t w = 0; w < 4; ++w) EXPECT_DOUBLE_EQ(rates[w], 100.0) << "window " << w;
  EXPECT_EQ(rates[4], 0.0);
  EXPECT_EQ(rates[5], 0.0);
  // The range skips a ramp-up and drops a partial last window.
  EXPECT_EQ(window_rates(done, 0.5, 1.75, 0.5), (std::vector<double>{100.0, 100.0}));
  EXPECT_TRUE(window_rates(done, 1.0, 1.2, 0.5).empty());
  EXPECT_TRUE(window_rates({}, 0.0, 1.0, 0.5) == (std::vector<double>{0.0, 0.0}));
  EXPECT_THROW(window_rates(done, 0.0, 1.0, 0.0), std::invalid_argument);
}

std::vector<double> arrivals(double rate, double seconds, std::uint64_t seed) {
  PoissonClock clock(rate, seed);
  std::vector<double> at;
  for (double t = clock.next(); t < seconds; t = clock.next()) at.push_back(t);
  return at;
}

TEST(ScheduleTest, PoissonClockIsSeededAndHoldsItsRate) {
  const std::vector<double> a = arrivals(2000.0, 5.0, 11);
  EXPECT_EQ(a, arrivals(2000.0, 5.0, 11));
  EXPECT_NE(a, arrivals(2000.0, 5.0, 12));
  // 10000 expected arrivals; 5 standard deviations is 500.
  EXPECT_NEAR(static_cast<double>(a.size()), 10000.0, 500.0);
  for (std::size_t i = 1; i < a.size(); ++i) ASSERT_GT(a[i], a[i - 1]);
  EXPECT_GT(a.front(), 0.0);
  EXPECT_THROW(PoissonClock(0.0, 1), std::invalid_argument);
  // Four clocks at a quarter of the rate add up to the same rate.
  std::size_t merged = 0;
  for (std::uint64_t s = 0; s < 4; ++s) merged += arrivals(500.0, 5.0, 100 + s).size();
  EXPECT_NEAR(static_cast<double>(merged), 10000.0, 500.0);
}

TEST(ScheduleTest, LatenessIsActualMinusScheduledFlooredAtZero) {
  EXPECT_NEAR(send_lateness_ms(0.0, 0.001), 1.0, 1e-9);
  EXPECT_EQ(send_lateness_ms(0.5, 0.4999), 0.0);
  EXPECT_NEAR(send_lateness_ms(1.0, 1.25), 250.0, 1e-9);
}

}  // namespace
}  // namespace perfbench
