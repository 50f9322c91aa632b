// Sample statistics the benchmark reports: percentiles from its own raw
// samples, throughput per time window, and the open-loop send schedule
// with its lateness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

// A percentile as reported: the value, the quantile it is (0.5, 0.99, ...),
// and how many samples it was taken from.
struct Quantile {
  double value = 0.0;
  double q = 0.0;
  std::size_t count = 0;
};

// Nearest-rank quantile of an ascending sample: the smallest value with at
// least q * n samples at or below it. Empty input gives 0.
double quantile_sorted(const std::vector<double>& sorted, double q);

// Median of an unsorted sample (nearest rank, so always a sample value).
Quantile median_of(std::vector<double> samples);

// The highest of 0.99, 0.95, 0.9, 0.75 and 0.5 that still has at least ten
// samples beyond it. With fewer than 20 samples no percentile qualifies, and
// the maximum is reported with q = 1.
Quantile tail_of(std::vector<double> samples);

// `stat` (median_of, tail_of) of each of `windows` consecutive equal
// slices of a sample kept in schedule order. Empty input gives one slice.
std::vector<Quantile> slice_stats(const std::vector<double>& in_order, std::size_t windows,
                                  Quantile (*stat)(std::vector<double>));

// tail_of() of each of `windows` consecutive equal slices of a sample kept
// in schedule order, and the median of those tails: a stall confined to
// one slice moves it by one rank instead of deciding it. q is the lowest
// quantile any slice could support; count is the whole sample.
Quantile windowed_tail(const std::vector<double>& in_order, std::size_t windows);

// The same for the median: the median of the slices' medians. q is 0.5.
Quantile windowed_median(const std::vector<double>& in_order, std::size_t windows);

// Completions per second in consecutive windows of `window_s` seconds that
// cover [from_s, to_s): each window's count of completion times (seconds
// from the phase start) divided by window_s. A partial last window is
// dropped, and so are completions outside the range.
std::vector<double> window_rates(const std::vector<double>& done_s, double from_s, double to_s,
                                 double window_s);

// Arrival times of a Poisson process at `rate` per second, drawn from
// `seed`: each next() is the previous arrival plus an exponential gap.
class PoissonClock {
 public:
  PoissonClock(double rate, std::uint64_t seed);
  double next();

 private:
  double rate_;
  double t_ = 0.0;
  taamr::Rng rng_;
};

// How late a request left, in milliseconds: actual minus scheduled send
// time (both in seconds from the phase start), floored at 0.
double send_lateness_ms(double scheduled_s, double sent_s);

}  // namespace perfbench
