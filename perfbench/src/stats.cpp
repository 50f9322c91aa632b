#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

Quantile median_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {quantile_sorted(samples, 0.5), 0.5, samples.size()};
}

Quantile tail_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  for (const double q : {0.99, 0.95, 0.9, 0.75, 0.5}) {
    const double beyond = n - std::ceil(q * n);
    if (beyond >= 10.0) return {quantile_sorted(samples, q), q, samples.size()};
  }
  return {samples.empty() ? 0.0 : samples.back(), 1.0, samples.size()};
}

std::vector<Quantile> slice_stats(const std::vector<double>& in_order, std::size_t windows,
                                  Quantile (*stat)(std::vector<double>)) {
  windows = std::max<std::size_t>(1, std::min(windows, in_order.size()));
  std::vector<Quantile> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t begin = w * in_order.size() / windows;
    const std::size_t end = (w + 1) * in_order.size() / windows;
    out.push_back(stat(std::vector<double>(in_order.begin() + static_cast<std::ptrdiff_t>(begin),
                                           in_order.begin() + static_cast<std::ptrdiff_t>(end))));
  }
  return out;
}

namespace {

// The median of the slices' `stat`; q is the lowest any slice reports.
Quantile windowed(const std::vector<double>& in_order, std::size_t windows,
                  Quantile (*stat)(std::vector<double>)) {
  std::vector<double> values;
  double q = 1.0;
  for (const Quantile& t : slice_stats(in_order, windows, stat)) {
    values.push_back(t.value);
    q = std::min(q, t.q);
  }
  return {median_of(values).value, q, in_order.size()};
}

}  // namespace

Quantile windowed_tail(const std::vector<double>& in_order, std::size_t windows) {
  return windowed(in_order, windows, tail_of);
}

Quantile windowed_median(const std::vector<double>& in_order, std::size_t windows) {
  return windowed(in_order, windows, median_of);
}

std::vector<double> window_rates(const std::vector<double>& done_s, double from_s, double to_s,
                                 double window_s) {
  if (!(window_s > 0.0)) throw std::invalid_argument("window_rates: window must be positive");
  const auto windows =
      static_cast<std::size_t>(std::max(0.0, std::floor((to_s - from_s) / window_s)));
  std::vector<double> counts(windows, 0.0);
  for (const double t : done_s) {
    if (t < from_s) continue;
    const auto w = static_cast<std::size_t>((t - from_s) / window_s);
    if (w < windows) counts[w] += 1.0;
  }
  for (double& c : counts) c /= window_s;
  return counts;
}

PoissonClock::PoissonClock(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (!(rate > 0.0)) throw std::invalid_argument("PoissonClock: rate must be positive");
}

double PoissonClock::next() {
  // 1 - u keeps the log argument in (0, 1].
  t_ += -std::log(1.0 - rng_.uniform()) / rate_;
  return t_;
}

double send_lateness_ms(double scheduled_s, double sent_s) {
  return std::max(0.0, sent_s - scheduled_s) * 1e3;
}

}  // namespace perfbench
