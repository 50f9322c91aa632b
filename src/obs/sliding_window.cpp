#include "obs/sliding_window.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace taamr::obs {

SlidingWindowHistogram::SlidingWindowHistogram(std::uint64_t window_us,
                                               std::size_t slots,
                                               std::vector<double> bounds)
    : bounds_(bounds.empty() ? exponential_bounds(1e-6, 4.0, 15)
                             : std::move(bounds)),
      slot_us_(slots == 0 ? 0 : window_us / slots),
      num_slots_(slots) {
  if (window_us == 0 || slots == 0 || window_us % slots != 0) {
    throw std::invalid_argument(
        "SlidingWindowHistogram: window_us must be a positive multiple of "
        "slots");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "SlidingWindowHistogram: bounds must be strictly increasing");
  }
  slots_ = std::make_unique<Slot[]>(num_slots_);
  for (std::size_t i = 0; i < num_slots_; ++i) {
    slots_[i].buckets.assign(bounds_.size() + 1, 0);
  }
}

void SlidingWindowHistogram::observe(double v) { observe(v, monotonic_us()); }

void SlidingWindowHistogram::observe(double v, std::uint64_t now_us) {
  const std::uint64_t interval = now_us / slot_us_;
  Slot& slot = slots_[interval % num_slots_];
  const std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.interval != interval) {
    // The slot still holds a rotated-out interval: lazily recycle it.
    slot.interval = interval;
    std::fill(slot.buckets.begin(), slot.buckets.end(), 0);
    slot.count = 0;
    slot.sum = 0.0;
    slot.min = std::numeric_limits<double>::infinity();
    slot.max = -std::numeric_limits<double>::infinity();
  }
  slot.buckets[idx] += 1;
  slot.count += 1;
  slot.sum += v;
  slot.min = std::min(slot.min, v);
  slot.max = std::max(slot.max, v);
}

SlidingWindowHistogram::Snapshot SlidingWindowHistogram::snapshot() const {
  return snapshot(monotonic_us());
}

SlidingWindowHistogram::Snapshot SlidingWindowHistogram::snapshot(
    std::uint64_t now_us) const {
  Snapshot out;
  out.bounds = bounds_;
  out.buckets.assign(bounds_.size() + 1, 0);
  const std::uint64_t current = now_us / slot_us_;
  // Live intervals are [current - slots + 1, current]; anything older has
  // expired even if no writer has recycled its slot yet.
  const std::uint64_t oldest =
      current >= num_slots_ - 1 ? current - (num_slots_ - 1) : 0;
  for (std::size_t i = 0; i < num_slots_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.interval < oldest || slot.interval > current || slot.count == 0) {
      continue;
    }
    for (std::size_t b = 0; b < out.buckets.size(); ++b) {
      out.buckets[b] += slot.buckets[b];
    }
    out.count += slot.count;
    out.sum += slot.sum;
    out.min = std::min(out.min, slot.min);
    out.max = std::max(out.max, slot.max);
  }
  return out;
}

double SlidingWindowHistogram::Snapshot::quantile(double q) const {
  return bucket_quantile(bounds, buckets, count, min, max, q);
}

void SlidingWindowHistogram::Snapshot::merge(const Snapshot& other) {
  if (buckets.empty()) {
    bounds = other.bounds;
    buckets.assign(other.buckets.size(), 0);
  } else if (bounds != other.bounds) {
    throw std::invalid_argument(
        "SlidingWindowHistogram: merging snapshots with different bounds");
  }
  for (std::size_t b = 0; b < other.buckets.size(); ++b) {
    buckets[b] += other.buckets[b];
  }
  count += other.count;
  sum += other.sum;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

}  // namespace taamr::obs
