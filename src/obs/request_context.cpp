#include "obs/request_context.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace taamr::obs {

std::uint64_t next_request_id() {
  static const std::uint64_t pid_bits = static_cast<std::uint64_t>(::getpid())
                                        << 32;
  static std::atomic<std::uint64_t> seq{0};
  return pid_bits | (seq.fetch_add(1, std::memory_order_relaxed) & 0xffffffffu);
}

RequestContext::RequestContext()
    : id_(next_request_id()), start_us_(monotonic_us()), last_us_(start_us_) {}

void RequestContext::mark(const char* stage) {
  const std::uint64_t now = monotonic_us();
  stages_.emplace_back(stage, now - last_us_);
  last_us_ = now;
}

void RequestContext::add_stage(const char* stage, std::uint64_t dur_us) {
  stages_.emplace_back(stage, dur_us);
}

std::uint64_t RequestContext::total_us() const {
  return monotonic_us() - start_us_;
}

void RequestContext::publish() const {
  // Stage names are string literals, so a thread resolves each name's
  // histogram once instead of taking the registry lock on every request
  // (instruments live as long as the registry, i.e. the process).
  thread_local std::vector<std::pair<const char*, Histogram*>> resolved;
  for (const auto& [stage, dur_us] : stages_) {
    auto it = std::find_if(resolved.begin(), resolved.end(),
                           [stage](const auto& r) { return r.first == stage; });
    if (it == resolved.end()) {
      resolved.emplace_back(stage, &MetricsRegistry::global().histogram(
                                       "serve_stage_seconds", {{"stage", stage}}));
      it = resolved.end() - 1;
    }
    it->second->observe(static_cast<double>(dur_us) * 1e-6);
  }
}

std::string RequestContext::debug_json() const {
  std::ostringstream os;
  // The id is rendered as a string: 52-bit JSON doubles cannot hold
  // pid<<32|seq exactly for large pids.
  os << "{\"request_id\":\"" << id_ << "\",\"total_us\":" << total_us()
     << ",\"stages\":{";
  bool first = true;
  for (const auto& [stage, dur_us] : stages_) {
    if (!first) os << ',';
    first = false;
    os << '"' << stage << "\":" << dur_us;
  }
  os << "}}";
  return os.str();
}

}  // namespace taamr::obs
