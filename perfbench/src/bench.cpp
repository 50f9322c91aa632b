#include "bench.hpp"

#include <immintrin.h>
#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <ctime>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/procstat.hpp"

namespace perfbench {

void Outcome::check(const std::string& defect) {
  ++attempted;
  if (defect.empty()) return;
  ++failed;
  if (defects.size() < 10) defects.push_back(defect);
}

void Outcome::add(std::string name, double value, std::string unit, std::size_t samples,
                  std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

namespace {

struct Spinners {
  std::mutex mutex;
  std::vector<std::thread> threads;
  std::vector<clockid_t> clocks;
  std::atomic<bool> stop{false};
  double retired_cpu_s = 0.0;  // CPU time of spinners already joined
};

Spinners& spinners() {
  static Spinners s;
  return s;
}

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

IdleSpinners::IdleSpinners() {
  Spinners& s = spinners();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!s.threads.empty()) throw std::logic_error("IdleSpinners: already running");
  s.stop.store(false);
  for (unsigned i = 0; i < host_threads(); ++i) {
    s.threads.emplace_back([&s] {
      const sched_param param{0};
      sched_setscheduler(0, SCHED_IDLE, &param);  // this thread only
      while (!s.stop.load(std::memory_order_relaxed)) _mm_pause();
    });
    clockid_t clock{};
    pthread_getcpuclockid(s.threads.back().native_handle(), &clock);
    s.clocks.push_back(clock);
  }
}

IdleSpinners::~IdleSpinners() {
  Spinners& s = spinners();
  std::lock_guard<std::mutex> lock(s.mutex);
  s.stop.store(true);
  for (std::size_t i = 0; i < s.threads.size(); ++i) {
    s.retired_cpu_s += clock_s(s.clocks[i]);  // readable until joined
    s.threads[i].join();
  }
  s.threads.clear();
  s.clocks.clear();
}

double process_cpu_s() {
  Spinners& s = spinners();
  std::lock_guard<std::mutex> lock(s.mutex);
  double spin = s.retired_cpu_s;
  for (const clockid_t clock : s.clocks) spin += clock_s(clock);
  return clock_s(CLOCK_PROCESS_CPUTIME_ID) - spin;
}

unsigned host_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

double peak_rss_mib() {
  return static_cast<double>(taamr::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
