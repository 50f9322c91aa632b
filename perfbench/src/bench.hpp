// What one benchmark run produces, and the few process probes every
// workload shares.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  // how many measurements the value rests on
  std::string note;         // e.g. which percentile a tail value is
};

struct Outcome {
  std::uint64_t attempted = 0;  // operations: grid checks, requests, updates
  std::uint64_t failed = 0;     // operations that errored or answered wrongly
  std::vector<std::string> defects;  // first few failure descriptions
  std::vector<Metric> metrics;
  std::vector<std::string> lines;    // extra human-readable report lines

  // Counts one operation; `defect` non-empty marks it failed.
  void check(const std::string& defect);
  void add(std::string name, double value, std::string unit, std::size_t samples,
           std::string note = "");
  bool correct() const { return failed == 0; }
};

// Settings shared by every workload, all from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Process CPU seconds (user + system) so far, without the idle spinners'.
double process_cpu_s();
// Hardware threads of the host (at least 1).
unsigned host_threads();
// Peak resident set size of the process in MiB.
double peak_rss_mib();

// One busy thread per hardware thread at the SCHED_IDLE policy, for the
// lifetime of the object. A vCPU with nothing to run halts, and waking a
// thread on a halted vCPU goes through the hypervisor: on a shared VM that
// takes from ~50 us to several milliseconds depending on what the host is
// doing, which made every timing track the host's state. A spinner keeps
// its vCPU running; any program thread that wakes preempts it at once,
// since SCHED_IDLE yields to every other policy.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;
};

Outcome run_paper_grid(const RunOptions& options);

// serve_read, or serve_swap when options.workload says so.
Outcome run_serve(const RunOptions& options);

}  // namespace perfbench
