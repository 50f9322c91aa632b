// perfbench: runs one benchmark workload and reports it.
//
//   perfbench --workload paper_grid|serve_read|serve_swap --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Prints one line per metric (value, unit, sample count), then, as the last
// line, a JSON object with the workload, the correctness verdict, the
// attempted/failed operation counts and every metric. The same object goes
// to DIR/<workload>-seed<N>-trace<T>-<start ns>.json, one file per run, so
// repeated runs of one seed are all kept; a traced run also writes its spans
// to the same stem with .spans.jsonl. Exit code 0 means the run completed
// (its verdict is in the JSON), 2 a usage error, 1 a crash.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "obs/json.hpp"
#include "spans.hpp"
#include "util/args.hpp"

namespace {

using namespace perfbench;

std::string to_json(const RunOptions& run, const Outcome& o) {
  using taamr::obs::json::escape;
  std::ostringstream os;
  os << "{\"workload\":\"" << escape(run.workload) << "\",\"seed\":" << run.seed
     << ",\"trace\":" << (run.trace ? 1 : 0) << ",\"correct\":" << (o.correct() ? "true" : "false")
     << ",\"attempted\":" << o.attempted << ",\"failed\":" << o.failed << ",\"defects\":[";
  for (std::size_t i = 0; i < o.defects.size(); ++i) {
    os << (i ? "," : "") << "\"" << escape(o.defects[i]) << "\"";
  }
  os << "],\"notes\":[";
  for (std::size_t i = 0; i < o.lines.size(); ++i) {
    os << (i ? "," : "") << "\"" << escape(o.lines[i]) << "\"";
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    // Full precision: %.17g, not the 9-digit obs writer form.
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    os << (i ? "," : "") << "\"" << escape(m.name) << "\":{\"value\":" << value
       << ",\"unit\":\"" << escape(m.unit) << "\",\"samples\":" << m.samples << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions run;
  std::filesystem::path out_dir;
  try {
    taamr::ArgParser args(argc, argv);
    run.workload = args.get("workload");
    run.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    run.seconds = args.get_double("seconds", 10.0);
    run.trace = args.get_int("trace", 0) != 0;
    out_dir = args.get("out");
    if (run.workload != "paper_grid" && run.workload != "serve_read" &&
        run.workload != "serve_swap") {
      throw std::invalid_argument("unknown workload '" + run.workload + "'");
    }
    if (!(run.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    for (const std::string& flag : args.unused()) {
      throw std::invalid_argument("unknown flag --" + flag);
    }
    // Fail now, not after the run, if the output cannot be written.
    std::filesystem::create_directories(out_dir);
    const std::filesystem::path probe = out_dir / ".write_probe";
    std::ofstream(probe) << "ok\n";
    if (!std::filesystem::exists(probe)) {
      throw std::invalid_argument("output directory " + out_dir.string() + " is not writable");
    }
    std::filesystem::remove(probe);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  try {
    // Wall-clock start of the run: names its files apart from every other
    // run of the same seed.
    const auto started_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::system_clock::now().time_since_epoch())
                                .count();
    const Outcome outcome = [&run] {
      const IdleSpinners spinners;
      return run.workload == "paper_grid" ? run_paper_grid(run) : run_serve(run);
    }();
    for (const std::string& line : outcome.lines) std::cout << line << "\n";
    for (const Metric& m : outcome.metrics) {
      std::cout << m.name << " = " << taamr::obs::json::number(m.value) << " " << m.unit
                << " (n=" << m.samples << (m.note.empty() ? "" : ", " + m.note) << ")\n";
    }
    std::cout << "operations: " << outcome.attempted << " attempted, " << outcome.failed
              << " failed; verdict " << (outcome.correct() ? "correct" : "INCORRECT") << "\n";
    for (const std::string& d : outcome.defects) std::cout << "defect: " << d << "\n";

    const std::string stem = run.workload + "-seed" + std::to_string(run.seed) + "-trace" +
                             (run.trace ? "1" : "0") + "-" + std::to_string(started_ns);
    const std::string json = to_json(run, outcome);
    std::ofstream(out_dir / (stem + ".json")) << json << "\n";
    if (run.trace) write_spans((out_dir / (stem + ".spans.jsonl")).string());
    std::cout << json << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
