// In-memory span log for traced runs. Spans are recorded by the benchmark
// around its calls into the program (never inside it), kept per thread in
// memory, and written out once when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";      // string literal
  std::uint64_t start_ns = 0; // steady clock
  std::uint64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // request id shared by a request's spans; 0 = none
};

std::uint64_t now_ns();

// Global on/off switch; off by default, and recording is a no-op while off.
void enable_spans();
bool spans_enabled();

// Records a finished span with explicit times (e.g. a request timed from
// its scheduled send). No-op while spans are off.
void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint32_t parent = 0, std::uint64_t request = 0);

// A fresh span id, for a span whose children are recorded before it.
std::uint32_t next_span_id();

// Records a finished span under an id from next_span_id(). No-op while
// spans are off.
void record_span_with_id(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                         std::uint32_t id, std::uint32_t parent, std::uint64_t request);

// Every span recorded so far, from all threads.
std::vector<Span> collect_spans();

// Writes the spans as JSON lines: name, start_ns, end_ns, id, parent,
// request. Throws std::runtime_error when the file cannot be written.
void write_spans(const std::string& path);

}  // namespace perfbench
