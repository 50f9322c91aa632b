#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

// Each thread appends to its own buffer under the buffer's own lock, which
// only collect_spans() ever contends for.
struct Buffer {
  std::mutex mutex;
  std::vector<Span> spans;
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<Buffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

void append(const Span& span) {
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto b = std::make_shared<Buffer>();
    b->spans.reserve(4096);
    std::lock_guard<std::mutex> lock(registry().mutex);
    registry().buffers.push_back(b);
    return b;
  }();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->spans.push_back(span);
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void enable_spans() { g_enabled.store(true); }
bool spans_enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint32_t next_span_id() { return g_next_id.fetch_add(1, std::memory_order_relaxed); }

void record_span_with_id(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                         std::uint32_t id, std::uint32_t parent, std::uint64_t request) {
  if (spans_enabled()) append({name, start_ns, end_ns, id, parent, request});
}

void record_span(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                 std::uint32_t parent, std::uint64_t request) {
  if (spans_enabled()) append({name, start_ns, end_ns, next_span_id(), parent, request});
}

std::vector<Span> collect_spans() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(registry().mutex);
  for (const auto& b : registry().buffers) {
    std::lock_guard<std::mutex> buffer_lock(b->mutex);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

void write_spans(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span log " + path);
  for (const Span& s : collect_spans()) {
    os << "{\"name\":\"" << taamr::obs::json::escape(s.name) << "\",\"start_ns\":"
       << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}\n";
  }
  os.flush();
  if (!os) throw std::runtime_error("write failed for span log " + path);
}

}  // namespace perfbench
