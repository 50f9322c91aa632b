#include "util/env.hpp"

#include <cstdio>
#include <cstdlib>

namespace taamr {

std::int64_t env_int64(const char* name, std::int64_t fallback, std::int64_t min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || v < min_value) {
    std::fprintf(stderr, "taamr: ignoring invalid %s=%s (using %lld)\n", name, raw,
                 static_cast<long long>(fallback));
    return fallback;
  }
  return static_cast<std::int64_t>(v);
}

}  // namespace taamr
