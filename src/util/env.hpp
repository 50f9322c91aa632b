// Integer environment knobs, parsed one way everywhere.
#pragma once

#include <cstdint>
#include <limits>

namespace taamr {

// Reads `name` as a whole base-10 integer. Unset or empty -> `fallback`,
// silently. A malformed value (trailing junk, not a number) or one below
// `min_value` -> `fallback`, with one stderr line
// "taamr: ignoring invalid NAME=VALUE (using FALLBACK)".
std::int64_t env_int64(const char* name, std::int64_t fallback,
                       std::int64_t min_value = std::numeric_limits<std::int64_t>::min());

}  // namespace taamr
