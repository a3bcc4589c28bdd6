// FNV-1a hashing for the pinned-decision tests: a refactor must leave
// every byte of a decision trace where it was, so those tests compare a
// 64-bit hash of the trace against a value recorded once.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace omflp {

/// FNV-1a 64 over `text`, continuing from `h`.
inline std::uint64_t fnv1a(std::string_view text,
                           std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::string hex(std::uint64_t h) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, h);
  return buf;
}

}  // namespace omflp
