// now_ns() — the one steady-clock read behind every wall-time figure
// (stream run_ns, engine setup/batch/wall times, telemetry ticks, bench
// timers).
#pragma once

#include <chrono>
#include <cstdint>

namespace omflp {

/// Monotonic nanoseconds since an arbitrary epoch; only differences of
/// two reads mean anything.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace omflp
