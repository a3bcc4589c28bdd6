// Deterministic fault injection for the sharded serving engine.
//
// A FaultPlan is parsed from a compact spec string
// (`crashes=2,seed=7,gap=8,torn=1,bitflip=1`) and pre-computes an
// absolute crash schedule: crash round k is the cumulative sum of k+1
// seeded uniform draws from [1, gap]. The engine consults the plan after
// each round's checkpoint publication; on a scheduled round it throws
// EngineCrash — after optionally damaging the just-published generation
// (torn: cut a tenant's section before its checksum line; bitflip: flip
// one payload bit), which forces recovery to reject that generation and
// fall back to the previous one.
//
// Everything is a pure function of the spec, so a fault run is exactly
// reproducible: same spec + same workload -> same crashes, same
// corruption, same recovery path. That is what lets the harness assert
// *bitwise* identity between a crashed-and-recovered run and an
// uninterrupted one.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace omflp {

class CheckpointStore;

/// Thrown by the engine at an injected crash point. Carries the round so
/// the driver can log the restart boundary.
struct EngineCrash : std::runtime_error {
  explicit EngineCrash(std::uint64_t crash_round)
      : std::runtime_error("injected crash after round " +
                           std::to_string(crash_round)),
        round(crash_round) {}
  std::uint64_t round;
};

class FaultPlan {
 public:
  /// Parse `crashes=N,seed=S,gap=G,torn=0|1,bitflip=0|1` (keys optional,
  /// any order; defaults crashes=1, seed=1, gap=8, torn=0, bitflip=0).
  /// Throws std::invalid_argument on unknown keys, malformed values,
  /// or gap=0.
  static FaultPlan parse(const std::string& spec);

  /// Absolute engine rounds at which crashes fire, ascending.
  const std::vector<std::uint64_t>& crash_rounds() const noexcept {
    return crash_rounds_;
  }
  bool torn() const noexcept { return torn_; }
  bool bitflip() const noexcept { return bitflip_; }

  /// True when a not-yet-consumed crash is scheduled at or before
  /// `round`; consumes it. ("At or before" so a restart that resumes
  /// past a scheduled round cannot stall the schedule.)
  bool should_crash(std::uint64_t round);

  std::size_t crashes_remaining() const noexcept {
    return crash_rounds_.size() - next_;
  }

  /// Damage the newest published generation per the torn/bitflip flags:
  /// torn truncates the generation halfway through tenant 0's section,
  /// before its checksum line; bitflip flips one bit mid-payload of the
  /// last tenant's section. No-op when both flags are off or the store
  /// has no valid generation.
  void corrupt_latest(CheckpointStore& store) const;

 private:
  FaultPlan() = default;

  std::vector<std::uint64_t> crash_rounds_;
  bool torn_ = false;
  bool bitflip_ = false;
  std::size_t next_ = 0;
};

}  // namespace omflp
