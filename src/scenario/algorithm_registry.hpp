// AlgorithmRegistry — named OnlineAlgorithm factories.
//
// Maps a stable string name to a factory `seed -> unique_ptr<algorithm>`.
// Deterministic algorithms ignore the seed; randomized ones derive their
// coin flips from it, so a (name, seed) pair always reproduces the same
// run. default_algorithm_registry() ships the full roster: the paper's
// PD-OMFLP (plus its no-prediction and seen-union ablations), RAND-OMFLP,
// the per-commodity Fotakis / Meyerson baselines, and the greedy
// strawmen — the single source of truth the benches, examples, the omflp
// CLI and the sweep driver all share.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/online_algorithm.hpp"
#include "scenario/registry_util.hpp"

namespace omflp {

struct AlgorithmSpec {
  std::string name;
  std::string description;
  /// True when two runs with different seeds may differ.
  bool randomized = false;
  std::function<std::unique_ptr<OnlineAlgorithm>(std::uint64_t seed)> make;
};

class AlgorithmRegistry : public Registry<AlgorithmSpec> {
 public:
  AlgorithmRegistry()
      : Registry({"AlgorithmRegistry", "algorithm", "algorithm",
                  "algorithms"}) {}

  std::unique_ptr<OnlineAlgorithm> make(const std::string& name,
                                        std::uint64_t seed = 1) const;
};

/// The registry with the standard roster registered (shared, initialized
/// on first use, safe for concurrent readers).
const AlgorithmRegistry& default_algorithm_registry();

}  // namespace omflp
