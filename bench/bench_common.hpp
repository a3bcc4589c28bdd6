// Shared helpers for the experiment binaries: standard algorithm rosters
// and ratio measurement over seeded trials.
#pragma once

#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/competitive.hpp"
#include "analysis/experiment.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "cost/cost_models.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/scenario_registry.hpp"

namespace omflp::bench {

/// Mean competitive ratio of `make_algorithm(seed)` on `make_instance(seed)`
/// over `trials` seeds, trials running in parallel.
inline Summary ratio_over_trials(
    std::size_t trials,
    const std::function<Instance(std::uint64_t)>& make_instance,
    const std::function<std::unique_ptr<OnlineAlgorithm>(std::uint64_t)>&
        make_algorithm,
    const OptEstimateOptions& opt_options = {}) {
  return run_trials(trials, [&](std::size_t trial) {
    const Instance instance = make_instance(trial);
    auto algorithm = make_algorithm(trial);
    return measure_ratio(*algorithm, instance, opt_options).ratio;
  });
}

/// Roster entry point: mean ratio of the registry algorithm `name` (see
/// scenario/algorithm_registry.hpp for the roster) on `make_instance(seed)`
/// over `trials` seeds. Replaces the per-bench algorithm-construction
/// lambdas; randomized algorithms derive their coins from the trial index
/// through derive_algorithm_seed, decorrelated from the instance stream.
inline Summary ratio_for(
    const std::string& algorithm_name, std::size_t trials,
    const std::function<Instance(std::uint64_t)>& make_instance,
    const OptEstimateOptions& opt_options = {}) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  return ratio_over_trials(
      trials, make_instance,
      [&registry, &algorithm_name](std::uint64_t seed) {
        return registry.make(algorithm_name, derive_algorithm_seed(seed));
      },
      opt_options);
}

/// Roster entry point over a registered scenario: the instance for trial t
/// is `scenario` instantiated with seed seed_base + t and `overrides`.
inline Summary ratio_for_scenario(
    const std::string& algorithm_name, const std::string& scenario,
    std::size_t trials, const std::map<std::string, double>& overrides = {},
    std::uint64_t seed_base = 1,
    const OptEstimateOptions& opt_options = {}) {
  const ScenarioRegistry& scenarios = default_scenario_registry();
  return ratio_for(
      algorithm_name, trials,
      [&scenarios, &scenario, &overrides, seed_base](std::uint64_t seed) {
        return scenarios.make(scenario, seed_base + seed, overrides);
      },
      opt_options);
}

/// "mean ± half-width" cell for result tables.
inline std::string mean_ci(const Summary& summary) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f ± %.3f", summary.mean(),
                summary.ci95_halfwidth());
  return buffer;
}

}  // namespace omflp::bench
