// ScenarioRegistry — named, parameterized workload factories.
//
// A scenario is a declarative description of a workload: a name, a set of
// numeric parameters with defaults, and a factory that turns (parameters,
// seed) into a self-contained Instance. Scenarios are deterministic
// functions of their parameters and the seed, so every run is exactly
// reproducible and sweeps parallelize trivially.
//
// Registering a new scenario takes a handful of lines:
//
//   registry.add({
//       .name = "my-workload",
//       .description = "requests on a ring, say",
//       .params = {{"requests", 64, "number of requests"}},
//       .make = [](const ScenarioParams& p, std::uint64_t seed) {
//         Rng rng(seed);
//         return make_my_workload(p.size_t_at("requests"), rng);
//       }});
//
// default_scenario_registry() ships every built-in workload: the uniform /
// clustered / zooming / service-network / single-point generators, the
// shared-demand and heavy-tail stress workloads, and the paper's
// adversarial lower-bound sequences (Theorem 2 = Figure 1's game,
// Theorem 18) plus the Figure 3 connection-choice scenario.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "instance/instance.hpp"
#include "scenario/registry_util.hpp"

namespace omflp {

/// One declared scenario parameter: name, default value, documentation.
/// All parameters are doubles; integral and boolean parameters are
/// declared with integral defaults and read back via size_t_at / bool_at.
struct ScenarioParam {
  std::string name;
  double value = 0.0;
  std::string description;
};

/// The resolved parameter bag handed to a scenario factory: every declared
/// parameter is present (default or override). Lookup of an undeclared
/// name throws — that is a bug in the factory, not user input.
class ScenarioParams {
 public:
  explicit ScenarioParams(std::map<std::string, double> values = {})
      : values_(std::move(values)) {}

  double at(const std::string& name) const;
  /// Non-negative integral value; throws on fractional / negative values
  /// and on magnitudes beyond 2^53 (not exactly representable — the cast
  /// would be undefined or lossy).
  std::size_t size_t_at(const std::string& name) const;
  /// Like size_t_at, additionally bounded to the CommodityId range.
  CommodityId commodity_at(const std::string& name) const;
  bool bool_at(const std::string& name) const { return at(name) != 0.0; }

  bool contains(const std::string& name) const {
    return values_.count(name) != 0;
  }
  const std::map<std::string, double>& values() const noexcept {
    return values_;
  }

 private:
  std::map<std::string, double> values_;
};

/// Merge `overrides` into the declared defaults. Strict mode throws on an
/// override the scenario does not declare; lenient mode drops it (the
/// right semantics when one override set is applied across a sweep of
/// heterogeneous scenarios). Shared by the instance and stream scenario
/// registries (scenario/stream_registry.hpp).
ScenarioParams resolve_scenario_params(
    const std::string& scenario_name,
    const std::vector<ScenarioParam>& declared,
    const std::map<std::string, double>& overrides, bool strict);

/// Every location-ambivalent scenario, static or streamed, prices
/// facilities with the paper's class C: g_x(k) = scale·k^{x/2}. The two
/// knobs (cost_exponent, cost_scale) are declared on each scenario so
/// sweeps can move along the cost-class axis; poly_cost() builds the
/// model they declare.
std::vector<ScenarioParam> cost_params(double scale);
CostModelPtr poly_cost(const ScenarioParams& p, CommodityId commodities);
/// Appends `extra` to a scenario's declared parameters.
void append(std::vector<ScenarioParam>& params,
            std::vector<ScenarioParam> extra);

struct ScenarioSpec {
  std::string name;
  std::string description;
  std::vector<ScenarioParam> params;
  std::function<Instance(const ScenarioParams&, std::uint64_t seed)> make;
};

class ScenarioRegistry : public Registry<ScenarioSpec> {
 public:
  ScenarioRegistry()
      : Registry({"ScenarioRegistry", "scenario", "scenario", "scenarios"}) {}

  /// Instantiate a scenario: merge `overrides` into the declared defaults
  /// (throwing on an override the scenario does not declare) and invoke
  /// the factory. The result is a deterministic function of
  /// (name, overrides, seed).
  Instance make(const std::string& name, std::uint64_t seed,
                const std::map<std::string, double>& overrides = {}) const;

  /// Like make(), but silently ignores override keys the scenario does not
  /// declare — the right semantics when one override set is applied across
  /// a sweep of heterogeneous scenarios.
  Instance make_lenient(const std::string& name, std::uint64_t seed,
                        const std::map<std::string, double>& overrides) const;
};

/// The registry with every built-in scenario registered (shared,
/// initialized on first use, safe for concurrent readers).
const ScenarioRegistry& default_scenario_registry();

}  // namespace omflp
