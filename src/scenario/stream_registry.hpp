// StreamScenarioRegistry — named, parameterized dynamic-workload
// factories, the EventStream counterpart of ScenarioRegistry.
//
// A stream scenario turns (parameters, seed) into a self-contained
// EventStream — arrivals, explicit departures and leases — so dynamic
// runs are exactly as reproducible as static ones. The registries share
// the ScenarioParams machinery (declaration, defaults, strict override
// resolution).
//
// default_stream_scenario_registry() ships four built-in families — the
// deletion-model workloads of Cygan–Czumaj–Jiang–Krauthgamer / Markarian
// et al. plus a planar hotspot workload:
//   * churn-uniform    — uniform-line arrivals with a churn-heavy
//                        departure process (each event deletes a random
//                        active request with probability `churn`);
//   * adversarial-churn — insert-then-delete phases echoing the Figure 1
//                        / Theorem 2 game: each phase replays the
//                        adversarial sequence, then deletes everything
//                        but its last request, so the surviving set (and
//                        OPT on it) stays tiny while the algorithm keeps
//                        paying;
//   * lease-poisson    — pure lease-expiry traffic: every event is an
//                        arrival with a memoryless (exponential) lease,
//                        the stream analogue of Poisson call durations;
//   * hotspot-grid     — arrivals on a 2-D Euclidean grid clustered
//                        around Zipf-weighted hotspots, with both churn
//                        deletions and optional exponential leases (the
//                        planar "city traffic" shape).
//
// The bottom half of this header is the **workload-mix** layer consumed
// by the sharded serving engine (engine/sharded_engine.hpp): a TenantSpec
// names one tenant's (stream scenario, overrides, seed, algorithm), a
// WorkloadMixSpec is a named recipe of weighted tenant profiles with a
// Zipf hotness exponent, and WorkloadMixRegistry::tenants() expands a mix
// into K concrete tenant specs — heterogeneous scenarios, metrics and
// churn profiles, with per-tenant volume skewed so the first few tenants
// (and therefore the first few shards under round-robin placement) carry
// most of the traffic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "instance/event_stream.hpp"
#include "scenario/scenario_registry.hpp"

namespace omflp {

struct StreamScenarioSpec {
  std::string name;
  std::string description;
  std::vector<ScenarioParam> params;
  std::function<EventStream(const ScenarioParams&, std::uint64_t seed)>
      make;
};

class StreamScenarioRegistry : public Registry<StreamScenarioSpec> {
 public:
  StreamScenarioRegistry()
      : Registry({"StreamScenarioRegistry", "scenario", "stream scenario",
                  "stream scenarios"}) {}

  /// Instantiate: merge `overrides` into the declared defaults (throwing
  /// on an undeclared override) and invoke the factory. Deterministic in
  /// (name, overrides, seed); the returned stream is validated.
  EventStream make(const std::string& name, std::uint64_t seed,
                   const std::map<std::string, double>& overrides = {}) const;
};

/// The registry with every built-in dynamic workload registered (shared,
/// initialized on first use, safe for concurrent readers).
const StreamScenarioRegistry& default_stream_scenario_registry();

// ---------------------------------------------------------------- mixes ---

/// One tenant of a multi-tenant serving run: which stream scenario it
/// plays, with which overrides and seed, and which algorithm serves it.
/// The engine treats each tenant as a fully independent session.
struct TenantSpec {
  std::string name;      // unique display name, e.g. "t03-lease-poisson"
  std::string scenario;  // StreamScenarioRegistry name
  std::map<std::string, double> overrides;
  std::uint64_t seed = 1;
  std::string algorithm = "pd";  // AlgorithmRegistry name
};

/// One weighted entry of a workload mix. `size_param` is the scenario
/// override that scales the tenant's volume (usually "events"; "phases"
/// for adversarial-churn), set to `base_size` for the hottest tenant and
/// Zipf-decayed for colder ones (never below `min_size`).
struct TenantProfile {
  std::string scenario;
  std::map<std::string, double> overrides;
  double weight = 1.0;
  std::string size_param = "events";
  double base_size = 4096;
  double min_size = 64;
};

struct WorkloadMixSpec {
  std::string name;
  std::string description;
  std::vector<TenantProfile> profiles;
  /// Zipf exponent of per-tenant volume: tenant i carries a
  /// (i+1)^-hotness share of the hottest tenant's size. 0 = uniform.
  double hotness = 1.1;
};

/// Named recipes for heterogeneous multi-tenant workloads, the
/// `omflp serve --mix` catalog.
class WorkloadMixRegistry : public Registry<WorkloadMixSpec> {
 public:
  WorkloadMixRegistry()
      : Registry({"WorkloadMixRegistry", "mix", "workload mix", "mixes"}) {}

  /// Registers a mix; throws std::invalid_argument on an empty or
  /// duplicate name, an empty or non-positive-weight profile list, or an
  /// unknown scenario name in a profile.
  void add(WorkloadMixSpec spec);

  /// Expand a mix into `count` concrete tenants: profile drawn by weight,
  /// volume Zipf-decayed by tenant rank (then scaled by `size_scale` —
  /// tests and CI smoke runs shrink workloads with it), per-tenant seeds
  /// derived from `seed`. Deterministic in (name, count, seed,
  /// size_scale). Every tenant's algorithm is the default "pd"; callers
  /// reassign it wholesale (the serve CLI's --algorithm).
  std::vector<TenantSpec> tenants(const std::string& name, std::size_t count,
                                  std::uint64_t seed,
                                  double size_scale = 1.0) const;
};

/// The registry with every built-in workload mix registered (shared,
/// initialized on first use, safe for concurrent readers).
const WorkloadMixRegistry& default_workload_mix_registry();

}  // namespace omflp
