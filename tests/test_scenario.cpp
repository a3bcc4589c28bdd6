// Tests for the scenario subsystem: registry lookup and unknown-name
// errors, scenario determinism, sweep determinism across thread counts,
// instance trace write -> replay round-trips, and pinned hashes of every
// generated stream and workload mix.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "analysis/competitive.hpp"
#include "core/online_algorithm.hpp"
#include "instance/io.hpp"
#include "instance/stream_io.hpp"
#include "pinned_hash.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "scenario/sweep.hpp"

namespace omflp {
namespace {

// ------------------------------------------------------------ registries ---

TEST(ScenarioRegistry, DefaultContainsBuiltins) {
  const ScenarioRegistry& registry = default_scenario_registry();
  for (const char* name :
       {"uniform-line", "clustered", "zooming", "service-network",
        "single-point-mixed", "shared-demand", "heavy-tail", "theorem2",
        "theorem18", "figure3"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_EQ(registry.spec(name).name, name);
  }
  EXPECT_GE(registry.size(), 10u);
}

TEST(ScenarioRegistry, UnknownNameThrowsListingKnown) {
  const ScenarioRegistry& registry = default_scenario_registry();
  EXPECT_FALSE(registry.contains("no-such-scenario"));
  try {
    registry.spec("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    EXPECT_NE(what.find("uniform-line"), std::string::npos)
        << "error should list the known names: " << what;
  }
  EXPECT_THROW(registry.make("no-such-scenario", 1), std::invalid_argument);
}

TEST(ScenarioRegistry, UndeclaredOverrideStrictVsLenient) {
  const ScenarioRegistry& registry = default_scenario_registry();
  EXPECT_THROW(registry.make("zooming", 1, {{"no_such_param", 3.0}}),
               std::invalid_argument);
  // make_lenient skips undeclared keys but applies declared ones.
  const Instance instance = registry.make_lenient(
      "zooming", 1, {{"no_such_param", 3.0}, {"requests", 17.0}});
  EXPECT_EQ(instance.num_requests(), 17u);
}

TEST(ScenarioRegistry, OverridesReachTheFactory) {
  const Instance instance = default_scenario_registry().make(
      "uniform-line", 3, {{"requests", 10.0}, {"commodities", 5.0}});
  EXPECT_EQ(instance.num_requests(), 10u);
  EXPECT_EQ(instance.num_commodities(), 5u);
  EXPECT_NO_THROW(instance.validate());
}

TEST(ScenarioRegistry, AddRejectsDuplicatesAndMissingFactory) {
  ScenarioRegistry registry;
  registry.add({.name = "w",
                .description = "d",
                .params = {},
                .make = [](const ScenarioParams&, std::uint64_t) {
                  return default_scenario_registry().make("figure3", 1);
                }});
  EXPECT_THROW(
      registry.add({.name = "w",
                    .description = "again",
                    .params = {},
                    .make = [](const ScenarioParams&, std::uint64_t) {
                      return default_scenario_registry().make("figure3", 1);
                    }}),
      std::invalid_argument);
  EXPECT_THROW(registry.add({.name = "x", .description = "no factory"}),
               std::invalid_argument);
}

TEST(ScenarioParams, IntegralValidation) {
  const ScenarioParams params(
      {{"n", 4.5}, {"k", -1.0}, {"m", 8.0}, {"huge", 1e30}, {"wide", 5e9}});
  EXPECT_EQ(params.size_t_at("m"), 8u);
  EXPECT_THROW(params.size_t_at("n"), std::invalid_argument);
  EXPECT_THROW(params.size_t_at("k"), std::invalid_argument);
  // Beyond 2^53 the double->size_t cast would be lossy or UB; reachable
  // from the CLI via --set requests=1e30.
  EXPECT_THROW(params.size_t_at("huge"), std::invalid_argument);
  EXPECT_EQ(params.commodity_at("m"), 8u);
  // Fits size_t but not CommodityId — must not silently truncate.
  EXPECT_THROW(params.commodity_at("wide"), std::invalid_argument);
  EXPECT_THROW(params.at("absent"), std::invalid_argument);
}

TEST(AlgorithmRegistry, DerivedSeedDecorrelatesCoinStream) {
  // Sweeps hand the workload seed to the scenario factory and the derived
  // seed to the algorithm; the two must never coincide, or a randomized
  // algorithm would replay the generator's exact draw sequence.
  for (const std::uint64_t seed : {0ull, 1ull, 2ull, 42ull, 1048576ull}) {
    EXPECT_NE(derive_algorithm_seed(seed), seed);
    EXPECT_EQ(derive_algorithm_seed(seed), derive_algorithm_seed(seed));
  }
}

TEST(AlgorithmRegistry, RosterAndUnknownName) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (const char* name : {"pd", "pd-nopred", "pd-seenunion", "rand",
                           "fotakis", "meyerson", "greedy", "rentbuy",
                           "alwaysopen"}) {
    ASSERT_TRUE(registry.contains(name)) << name;
    auto algorithm = registry.make(name, 7);
    ASSERT_NE(algorithm, nullptr) << name;
    EXPECT_FALSE(algorithm->name().empty());
  }
  EXPECT_THROW(registry.make("no-such-algorithm", 1),
               std::invalid_argument);
}

// ----------------------------------------------------------- determinism ---

TEST(ScenarioRegistry, SameSeedSameInstance) {
  const ScenarioRegistry& registry = default_scenario_registry();
  for (const char* name : {"uniform-line", "zooming", "theorem2"}) {
    const Instance a = registry.make(name, 42);
    const Instance b = registry.make(name, 42);
    EXPECT_EQ(instance_to_string(a), instance_to_string(b)) << name;
  }
  // Randomized scenarios actually consume the seed ("zooming" is a fixed
  // geometric construction and legitimately does not).
  for (const char* name : {"uniform-line", "theorem2", "service-network"}) {
    const Instance a = registry.make(name, 42);
    const Instance c = registry.make(name, 43);
    EXPECT_NE(instance_to_string(a), instance_to_string(c))
        << name << ": different seeds should differ";
  }
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  SweepOptions options;
  options.scenarios = {"single-point-mixed", "theorem2"};
  options.algorithms = {"pd", "rand"};
  options.seeds = 3;
  options.overrides = {{"commodities", 9.0}};

  options.threads = 1;
  const SweepResult serial = run_sweep(options);
  options.threads = 4;
  const SweepResult parallel = run_sweep(options);

  // The CSV carries wall-clock timing columns (wall_ms_mean,
  // requests_per_sec_mean) that legitimately differ run to run; strip
  // them (located by header name, robust to column reordering) and
  // compare everything else byte for byte.
  const auto strip_timing_columns = [](const std::string& csv) {
    std::istringstream lines(csv);
    std::ostringstream out;
    std::string line;
    std::set<std::size_t> timing_columns;
    bool header = true;
    while (std::getline(lines, line)) {
      std::istringstream fields(line);
      std::string field;
      std::size_t column = 0;
      while (std::getline(fields, field, ',')) {
        if (header &&
            (field == "wall_ms_mean" || field == "requests_per_sec_mean"))
          timing_columns.insert(column);
        if (!timing_columns.count(column)) out << field << ",";
        ++column;
      }
      if (header) EXPECT_EQ(timing_columns.size(), 2u);
      header = false;
      out << "\n";
    }
    return out.str();
  };
  std::ostringstream a, b;
  serial.write_csv(a);
  parallel.write_csv(b);
  EXPECT_EQ(strip_timing_columns(a.str()), strip_timing_columns(b.str()));

  // Re-running with the same options bit-reproduces every sample.
  const SweepResult again = run_sweep(options);
  for (std::size_t i = 0; i < again.cells().size(); ++i) {
    const auto lhs = parallel.cells()[i].ratio.samples();
    const auto rhs = again.cells()[i].ratio.samples();
    ASSERT_EQ(lhs.size(), rhs.size());
    for (std::size_t k = 0; k < lhs.size(); ++k)
      EXPECT_EQ(lhs[k], rhs[k]) << "cell " << i << " sample " << k;
  }
}

TEST(Sweep, CellGridAndErrors) {
  SweepOptions options;
  options.scenarios = {"figure3", "heavy-tail"};
  options.algorithms = {"pd", "greedy", "rand"};
  options.seeds = 2;
  const SweepResult result = run_sweep(options);
  EXPECT_EQ(result.cells().size(), 6u);  // one row per (scenario, algorithm)
  for (const SweepCell& cell : result.cells()) {
    EXPECT_EQ(cell.ratio.count(), 2u);
    EXPECT_GE(cell.ratio.min(), 1.0 - 1e-9)
        << cell.scenario << "/" << cell.algorithm
        << ": no algorithm can beat (an upper bound on) OPT by more than "
           "floating-point noise";
  }
  EXPECT_EQ(result.cell("figure3", "rand").algorithm, "rand");
  EXPECT_THROW(result.cell("figure3", "absent"), std::invalid_argument);

  options.algorithms = {"no-such-algorithm"};
  EXPECT_THROW(run_sweep(options), std::invalid_argument);
  options.algorithms = {"pd"};
  options.seeds = 0;
  EXPECT_THROW(run_sweep(options), std::invalid_argument);

  // An override no selected scenario declares is a typo, not leniency.
  options.seeds = 1;
  options.overrides = {{"comodities", 64.0}};
  EXPECT_THROW(run_sweep(options), std::invalid_argument);
}

// ------------------------------------------------------- trace round-trip ---

TEST(ScenarioTrace, WriteReplayRoundTripIsByteIdentical) {
  const ScenarioRegistry& registry = default_scenario_registry();
  // Every scenario priced by a serializable (size-only) cost model.
  for (const char* name : {"uniform-line", "clustered", "zooming",
                           "service-network", "single-point-mixed",
                           "shared-demand", "theorem2", "theorem18"}) {
    const Instance original = registry.make(name, 11);
    const std::string text = instance_to_string(original);
    const Instance reloaded = instance_from_string(text);
    EXPECT_EQ(instance_to_string(reloaded), text) << name;
  }
}

TEST(ScenarioTrace, ReplayReproducesTotalCostExactly) {
  const ScenarioRegistry& registry = default_scenario_registry();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  for (const char* algorithm_name : {"pd", "rand"}) {
    const Instance original = registry.make("uniform-line", 5);
    auto first = algorithms.make(algorithm_name, 5);
    const double original_cost =
        run_online(*first, original).total_cost();

    const Instance reloaded =
        instance_from_string(instance_to_string(original));
    auto second = algorithms.make(algorithm_name, 5);
    const double replayed_cost =
        run_online(*second, reloaded).total_cost();
    EXPECT_EQ(original_cost, replayed_cost) << algorithm_name;
  }
}

// ------------------------------------------------- pinned stream bytes ---

// The serialized bytes of every stream family, pinned. Generator speed-ups
// must leave each RNG draw, and so each byte, where it was; a changed hash
// means a changed workload, which is a behaviour change, not a refactor.
TEST(StreamScenarioBytes, EveryFamilyHashesToItsPinnedValue) {
  struct Case {
    const char* scenario;
    std::map<std::string, double> overrides;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const std::vector<Case> cases = {
      {"churn-uniform", {}, 3, 0xc9cc7ac26985f933ull},
      {"churn-uniform", {}, 17, 0xebd723cced56f285ull},
      {"churn-uniform", {{"popularity_exponent", 0}}, 3, 0xb355d9940c7a37ebull},
      {"churn-uniform", {{"popularity_exponent", 0}}, 17,
       0x0f05d05b252aba1bull},
      // A skew so steep that distinct draws run out: the uniform fill-up.
      {"churn-uniform", {{"popularity_exponent", 6}}, 3, 0xd441bd914fec115dull},
      // max_demand above |S| is clamped to |S|.
      {"churn-uniform", {{"commodities", 3}, {"max_demand", 5}}, 17,
       0x1e09595c37300236ull},
      {"adversarial-churn", {}, 3, 0xc1d2f37a6102960full},
      {"adversarial-churn", {}, 17, 0x306558a78047dd34ull},
      {"lease-poisson", {}, 3, 0xf9aea67204c9b70cull},
      {"lease-poisson", {}, 17, 0x472232582e777ce5ull},
      {"lease-poisson", {{"popularity_exponent", 0}}, 3, 0x6875074a12277422ull},
      {"lease-poisson", {{"popularity_exponent", 0}}, 17,
       0x80b768c9cea72d72ull},
      // hotspot-grid defaults to mean_lease 0: pinned arrivals.
      {"hotspot-grid", {}, 3, 0x9e05188c1282d8f2ull},
      {"hotspot-grid", {}, 17, 0x4b278605acb32265ull},
      {"hotspot-grid", {{"mean_lease", 128}}, 3, 0x5a5bc0f3fc0feacfull},
      {"hotspot-grid", {{"mean_lease", 128}}, 17, 0x1e283367abaf5214ull},
      {"hotspot-grid", {{"popularity_exponent", 0}, {"mean_lease", 16}},
       3, 0x2895e54854d03e26ull},
      {"hotspot-grid", {{"popularity_exponent", 0}}, 17, 0xc32990de1429cb52ull},
      {"hotspot-grid-capped", {}, 3, 0x7054693954da3d53ull},
      {"hotspot-grid-capped", {{"mean_lease", 128}}, 17, 0x1124bc184e2f6eefull},
  };
  const StreamScenarioRegistry& registry = default_stream_scenario_registry();
  for (const Case& c : cases) {
    const std::uint64_t h = fnv1a(event_stream_to_string(
        registry.make(c.scenario, c.seed, c.overrides)));
    std::string label = c.scenario;
    for (const auto& [key, value] : c.overrides)
      label += " " + key + "=" + std::to_string(value);
    EXPECT_EQ(hex(h), hex(c.hash)) << label << " seed " << c.seed;
  }
}

// Every tenant's name, seed and stream bytes of the three mixes at small
// scale, folded into one hash per (mix, seed).
TEST(StreamScenarioBytes, WorkloadMixTenantsHashToTheirPinnedValues) {
  struct Case {
    const char* mix;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const std::vector<Case> cases = {
      {"lease-heavy", 5, 0xdd30b902b513210full},
      {"lease-heavy", 41, 0x1726c0efd3723dceull},
      {"churn-heavy", 5, 0x910997e0dc1f1de9ull},
      {"churn-heavy", 41, 0x744fce386e0ccfc3ull},
      {"mixed", 5, 0xbb2e237118822b4bull},
      {"mixed", 41, 0xf87aa0793ee8c214ull},
  };
  const StreamScenarioRegistry& streams = default_stream_scenario_registry();
  for (const Case& c : cases) {
    std::uint64_t h = fnv1a("");
    for (const TenantSpec& tenant : default_workload_mix_registry().tenants(
             c.mix, /*count=*/6, c.seed, /*size_scale=*/0.25)) {
      h = fnv1a(tenant.name + " " + std::to_string(tenant.seed) + "\n", h);
      h = fnv1a(event_stream_to_string(
                    streams.make(tenant.scenario, tenant.seed,
                                 tenant.overrides)),
                h);
    }
    EXPECT_EQ(hex(h), hex(c.hash)) << c.mix << " seed " << c.seed;
  }
}

}  // namespace
}  // namespace omflp
