// Metamorphic test harness: random instances checked against invariance
// relations between runs (tests/metamorphic_common.hpp generates the
// instances):
//
//   * uniform scaling — the OMFLP objective is 1-homogeneous, so scaling
//     every distance and opening cost by a power-of-two λ must scale
//     every algorithm's cost by exactly λ, bitwise (power-of-two factors
//     only touch floating-point exponents, so every comparison inside
//     the algorithms is preserved verbatim);
//   * commodity-permutation equivariance — relabeling commodities (and
//     moving the per-commodity linear weights with them) yields an
//     isomorphic instance, so deterministic algorithms must pay the
//     same total;
//   * request-prefix monotonicity — running on a longer prefix of the
//     same sequence is, for an online algorithm, an extension of the
//     same run: opening cost is non-decreasing in the prefix length
//     (facilities never close), with the algorithm's coin stream pinned
//     by the seed;
//   * rollback-then-replay — a request that arrives at an already-open
//     facility's location (demanding a subset of its config) is served
//     for free; after it departs, PD/Fotakis bid rollback must leave the
//     run bitwise identical to the timeline where it never arrived.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "core/stream_runner.hpp"
#include "instance/event_stream.hpp"
#include "instance/transforms.hpp"
#include "metamorphic_common.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

using metamorphic::GeneratedInstance;
using metamorphic::GeneratorOptions;
using metamorphic::permute_commodities;
using metamorphic::random_instance;

double roster_cost(const std::string& algorithm, std::uint64_t seed,
                   const Instance& instance) {
  auto algo = default_algorithm_registry().make(
      algorithm, derive_algorithm_seed(seed));
  const SolutionLedger ledger = run_online(*algo, instance);
  const auto violation = verify_solution(instance, ledger);
  EXPECT_FALSE(violation.has_value())
      << algorithm << ": " << (violation ? violation->what : "");
  return ledger.total_cost();
}

TEST(Metamorphic, UniformScalingScalesEveryAlgorithmCostExactly) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const GeneratedInstance gen = random_instance(seed);
    for (const std::string& name : registry.names()) {
      const double base = roster_cost(name, seed, gen.instance);
      for (const double lambda : {0.25, 4.0}) {
        const Instance scaled = scale_instance(gen.instance, lambda);
        const double scaled_cost = roster_cost(name, seed, scaled);
        // Bitwise, not NEAR: λ is a power of two, so the scaled run's
        // decisions and its total are exact multiples.
        EXPECT_EQ(scaled_cost, lambda * base)
            << name << " seed " << seed << " lambda " << lambda;
      }
    }
  }
}

TEST(Metamorphic, CommodityPermutationEquivariance) {
  GeneratorOptions options;
  options.linear_cost_only = true;
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const GeneratedInstance gen = random_instance(seed, options);
    const CommodityId s = gen.instance.num_commodities();
    std::vector<CommodityId> perm(s);
    std::iota(perm.begin(), perm.end(), CommodityId{0});
    Rng perm_rng(seed * 7919 + 13);
    perm_rng.shuffle(std::span<CommodityId>(perm));

    const Instance permuted =
        permute_commodities(gen.instance, gen.linear_weights, perm);
    for (const std::string& name : registry.names()) {
      if (registry.spec(name).randomized)
        continue;  // coin draws bind to commodity order; only the
                   // deterministic roster is label-equivariant run-to-run
      const double base = roster_cost(name, seed, gen.instance);
      const double relabeled = roster_cost(name, seed, permuted);
      EXPECT_NEAR(relabeled, base, 1e-9 * std::max(1.0, std::abs(base)))
          << name << " seed " << seed;
    }
  }
}

TEST(Metamorphic, OpeningCostIsMonotoneInTheRequestPrefix) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const GeneratedInstance gen = random_instance(seed);
    const std::vector<Request>& requests = gen.instance.requests();
    const std::size_t n = requests.size();
    for (const std::string& name : registry.names()) {
      double previous_opening = 0.0;
      for (std::size_t k = 0; k <= n; k += std::max<std::size_t>(1, n / 6)) {
        const Instance prefix(
            gen.instance.metric_ptr(), gen.instance.cost_ptr(),
            std::vector<Request>(requests.begin(), requests.begin() + k),
            "prefix");
        auto algo = default_algorithm_registry().make(
            name, derive_algorithm_seed(seed));
        const SolutionLedger ledger = run_online(*algo, prefix);
        // An online run on a longer prefix extends the shorter run
        // verbatim (same decisions, same coins), so opening cost can
        // only grow — facilities never close.
        EXPECT_GE(ledger.opening_cost(), previous_opening)
            << name << " seed " << seed << " prefix " << k;
        previous_opening = ledger.opening_cost();
      }
    }
  }
}

TEST(Metamorphic, RollbackThenReplayEqualsNeverArrived) {
  // The invariant is conditional: facility openings are irrevocable, so
  // a departed request's run can only replay as never-arrived when
  // serving it opened nothing. A rider at an open facility's location
  // usually connects for free at dual zero — but a zero-delta *opening*
  // event (the prefix left some bid pool exactly tight) may legitimately
  // win instead, so those trials are skipped and counted.
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const GeneratedInstance gen = random_instance(seed);
    const std::vector<Request>& requests = gen.instance.requests();
    const std::size_t split = std::max<std::size_t>(1, requests.size() / 2);

    for (const std::string& name : {std::string("pd"),
                                    std::string("fotakis")}) {
      // Discover a facility the algorithm opens on the prefix; a request
      // at its exact location demanding part of its config is served at
      // distance zero — no bids move, nothing opens — so after rollback
      // the suffix must replay as if it never arrived.
      const Instance prefix_instance(
          gen.instance.metric_ptr(), gen.instance.cost_ptr(),
          std::vector<Request>(requests.begin(), requests.begin() + split),
          "prefix");
      const SolutionLedger prefix_ledger = run_online(
          *default_algorithm_registry().make(name,
                                             derive_algorithm_seed(seed)),
          prefix_instance);
      ASSERT_GT(prefix_ledger.num_facilities(), 0u);
      const OpenFacilityRecord& facility = prefix_ledger.facilities()[0];
      ASSERT_FALSE(facility.config.empty());

      Request free_rider;
      free_rider.location = facility.location;
      free_rider.commodities = CommoditySet::singleton(
          gen.instance.num_commodities(),
          facility.config.to_vector().front());

      std::vector<StreamEvent> with_rider;
      std::vector<StreamEvent> without_rider;
      for (std::size_t i = 0; i < split; ++i) {
        with_rider.push_back(StreamEvent::arrival(requests[i]));
        without_rider.push_back(StreamEvent::arrival(requests[i]));
      }
      with_rider.push_back(StreamEvent::arrival(free_rider));
      with_rider.push_back(
          StreamEvent::departure(static_cast<RequestId>(split)));
      for (std::size_t i = split; i < requests.size(); ++i) {
        with_rider.push_back(StreamEvent::arrival(requests[i]));
        without_rider.push_back(StreamEvent::arrival(requests[i]));
      }
      const EventStream stream_with(gen.instance.metric_ptr(),
                                    gen.instance.cost_ptr(),
                                    std::move(with_rider), "with-rider");
      const EventStream stream_without(
          gen.instance.metric_ptr(), gen.instance.cost_ptr(),
          std::move(without_rider), "without-rider");

      StreamRunOptions options;
      options.verify = true;
      options.compact = false;  // keep the rider's record inspectable
      auto algo_with = default_algorithm_registry().make(
          name, derive_algorithm_seed(seed));
      const StreamRunResult with_result =
          run_stream(*algo_with, stream_with, options);
      auto algo_without = default_algorithm_registry().make(
          name, derive_algorithm_seed(seed));
      const StreamRunResult without_result =
          run_stream(*algo_without, stream_without, options);

      EXPECT_FALSE(with_result.violation.has_value())
          << name << ": " << with_result.violation->what;
      EXPECT_FALSE(without_result.violation.has_value());

      const RequestId rider_id = static_cast<RequestId>(split);
      bool rider_opened = false;
      for (const OpenFacilityRecord& f :
           with_result.ledger.facilities())
        if (f.opened_during == rider_id) rider_opened = true;
      if (rider_opened) continue;  // irrevocable opening; see above
      ++compared;

      // A qualifying rider was served entirely at distance zero.
      EXPECT_EQ(
          with_result.ledger.request_record(rider_id).connection_cost,
          0.0)
          << name << " seed " << seed;

      const SolutionLedger& a = with_result.ledger;
      const SolutionLedger& b = without_result.ledger;
      EXPECT_EQ(a.total_cost(), b.total_cost()) << name << " seed " << seed;
      EXPECT_EQ(a.opening_cost(), b.opening_cost())
          << name << " seed " << seed;
      EXPECT_EQ(a.active_cost(), b.active_cost())
          << name << " seed " << seed;
      ASSERT_EQ(a.num_facilities(), b.num_facilities())
          << name << " seed " << seed;
      for (std::size_t f = 0; f < a.num_facilities(); ++f) {
        EXPECT_EQ(a.facilities()[f].location, b.facilities()[f].location);
        EXPECT_EQ(a.facilities()[f].open_cost,
                  b.facilities()[f].open_cost);
        EXPECT_TRUE(a.facilities()[f].config == b.facilities()[f].config);
      }
    }
  }
  // The skip path must stay the exception, not the rule — the harness
  // has to actually exercise the rollback comparison.
  EXPECT_GE(compared, 6u);
}

// Capacity relations: attaching capacities that can never bind (all
// infinite, or a finite uniform cap no facility can reach) must leave
// every algorithm's run bitwise unchanged — admission control lives in
// the ledger, so the only difference is a branch that never fires.
TEST(Metamorphic, NonBindingCapacitiesReproduceUncapacitatedRunBitwise) {
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const GeneratedInstance gen = random_instance(seed);
    const std::size_t points = gen.instance.metric().num_points();
    // A request occupies at most one facility, so num_requests is an
    // unreachable per-point cap: finite, yet never binding.
    const std::uint64_t loose_cap = gen.instance.num_requests();
    for (const std::string& name : registry.names()) {
      auto base_algo = default_algorithm_registry().make(
          name, derive_algorithm_seed(seed));
      const SolutionLedger base = run_online(*base_algo, gen.instance);

      for (const std::uint64_t cap : {kUncapacitated, loose_cap}) {
        Instance capped = gen.instance;
        capped.set_capacities(
            std::make_shared<const std::vector<std::uint64_t>>(points,
                                                               cap));
        auto algo = default_algorithm_registry().make(
            name, derive_algorithm_seed(seed));
        const SolutionLedger run = run_online(*algo, capped);

        EXPECT_EQ(run.num_shed_requests(), 0u) << name << " seed " << seed;
        EXPECT_EQ(run.num_spilled_assignments(), 0u)
            << name << " seed " << seed;
        EXPECT_EQ(run.total_cost(), base.total_cost())
            << name << " seed " << seed << " cap " << cap;
        EXPECT_EQ(run.opening_cost(), base.opening_cost())
            << name << " seed " << seed << " cap " << cap;
        EXPECT_EQ(run.active_cost(), base.active_cost())
            << name << " seed " << seed << " cap " << cap;
        ASSERT_EQ(run.num_facilities(), base.num_facilities())
            << name << " seed " << seed << " cap " << cap;
        for (std::size_t f = 0; f < run.num_facilities(); ++f) {
          EXPECT_EQ(run.facilities()[f].location,
                    base.facilities()[f].location);
          EXPECT_EQ(run.facilities()[f].open_cost,
                    base.facilities()[f].open_cost);
          EXPECT_TRUE(run.facilities()[f].config ==
                      base.facilities()[f].config);
        }
        ASSERT_EQ(run.num_requests(), base.num_requests());
        for (std::size_t r = 0; r < run.num_requests(); ++r) {
          const RequestRecord& got =
              run.request_record(static_cast<RequestId>(r));
          const RequestRecord& want =
              base.request_record(static_cast<RequestId>(r));
          EXPECT_EQ(got.connection_cost, want.connection_cost)
              << name << " seed " << seed << " request " << r;
          EXPECT_TRUE(got.rejected.empty());
        }
      }
    }
  }
}

// Starving a single facility location under the reassign policy can only
// push requests to farther (feasible) facilities or shed them outright —
// the served work gets strictly harder, so the total cost of what the
// run *does* pay never drops below the uncapacitated baseline.
TEST(Metamorphic, LoweringOneCapacityNeverDecreasesCostUnderReassign) {
  std::size_t tightened = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const GeneratedInstance gen = random_instance(seed);
    const std::size_t points = gen.instance.metric().num_points();
    auto base_algo = default_algorithm_registry().make(
        "greedy", derive_algorithm_seed(seed));
    const SolutionLedger base = run_online(*base_algo, gen.instance);
    ASSERT_GT(base.num_facilities(), 0u);

    // Starve the busiest location: the one serving the most requests.
    std::vector<std::size_t> load(points, 0);
    for (std::size_t r = 0; r < base.num_requests(); ++r) {
      const RequestRecord& record =
          base.request_record(static_cast<RequestId>(r));
      record.for_each_connected(
          [&](FacilityId f) { ++load[base.facilities()[f].location]; });
    }
    const PointId victim = static_cast<PointId>(std::distance(
        load.begin(), std::max_element(load.begin(), load.end())));
    if (load[victim] <= 1) continue;  // cap of 1 would not bind

    auto caps = std::make_shared<std::vector<std::uint64_t>>(
        points, kUncapacitated);
    (*caps)[victim] = 1;
    Instance capped = gen.instance;
    capped.set_capacities(std::move(caps));

    auto algo = default_algorithm_registry().make(
        "greedy", derive_algorithm_seed(seed));
    const SolutionLedger run =
        run_online(*algo, capped, ConnectionChargePolicy::kPerFacility,
                   OverflowPolicy::kReassign);
    const auto violation = verify_solution(capped, run);
    EXPECT_FALSE(violation.has_value())
        << "seed " << seed << ": " << (violation ? violation->what : "");
    EXPECT_GE(run.total_cost(), base.total_cost()) << "seed " << seed;
    ++tightened;
  }
  // The cap has to actually bind on most seeds for this to test anything.
  EXPECT_GE(tightened, 4u);
}

}  // namespace
}  // namespace omflp
