// End-to-end integration: every algorithm against every workload family
// must produce verifier-clean solutions; serialization round-trips must
// replay identically; the alternative connection-charge policy must be
// consistently more expensive.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "cost/checks.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "metric/line_metric.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "instance/io.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

using AlgorithmFactory = std::function<std::unique_ptr<OnlineAlgorithm>()>;

std::vector<std::pair<std::string, AlgorithmFactory>> all_algorithms() {
  return {
      {"pd", [] { return std::make_unique<PdOmflp>(); }},
      {"pd-reference",
       [] {
         return std::make_unique<PdOmflp>(
             PdOptions{.bid_mode = PdOptions::BidMode::kReference});
       }},
      {"pd-no-prediction",
       [] {
         return std::make_unique<PdOmflp>(
             PdOptions{.prediction = PdOptions::Prediction::kOff});
       }},
      {"pd-seen-union",
       [] {
         return std::make_unique<PdOmflp>(
             PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion});
       }},
      {"rand",
       [] { return std::make_unique<RandOmflp>(RandOptions{.seed = 7}); }},
      {"per-commodity-fotakis",
       [] { return std::make_unique<FotakisOfl>(); }},
      {"per-commodity-meyerson",
       [] { return std::make_unique<MeyersonOfl>(11); }},
      {"always-open", [] { return std::make_unique<AlwaysOpen>(); }},
      {"nearest-or-open", [] { return std::make_unique<NearestOrOpen>(); }},
      {"rent-or-buy", [] { return std::make_unique<RentOrBuy>(); }},
  };
}

std::vector<Instance> all_workloads() {
  std::vector<Instance> workloads;
  {
    Rng rng(101);
    UniformLineConfig cfg;
    cfg.num_points = 10;
    cfg.num_requests = 40;
    cfg.num_commodities = 6;
    cfg.max_demand = 4;
    workloads.push_back(make_uniform_line(
        cfg, std::make_shared<PolynomialCostModel>(6, 1.0), rng));
  }
  {
    Rng rng(102);
    ClusteredConfig cfg;
    cfg.num_clusters = 3;
    cfg.requests_per_cluster = 10;
    cfg.num_commodities = 8;
    cfg.commodities_per_cluster = 3;
    workloads.push_back(make_clustered_line(
        cfg, std::make_shared<PolynomialCostModel>(8, 1.0), rng));
  }
  {
    Rng rng(103);
    ZoomingConfig cfg;
    cfg.num_requests = 30;
    cfg.num_commodities = 4;
    cfg.demand_size = 2;
    workloads.push_back(make_zooming_line(
        cfg, std::make_shared<PolynomialCostModel>(4, 1.0), rng));
  }
  {
    Rng rng(104);
    ServiceNetworkConfig cfg;
    cfg.num_nodes = 16;
    cfg.num_requests = 40;
    cfg.num_commodities = 6;
    cfg.max_demand = 3;
    workloads.push_back(make_service_network(
        cfg, std::make_shared<PolynomialCostModel>(6, 1.0), rng));
  }
  {
    Rng rng(105);
    SinglePointMixedConfig cfg;
    cfg.num_requests = 25;
    cfg.num_commodities = 8;
    cfg.max_demand = 5;
    workloads.push_back(make_single_point_mixed(
        cfg, std::make_shared<CeilRatioCostModel>(8), rng));
  }
  {
    Rng rng(106);
    Theorem2Config cfg;
    cfg.num_commodities = 49;
    workloads.push_back(make_theorem2_instance(cfg, rng));
  }
  {
    // Non-uniform (point-scaled) costs exercise RAND's multi-class path.
    Rng rng(107);
    UniformLineConfig cfg;
    cfg.num_points = 8;
    cfg.num_requests = 30;
    cfg.num_commodities = 5;
    cfg.max_demand = 3;
    auto base = std::make_shared<PolynomialCostModel>(5, 1.0);
    std::vector<double> multipliers;
    for (std::size_t i = 0; i < cfg.num_points; ++i)
      multipliers.push_back(rng.uniform(0.5, 8.0));
    workloads.push_back(make_uniform_line(
        cfg,
        std::make_shared<PointScaledCostModel>(base, multipliers), rng));
  }
  return workloads;
}

TEST(Integration, EveryAlgorithmValidOnEveryWorkload) {
  const auto workloads = all_workloads();
  for (const auto& [name, factory] : all_algorithms()) {
    for (const Instance& inst : workloads) {
      auto algorithm = factory();
      const SolutionLedger ledger = run_online(*algorithm, inst);
      const auto violation = verify_solution(inst, ledger);
      EXPECT_FALSE(violation.has_value())
          << name << " on " << inst.name() << ": "
          << (violation ? violation->what : "");
      EXPECT_GT(ledger.total_cost(), 0.0) << name << " on " << inst.name();
    }
  }
}

TEST(Integration, PerCommodityPolicyCostsAtLeastPerFacility) {
  // Charging the path once per commodity can only increase cost relative
  // to the shared-path model, for the same decision sequence.
  const auto workloads = all_workloads();
  for (const Instance& inst : workloads) {
    PdOmflp pd_shared;
    PdOmflp pd_split;
    const double shared =
        run_online(pd_shared, inst, ConnectionChargePolicy::kPerFacility)
            .total_cost();
    const double split =
        run_online(pd_split, inst, ConnectionChargePolicy::kPerCommodity)
            .total_cost();
    EXPECT_GE(split + 1e-9, shared) << inst.name();
  }
}

TEST(Integration, SerializedInstanceReplaysIdentically) {
  Rng rng(201);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 30;
  cfg.num_commodities = 5;
  cfg.max_demand = 3;
  const Instance original = make_uniform_line(
      cfg, std::make_shared<PolynomialCostModel>(5, 1.0), rng);
  const Instance loaded = instance_from_string(instance_to_string(original));

  PdOmflp pd_a, pd_b;
  const SolutionLedger la = run_online(pd_a, original);
  const SolutionLedger lb = run_online(pd_b, loaded);
  EXPECT_NEAR(la.total_cost(), lb.total_cost(), 1e-9);
  EXPECT_EQ(la.num_facilities(), lb.num_facilities());

  RandOmflp rand_a{RandOptions{.seed = 3}}, rand_b{RandOptions{.seed = 3}};
  EXPECT_NEAR(run_online(rand_a, original).total_cost(),
              run_online(rand_b, loaded).total_cost(), 1e-9);
}

TEST(Integration, Figure3CrossoverAtThreeTimesSmallDistance) {
  // Miniature of bench_fig3_connection_choice: a probe demanding three
  // commodities picks the single large facility while its distance is
  // below the sum of the three small-facility paths, and the smalls
  // beyond it. Scenario costs are engineered (see the bench for details).
  struct Fig3Cost final : FacilityCostModel {
    CommodityId num_commodities() const noexcept override { return 3; }
    double open_cost(PointId m, const CommoditySet& config) const override {
      const CommodityId size = check_config(config);
      if (size == 0) return 0.0;
      if (m >= 1 && m <= 4 && size == 1) return 1e-4;
      if (m == 4) return 1e-4 * size;
      return 1e6 * size;
    }
    std::string description() const override { return "fig3"; }
  };
  auto run_probe = [&](double d_large) {
    auto metric = std::make_shared<LineMetric>(
        std::vector<double>{0.0, 1.0, -1.0, 1.0, d_large});
    std::vector<Request> requests;
    for (CommodityId e = 0; e < 3; ++e)
      requests.push_back(Request{static_cast<PointId>(1 + e),
                                 CommoditySet::singleton(3, e)});
    requests.push_back(Request{4, CommoditySet::full_set(3)});
    requests.push_back(Request{0, CommoditySet::full_set(3)});
    Instance inst(metric, std::make_shared<Fig3Cost>(), requests, "fig3");
    PdOmflp pd;
    const SolutionLedger ledger = run_online(pd, inst);
    EXPECT_FALSE(verify_solution(inst, ledger).has_value());
    return ledger.request_record(ledger.num_requests() - 1).num_connected();
  };
  EXPECT_EQ(run_probe(2.9), 1u);   // shared path wins below 3*1
  EXPECT_EQ(run_probe(3.1), 3u);   // separate paths win above it
}

TEST(Integration, CostModelAssumptionsHoldOnAllWorkloads) {
  // Every shipped workload must satisfy the paper's Condition 1 and
  // subadditivity — otherwise the theorems don't apply to our benches.
  Rng rng(301);
  for (const Instance& inst : all_workloads()) {
    const std::size_t points = inst.metric().num_points();
    EXPECT_FALSE(check_condition1_sampled(inst.cost(), points, 200, rng)
                     .has_value())
        << inst.name();
    EXPECT_FALSE(check_subadditivity_sampled(inst.cost(), points, 200, rng)
                     .has_value())
        << inst.name();
  }
}

}  // namespace
}  // namespace omflp
