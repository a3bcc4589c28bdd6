// Tests for the paper's §5 / §1.1 extension features:
//   * heavy commodities (HeavyTailCostModel, detect_heavy_commodities,
//     PdOptions::excluded_from_prediction);
//   * instance transforms (per-commodity split, shuffling, scaling) and
//     the 1-homogeneity of the algorithms under scaling;
//   * the exact decomposition PD[no-prediction] ≡ per-commodity Fotakis.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "cost/checks.hpp"
#include "cost/cost_models.hpp"
#include "cost/heavy.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "instance/transforms.hpp"
#include "metric/line_metric.hpp"
#include "offline/opt_estimate.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

// --------------------------------------------------- heavy commodities ---

std::shared_ptr<HeavyTailCostModel> heavy_model(CommodityId s,
                                                CommodityId heavy_commodity,
                                                double weight,
                                                double base_scale = 2.0) {
  std::vector<double> weights(s, 0.0);
  weights[heavy_commodity] = weight;
  return std::make_shared<HeavyTailCostModel>(
      s,
      [base_scale](CommodityId k) {
        return base_scale * std::sqrt(static_cast<double>(k));
      },
      CommoditySet::singleton(s, heavy_commodity), std::move(weights));
}

TEST(HeavyTailCostModel, PricesBasePlusHeavyAdditively) {
  auto model = heavy_model(9, 8, 1000.0);
  // Non-heavy part only: 2*sqrt(k).
  EXPECT_NEAR(model->open_cost(0, CommoditySet(9, {0, 1, 2, 3})), 4.0,
              1e-12);
  // Heavy singleton: just the weight.
  EXPECT_NEAR(model->open_cost(0, CommoditySet(9, {8})), 1000.0, 1e-12);
  // Mixed: base of the non-heavy part + weight.
  EXPECT_NEAR(model->open_cost(0, CommoditySet(9, {0, 8})), 2.0 + 1000.0,
              1e-12);
  EXPECT_NEAR(model->full_cost(0), 2.0 * std::sqrt(8.0) + 1000.0, 1e-12);
}

TEST(HeavyTailCostModel, SubadditiveButViolatesCondition1) {
  auto model = heavy_model(6, 5, 50.0);
  // Subadditivity survives (base subadditive + additive heavy part)...
  EXPECT_FALSE(check_subadditivity_exhaustive(*model, 1).has_value());
  // ...but Condition 1 fails: a non-heavy singleton's per-commodity cost
  // (2) is far below the full-set average ((2*sqrt(5)+50)/6 ≈ 9).
  EXPECT_TRUE(check_condition1_exhaustive(*model, 1).has_value());
}

TEST(DetectHeavy, FlagsExactlyTheHeavySet) {
  auto model = heavy_model(9, 8, 1000.0);
  const CommoditySet heavy = detect_heavy_commodities(*model, 4, 3.0);
  EXPECT_TRUE(heavy == CommoditySet::singleton(9, 8));

  // A clean class-C model has no heavy commodities at factor >= ~|S|/...
  PolynomialCostModel clean(9, 1.0);
  EXPECT_TRUE(detect_heavy_commodities(clean, 4, 3.5).empty());
  EXPECT_THROW(detect_heavy_commodities(clean, 4, 0.5),
               std::invalid_argument);
}

TEST(HeavyExclusion, ExcludedVariantBundlesCheaplyWherePlainCannot) {
  // S = 9 with heavy commodity 8 (weight 1000). Five requests demand the
  // eight non-heavy commodities at one point. Plain PD can only predict
  // the full S — the poisoned large facility costs ~1005, so it falls
  // back to 8 singletons (cost 16). The §5 variant predicts S \ {8} and
  // opens one 2·sqrt(8) ≈ 5.66 facility — the exact offline optimum.
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = heavy_model(9, 8, 1000.0);
  CommoditySet bundle(9);
  for (CommodityId e = 0; e < 8; ++e) bundle.add(e);
  std::vector<Request> requests(5, Request{0, bundle});
  Instance inst(metric, cost, std::move(requests), "heavy-shared");

  PdOmflp plain;
  const SolutionLedger plain_ledger = run_online(plain, inst);
  EXPECT_FALSE(verify_solution(inst, plain_ledger).has_value());
  EXPECT_NEAR(plain_ledger.total_cost(), 16.0, 1e-9);
  EXPECT_EQ(plain_ledger.num_large_facilities(), 0u);

  PdOmflp excluded{PdOptions{
      .excluded_from_prediction = detect_heavy_commodities(*cost, 1, 3.0)}};
  const SolutionLedger excl_ledger = run_online(excluded, inst);
  EXPECT_FALSE(verify_solution(inst, excl_ledger).has_value());
  EXPECT_NEAR(excl_ledger.total_cost(), 2.0 * std::sqrt(8.0), 1e-9);
  // The opened facility is "large minus heavy": 8 commodities, not 9.
  ASSERT_EQ(excl_ledger.num_facilities(), 1u);
  EXPECT_EQ(excl_ledger.facility(0).config.count(), 8u);
  EXPECT_FALSE(excl_ledger.facility(0).config.contains(8));
}

TEST(HeavyExclusion, HeavyCommodityStillServedThroughSmallFacilities) {
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = heavy_model(9, 8, 100.0);
  CommoditySet bundle(9);
  for (CommodityId e = 0; e < 8; ++e) bundle.add(e);
  std::vector<Request> requests(3, Request{0, bundle});
  // One request needs the heavy commodity together with a light one.
  requests.push_back(Request{0, CommoditySet(9, {0, 8})});
  Instance inst(metric, cost, std::move(requests), "heavy-mixed");

  PdOmflp excluded{PdOptions{
      .excluded_from_prediction = CommoditySet::singleton(9, 8)}};
  const SolutionLedger ledger = run_online(excluded, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  // The heavy commodity got its own dedicated facility at weight 100.
  bool heavy_facility = false;
  for (const auto& f : ledger.facilities())
    if (f.config.contains(8)) {
      heavy_facility = true;
      EXPECT_EQ(f.config.count(), 1u);
      EXPECT_NEAR(f.open_cost, 100.0, 1e-9);
    }
  EXPECT_TRUE(heavy_facility);
}

class HeavyValidity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeavyValidity, RandomWorkloadsStayValidWithExclusions) {
  Rng rng(GetParam());
  UniformLineConfig cfg;
  cfg.num_points = 10;
  cfg.num_requests = 40;
  cfg.num_commodities = 8;
  cfg.max_demand = 5;
  auto cost = heavy_model(8, 7, 40.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  PdOmflp excluded{PdOptions{
      .excluded_from_prediction = CommoditySet::singleton(8, 7)}};
  const SolutionLedger ledger = run_online(excluded, inst);
  const auto violation = verify_solution(inst, ledger);
  EXPECT_FALSE(violation.has_value())
      << (violation ? violation->what : "");
  // No opened facility mixes the heavy commodity into a bundle.
  for (const auto& f : ledger.facilities())
    if (f.config.contains(7)) {
      EXPECT_EQ(f.config.count(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeavyValidity,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(HeavyExclusion, UniverseMismatchRejected) {
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0);
  PdOmflp bad{PdOptions{
      .excluded_from_prediction = CommoditySet::singleton(9, 8)}};
  EXPECT_THROW(bad.reset(ProblemContext{metric, cost}),
               std::invalid_argument);
}

// --------------------------------------------------------- transforms ----

TEST(SplitPerCommodity, StructureAndValidity) {
  Rng rng(3);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 20;
  cfg.num_commodities = 5;
  cfg.max_demand = 4;
  auto cost = std::make_shared<PolynomialCostModel>(5, 1.0);
  const Instance original = make_uniform_line(cfg, cost, rng);
  const Instance split = split_per_commodity(original);

  std::size_t expected = 0;
  for (const Request& r : original.requests())
    expected += r.commodities.count();
  EXPECT_EQ(split.num_requests(), expected);
  for (const Request& r : split.requests())
    EXPECT_EQ(r.commodities.count(), 1u);
  EXPECT_TRUE(split.demanded_union() == original.demanded_union());

  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, split);
  EXPECT_FALSE(verify_solution(split, ledger).has_value());
}

TEST(SplitPerCommodity, SimulatesThePerCommodityChargeModel) {
  // §1.1: the alternative model (charge a path per commodity) is simulated
  // by splitting requests. Concretely: for any fixed facility placement,
  // serving the split sequence under per-facility charging costs exactly
  // what serving the original costs under per-commodity charging. We
  // check with AlwaysOpen, whose decisions depend only on the current
  // request: on the split instance it opens singletons with zero
  // connection cost; total opening equals Σ_r Σ_{e∈s_r} f^{{e}}.
  auto metric = std::make_shared<LineMetric>(std::vector<double>{0.0, 5.0});
  auto cost = std::make_shared<PolynomialCostModel>(3, 2.0);  // linear
  Instance original(metric, cost,
                    {Request{0, CommoditySet(3, {0, 1})},
                     Request{1, CommoditySet(3, {1, 2})}},
                    "split-demo");
  const Instance split = split_per_commodity(original);
  AlwaysOpen alg;
  const SolutionLedger split_ledger = run_online(alg, split);
  const SolutionLedger orig_ledger =
      run_online(alg, original, ConnectionChargePolicy::kPerCommodity);
  // Linear costs: opening decomposes exactly, connections are zero.
  EXPECT_NEAR(split_ledger.total_cost(), orig_ledger.total_cost(), 1e-9);
}

TEST(ShuffleRequests, PermutesAndKeepsCertificate) {
  Rng rng(5);
  ClusteredConfig cfg;
  cfg.num_clusters = 3;
  cfg.requests_per_cluster = 8;
  cfg.num_commodities = 8;
  cfg.commodities_per_cluster = 3;
  auto cost = std::make_shared<PolynomialCostModel>(8, 1.0);
  const Instance original = make_clustered_line(cfg, cost, rng);
  Rng shuffle_rng(9);
  const Instance shuffled = shuffle_requests(original, shuffle_rng);
  ASSERT_EQ(shuffled.num_requests(), original.num_requests());
  ASSERT_TRUE(shuffled.opt_certificate().has_value());
  EXPECT_DOUBLE_EQ(shuffled.opt_certificate()->upper_bound,
                   original.opt_certificate()->upper_bound);
  // Same multiset of requests.
  auto key = [](const Request& r) {
    return std::make_pair(r.location, r.commodities.to_vector());
  };
  std::vector<std::pair<PointId, std::vector<CommodityId>>> a, b;
  for (const Request& r : original.requests()) a.push_back(key(r));
  for (const Request& r : shuffled.requests()) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

Instance scale_test_base() {
  Rng rng(11);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 30;
  cfg.num_commodities = 5;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(5, 1.0, 1.3);
  return make_uniform_line(cfg, cost, rng);
}

class PdScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(PdScaleInvariance, PdCostIsOneHomogeneousForAnyLambda) {
  // Every constraint of Algorithm 1 is 1-homogeneous in (distances,
  // costs), so scaling the instance by any λ scales PD's cost exactly.
  const double lambda = GetParam();
  const Instance base = scale_test_base();
  const Instance scaled = scale_instance(base, lambda);
  PdOmflp pd_base, pd_scaled;
  EXPECT_NEAR(run_online(pd_scaled, scaled).total_cost(),
              lambda * run_online(pd_base, base).total_cost(),
              1e-6 * lambda);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PdScaleInvariance,
                         ::testing::Values(0.25, 1.0, 3.0, 117.0));

class RandScaleInvariance : public ::testing::TestWithParam<double> {};

TEST_P(RandScaleInvariance, RandCostIsOneHomogeneousForPowersOfTwo) {
  // RAND's power-of-two cost classes commute with scaling only when λ is
  // itself a power of two (round_down_pow2(2^k·x) = 2^k·round_down_pow2(x));
  // then the class structure, every coin probability and hence the exact
  // decision sequence are preserved. For other λ the rounding genuinely
  // changes the algorithm — no invariance is claimed or expected.
  const double lambda = GetParam();
  const Instance base = scale_test_base();
  const Instance scaled = scale_instance(base, lambda);
  RandOmflp rand_base{RandOptions{.seed = 4}};
  RandOmflp rand_scaled{RandOptions{.seed = 4}};
  EXPECT_NEAR(run_online(rand_scaled, scaled).total_cost(),
              lambda * run_online(rand_base, base).total_cost(),
              1e-6 * lambda);
}

INSTANTIATE_TEST_SUITE_P(Lambdas, RandScaleInvariance,
                         ::testing::Values(0.25, 1.0, 8.0, 128.0));

TEST(ScaleInstance, CertificateScales) {
  Rng rng(2);
  Theorem2Config cfg;
  cfg.num_commodities = 25;
  const Instance base = make_theorem2_instance(cfg, rng);
  const Instance scaled = scale_instance(base, 7.0);
  ASSERT_TRUE(scaled.opt_certificate().has_value());
  EXPECT_DOUBLE_EQ(scaled.opt_certificate()->upper_bound, 7.0);
  EXPECT_TRUE(scaled.opt_certificate()->exact);
}

// ----------------------------------------- decomposition equivalence -----

class Decomposition : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Decomposition, PdWithoutPredictionEqualsPerCommodityFotakis) {
  // With constraints (2)/(4) disabled, PD's commodities never interact:
  // each evolves exactly as an independent single-commodity Fotakis run.
  // The two implementations must therefore produce the same cost and the
  // same facility multiset.
  Rng rng(GetParam() * 101 + 7);
  UniformLineConfig cfg;
  cfg.num_points = 9;
  cfg.num_requests = 40;
  cfg.num_commodities = 6;
  cfg.max_demand = 4;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0, 2.2);
  const Instance inst = make_uniform_line(cfg, cost, rng);

  PdOmflp no_pred{PdOptions{.prediction = PdOptions::Prediction::kOff}};
  FotakisOfl per_commodity;
  const SolutionLedger lp = run_online(no_pred, inst);
  const SolutionLedger lf = run_online(per_commodity, inst);

  EXPECT_NEAR(lp.total_cost(), lf.total_cost(), 1e-7);
  EXPECT_EQ(lp.num_facilities(), lf.num_facilities());
  auto facility_multiset = [](const SolutionLedger& ledger) {
    std::vector<std::pair<PointId, std::vector<CommodityId>>> out;
    for (const auto& f : ledger.facilities())
      out.emplace_back(f.location, f.config.to_vector());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_EQ(facility_multiset(lp), facility_multiset(lf));
}

INSTANTIATE_TEST_SUITE_P(Seeds, Decomposition,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace omflp
