// Tests for instances, workload generators (determinism, validity,
// certificates) and the text serialization round-trip.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "instance/io.hpp"
#include "metric/line_metric.hpp"
#include "metric/validation.hpp"
#include "offline/single_point.hpp"

namespace omflp {
namespace {

std::shared_ptr<PolynomialCostModel> sqrt_cost(CommodityId s) {
  return std::make_shared<PolynomialCostModel>(s, 1.0);
}

TEST(Instance, ValidatesRequests) {
  auto metric = LineMetric::uniform_grid(4, 10.0);
  auto cost = sqrt_cost(4);
  // Location out of range.
  EXPECT_THROW(Instance(metric, cost, {Request{9, CommoditySet(4, {0})}}),
               std::invalid_argument);
  // Universe mismatch.
  EXPECT_THROW(Instance(metric, cost, {Request{0, CommoditySet(5, {0})}}),
               std::invalid_argument);
  // Empty demand.
  EXPECT_THROW(Instance(metric, cost, {Request{0, CommoditySet(4)}}),
               std::invalid_argument);
}

TEST(Instance, DemandedUnion) {
  auto metric = LineMetric::uniform_grid(4, 10.0);
  Instance inst(metric, sqrt_cost(4),
                {Request{0, CommoditySet(4, {0, 1})},
                 Request{1, CommoditySet(4, {1, 3})}});
  EXPECT_EQ(inst.demanded_union(), CommoditySet(4, {0, 1, 3}));
}

TEST(SampleDemandSet, SizeAndRange) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const CommoditySet s = sample_demand_set(12, 5, 0.8, rng);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_EQ(s.universe_size(), 12u);
  }
}

// The prebuilt-sampler overload is the draw generators use per event; it
// must be the exponent overload's draw exactly, RNG state included.
TEST(SampleDemandSet, PrebuiltSamplerIsTheSameDraw) {
  struct Case {
    CommodityId n;
    CommodityId size;
    double exponent;
  };
  // Exponent 0 is the uniform path (null sampler). Exponent 40 puts
  // nearly all mass on commodity 0, so a set of 5 is only reached by
  // the uniform fill-up after the rejection loop gives up.
  for (const Case c : {Case{12, 4, 0.0}, Case{12, 4, 0.8},
                       Case{16, 7, 1.3}, Case{8, 5, 40.0}}) {
    const std::optional<ZipfSampler> zipf =
        c.exponent == 0.0 ? std::nullopt
                          : std::optional<ZipfSampler>(std::in_place, c.n,
                                                       c.exponent);
    for (std::uint64_t seed : {1u, 7u, 123u}) {
      Rng prebuilt(seed);
      Rng rebuilt(seed);
      for (int i = 0; i < 40; ++i) {
        const CommoditySet a = sample_demand_set(
            c.n, c.size, zipf ? &*zipf : nullptr, prebuilt);
        const CommoditySet b =
            sample_demand_set(c.n, c.size, c.exponent, rebuilt);
        ASSERT_EQ(a, b) << "exponent " << c.exponent << " seed " << seed;
        ASSERT_EQ(a.count(), c.size);
      }
      EXPECT_EQ(prebuilt.next_u64(), rebuilt.next_u64())
          << "exponent " << c.exponent << " seed " << seed;
    }
  }
}

TEST(SampleDemandSet, RejectsBadSize) {
  Rng rng(1);
  EXPECT_THROW(sample_demand_set(4, 0, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(sample_demand_set(4, 5, 0.0, rng), std::invalid_argument);
}

class GeneratorDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorDeterminism, SameSeedSameInstance) {
  const int which = GetParam();
  auto make = [&](std::uint64_t seed) {
    Rng rng(seed);
    switch (which) {
      case 0:
        return make_uniform_line(UniformLineConfig{}, sqrt_cost(16), rng);
      case 1:
        return make_clustered_line(ClusteredConfig{}, sqrt_cost(16), rng);
      case 2: {
        ZoomingConfig cfg;
        return make_zooming_line(cfg, sqrt_cost(8), rng);
      }
      case 3:
        return make_service_network(ServiceNetworkConfig{}, sqrt_cost(16),
                                    rng);
      default: {
        SinglePointMixedConfig cfg;
        return make_single_point_mixed(cfg, sqrt_cost(12), rng);
      }
    }
  };
  const Instance a = make(1234);
  const Instance b = make(1234);
  const Instance c = make(999);
  ASSERT_EQ(a.num_requests(), b.num_requests());
  bool identical = true;
  for (std::size_t i = 0; i < a.num_requests(); ++i) {
    identical = identical &&
                a.request(i).location == b.request(i).location &&
                a.request(i).commodities == b.request(i).commodities;
  }
  EXPECT_TRUE(identical);
  // Different seeds should (generically) differ somewhere.
  bool differs = a.num_requests() != c.num_requests();
  for (std::size_t i = 0; !differs && i < a.num_requests(); ++i)
    differs = !(a.request(i).commodities == c.request(i).commodities) ||
              a.request(i).location != c.request(i).location;
  if (which != 2) {  // the zooming generator is deliberately deterministic
    EXPECT_TRUE(differs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllGenerators, GeneratorDeterminism,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(ClusteredGenerator, CertificateIsFeasibleUpperBound) {
  Rng rng(7);
  ClusteredConfig cfg;
  cfg.num_clusters = 4;
  cfg.requests_per_cluster = 8;
  const Instance inst = make_clustered_line(cfg, sqrt_cost(16), rng);
  ASSERT_TRUE(inst.opt_certificate().has_value());
  EXPECT_GT(inst.opt_certificate()->upper_bound, 0.0);
  EXPECT_FALSE(inst.opt_certificate()->exact);
  EXPECT_EQ(inst.num_requests(), 32u);
  // The metric the generator builds must actually be a metric.
  Rng vrng(1);
  EXPECT_FALSE(
      validate_metric_sampled(inst.metric(), 2000, vrng).has_value());
}

TEST(ClusteredGenerator, InterleavingChangesOrderNotMultiset) {
  ClusteredConfig cfg;
  cfg.num_clusters = 3;
  cfg.requests_per_cluster = 5;
  cfg.interleave = true;
  Rng rng1(42);
  const Instance inter = make_clustered_line(cfg, sqrt_cost(16), rng1);
  cfg.interleave = false;
  Rng rng2(42);
  const Instance seq = make_clustered_line(cfg, sqrt_cost(16), rng2);
  ASSERT_EQ(inter.num_requests(), seq.num_requests());
  // Same requests as multisets of (location, demand).
  auto key = [](const Request& r) {
    return std::make_pair(r.location, r.commodities.to_vector());
  };
  std::vector<std::pair<PointId, std::vector<CommodityId>>> a, b;
  for (const Request& r : inter.requests()) a.push_back(key(r));
  for (const Request& r : seq.requests()) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(ZoomingGenerator, GeometricDistancesAndCertificate) {
  ZoomingConfig cfg;
  cfg.num_requests = 10;
  cfg.initial_distance = 32.0;
  cfg.decay = 0.5;
  Rng rng(1);
  const Instance inst = make_zooming_line(cfg, sqrt_cost(8), rng);
  const auto& line = dynamic_cast<const LineMetric&>(inst.metric());
  EXPECT_DOUBLE_EQ(std::abs(line.position(1)), 32.0);
  EXPECT_DOUBLE_EQ(std::abs(line.position(2)), 16.0);
  ASSERT_TRUE(inst.opt_certificate().has_value());
  // Certificate: one facility (cost 2 = sqrt(4)) + sum of distances.
  const double distances = 32.0 * (2.0 - std::pow(0.5, 9));
  EXPECT_NEAR(inst.opt_certificate()->upper_bound, 2.0 + distances, 1e-9);
}

TEST(ServiceNetworkGenerator, ConnectedAndValid) {
  Rng rng(11);
  ServiceNetworkConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_requests = 64;
  const Instance inst = make_service_network(cfg, sqrt_cost(16), rng);
  EXPECT_EQ(inst.num_requests(), 64u);
  EXPECT_EQ(inst.metric().num_points(), 24u);
  Rng vrng(2);
  EXPECT_FALSE(
      validate_metric_sampled(inst.metric(), 2000, vrng).has_value());
}

// ------------------------------------------------------- adversarial -----

TEST(Theorem2Instance, StructureMatchesTheProof) {
  Rng rng(5);
  Theorem2Config cfg;
  cfg.num_commodities = 64;
  const Instance inst = make_theorem2_instance(cfg, rng);
  // ⌊√64⌋ = 8 singleton requests at the single point, all distinct.
  EXPECT_EQ(inst.num_requests(), 8u);
  EXPECT_EQ(inst.metric().num_points(), 1u);
  CommoditySet seen(64);
  for (const Request& r : inst.requests()) {
    EXPECT_EQ(r.commodities.count(), 1u);
    EXPECT_FALSE(seen.intersects(r.commodities));
    seen |= r.commodities;
  }
  // OPT certificate = 1 (one facility with S', cost ceil(8/8) = 1), and it
  // matches the exact single-point solver.
  ASSERT_TRUE(inst.opt_certificate().has_value());
  EXPECT_TRUE(inst.opt_certificate()->exact);
  EXPECT_DOUBLE_EQ(inst.opt_certificate()->upper_bound, 1.0);
  EXPECT_DOUBLE_EQ(solve_single_point_instance(inst), 1.0);
}

TEST(Theorem2Instance, SequenceLength) {
  EXPECT_EQ(theorem2_sequence_length(1), 1u);
  EXPECT_EQ(theorem2_sequence_length(64), 8u);
  EXPECT_EQ(theorem2_sequence_length(100), 10u);
  EXPECT_EQ(theorem2_sequence_length(120), 10u);
}

TEST(Theorem18Instance, CertificateMatchesExactSolver) {
  for (double x : {0.0, 0.5, 1.0, 1.5, 2.0}) {
    Rng rng(3);
    Theorem18Config cfg;
    cfg.num_commodities = 49;
    cfg.exponent_x = x;
    const Instance inst = make_theorem18_instance(cfg, rng);
    ASSERT_TRUE(inst.opt_certificate().has_value()) << "x=" << x;
    EXPECT_NEAR(inst.opt_certificate()->upper_bound,
                solve_single_point_instance(inst), 1e-9)
        << "x=" << x;
  }
}

// ---------------------------------------------------------------- io -----

TEST(InstanceIo, RoundTripPreservesEverything) {
  Rng rng(21);
  UniformLineConfig cfg;
  cfg.num_points = 6;
  cfg.num_requests = 10;
  cfg.num_commodities = 5;
  const Instance original =
      make_uniform_line(cfg, sqrt_cost(5), rng);

  const std::string text = instance_to_string(original);
  const Instance loaded = instance_from_string(text);

  ASSERT_EQ(loaded.num_requests(), original.num_requests());
  EXPECT_EQ(loaded.num_commodities(), original.num_commodities());
  EXPECT_EQ(loaded.name(), original.name());
  for (std::size_t i = 0; i < original.num_requests(); ++i) {
    EXPECT_EQ(loaded.request(i).location, original.request(i).location);
    EXPECT_TRUE(loaded.request(i).commodities ==
                original.request(i).commodities);
  }
  for (PointId a = 0; a < original.metric().num_points(); ++a)
    for (PointId b = 0; b < original.metric().num_points(); ++b)
      EXPECT_DOUBLE_EQ(loaded.metric().distance(a, b),
                       original.metric().distance(a, b));
  const CommoditySet probe(5, {0, 2, 4});
  EXPECT_DOUBLE_EQ(loaded.cost().open_cost(0, probe),
                   original.cost().open_cost(0, probe));
}

TEST(InstanceIo, RoundTripKeepsCertificate) {
  Rng rng(22);
  Theorem2Config cfg;
  cfg.num_commodities = 16;
  const Instance original = make_theorem2_instance(cfg, rng);
  const Instance loaded = instance_from_string(instance_to_string(original));
  ASSERT_TRUE(loaded.opt_certificate().has_value());
  EXPECT_TRUE(loaded.opt_certificate()->exact);
  EXPECT_DOUBLE_EQ(loaded.opt_certificate()->upper_bound, 1.0);
}

TEST(InstanceIo, LinearCostRoundTrip) {
  auto metric = LineMetric::uniform_grid(3, 4.0);
  auto cost = std::make_shared<LinearCostModel>(
      std::vector<double>{1.0, 2.5, 0.25});
  Instance original(metric, cost,
                    {Request{0, CommoditySet(3, {0, 2})},
                     Request{2, CommoditySet(3, {1})}},
                    "linear-io");
  const Instance loaded = instance_from_string(instance_to_string(original));
  const CommoditySet probe(3, {1, 2});
  EXPECT_DOUBLE_EQ(loaded.cost().open_cost(1, probe), 2.75);
}

TEST(InstanceIo, CostSectionFollowsTheModelHooks) {
  // The writer asks the model (location_invariant, cost_by_size,
  // additive_weights) instead of its concrete type, so an equal-multiplier
  // PointScaledCostModel is a size-only model like any other.
  auto metric = LineMetric::uniform_grid(2, 1.0);
  auto scaled = std::make_shared<PointScaledCostModel>(
      std::make_shared<PolynomialCostModel>(2, 1.0),
      std::vector<double>{2.0, 2.0});
  const std::string text = instance_to_string(
      Instance(metric, scaled, {Request{0, CommoditySet(2, {0})}}));
  EXPECT_NE(text.find("\ncost sizeonly 0 2 2.8284271247461903\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(instance_to_string(instance_from_string(text)), text);
  // Linear values are singleton costs: a -0 weight is written as 0.
  auto linear =
      std::make_shared<LinearCostModel>(std::vector<double>{-0.0, 1.5});
  EXPECT_NE(instance_to_string(
                Instance(metric, linear, {Request{0, CommoditySet(2, {1})}}))
                .find("\ncost linear 0 1.5\n"),
            std::string::npos);
}

TEST(InstanceIo, CapacityMapRoundTripsAndStaysOptional) {
  auto metric = LineMetric::uniform_grid(4, 6.0);
  Instance original(metric, sqrt_cost(3),
                    {Request{0, CommoditySet(3, {0, 2})},
                     Request{3, CommoditySet(3, {1})}},
                    "capacity-io");
  // Sparse map: finite caps at two points, the rest uncapacitated —
  // only the finite rows are written.
  auto caps =
      std::make_shared<std::vector<std::uint64_t>>(4, kUncapacitated);
  (*caps)[1] = 2;
  (*caps)[3] = 7;
  original.set_capacities(caps);

  const std::string text = instance_to_string(original);
  EXPECT_NE(text.find("capacities 2\n1 2\n3 7\n"), std::string::npos)
      << text;
  const Instance loaded = instance_from_string(text);
  ASSERT_NE(loaded.capacities(), nullptr);
  EXPECT_TRUE(*loaded.capacities() == *original.capacities());
  EXPECT_EQ(instance_to_string(loaded), text);

  // Uncapacitated instances write no capacities section: existing
  // files and their byte-identical round-trips are untouched.
  Instance plain(metric, sqrt_cost(3),
                 {Request{0, CommoditySet(3, {0})}}, "plain-io");
  const std::string plain_text = instance_to_string(plain);
  EXPECT_EQ(plain_text.find("capacities"), std::string::npos);
  EXPECT_EQ(instance_from_string(plain_text).capacities(), nullptr);

  // An all-infinite map is semantically uncapacitated and serializes
  // to nothing, so it too round-trips to a null map.
  Instance infinite(metric, sqrt_cost(3),
                    {Request{0, CommoditySet(3, {0})}}, "inf-io");
  infinite.set_capacities(std::make_shared<std::vector<std::uint64_t>>(
      4, kUncapacitated));
  const std::string infinite_text = instance_to_string(infinite);
  EXPECT_EQ(infinite_text.find("capacities"), std::string::npos);
  EXPECT_EQ(instance_from_string(infinite_text).capacities(), nullptr);
}

TEST(InstanceIo, MalformedInputsThrowWithContext) {
  EXPECT_THROW(instance_from_string("garbage"), std::invalid_argument);
  EXPECT_THROW(instance_from_string("OMFLP-INSTANCE v1\nname x\n"),
               std::invalid_argument);
  const std::string bad_commodity =
      "OMFLP-INSTANCE v1\nname t\ncommodities 2\nmetric matrix 1\n0\n"
      "cost sizeonly 0 1 2\nrequests 1\n0 1 7\n";
  EXPECT_THROW(instance_from_string(bad_commodity), std::invalid_argument);
}

TEST(InstanceIo, RefusesNonSerializableCostModels) {
  // The general f^σ_m has 2^|S| values per point; write_instance must
  // refuse rather than silently project.
  struct Opaque final : FacilityCostModel {
    CommodityId num_commodities() const noexcept override { return 3; }
    double open_cost(PointId m, const CommoditySet& config) const override {
      check_config(config);
      return 1.0 + m + (config.contains(0) ? 0.5 : 0.0);
    }
    std::string description() const override { return "opaque"; }
  };
  auto metric = std::make_shared<SinglePointMetric>();
  Instance inst(metric, std::make_shared<Opaque>(),
                {Request{0, CommoditySet(3, {0})}});
  EXPECT_THROW((void)instance_to_string(inst), std::invalid_argument);
}

TEST(InstanceIo, PointScaledModelsAreNotSerializable) {
  auto metric = LineMetric::uniform_grid(2, 1.0);
  auto base = std::make_shared<PolynomialCostModel>(2, 1.0);
  auto cost = std::make_shared<PointScaledCostModel>(
      base, std::vector<double>{1.0, 2.0});
  Instance inst(metric, cost, {Request{0, CommoditySet(2, {0})}});
  EXPECT_THROW((void)instance_to_string(inst), std::invalid_argument);
}

TEST(InstanceIo, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\nOMFLP-INSTANCE v1\n\nname commented\n"
      "commodities 2\n# metric next\nmetric matrix 1\n0\n"
      "cost sizeonly 0 1 1.5\nrequests 1\n0 2 0 1\n";
  const Instance inst = instance_from_string(text);
  EXPECT_EQ(inst.name(), "commented");
  EXPECT_EQ(inst.num_requests(), 1u);
  EXPECT_EQ(inst.request(0).commodities.count(), 2u);
}

}  // namespace
}  // namespace omflp
