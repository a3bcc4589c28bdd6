// Baseline algorithm tests: Fotakis/Meyerson on one commodity and as the
// per-commodity product (singleton facilities, per-commodity cost), and
// the greedy strawmen.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "bound/dual_ascent.hpp"
#include "core/stream_runner.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "instance/tracelog_io.hpp"
#include "metric/line_metric.hpp"
#include "obs/trace_sink.hpp"
#include "pinned_hash.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "solution/verifier.hpp"
#include "support/stats.hpp"

namespace omflp {
namespace {

Instance single_commodity_line(std::vector<double> positions,
                               std::vector<PointId> request_points,
                               double facility_cost) {
  auto metric = std::make_shared<LineMetric>(std::move(positions));
  auto cost = std::make_shared<SizeOnlyCostModel>(
      1, [facility_cost](CommodityId k) { return k ? facility_cost : 0.0; });
  std::vector<Request> reqs;
  for (PointId p : request_points)
    reqs.push_back(Request{p, CommoditySet::full_set(1)});
  return Instance(std::move(metric), std::move(cost), std::move(reqs));
}

TEST(FotakisOfl, OpensThenReuses) {
  // Facility cost 1; request at 0 opens, request at 0.25 connects.
  const Instance inst =
      single_commodity_line({0.0, 0.25}, {0, 1}, 1.0);
  FotakisOfl alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 1.25, 1e-9);
  EXPECT_NEAR(alg.dual(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(alg.dual(1, 0), 0.25, 1e-9);
  EXPECT_NEAR(alg.total_dual(), 1.25, 1e-9);
}

TEST(FotakisOfl, RepeatedRequestsAmortizeIntoNearbyFacility) {
  // Two clusters far apart: requests alternate; each cluster eventually
  // gets its own facility and the total stays near 2 openings + local
  // distances.
  const Instance inst = single_commodity_line(
      {0.0, 100.0}, {0, 1, 0, 1, 0, 1, 0, 1}, 5.0);
  FotakisOfl alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 2u);
  EXPECT_NEAR(ledger.total_cost(), 10.0, 1e-9);
}

TEST(MeyersonOfl, ValidAndBoundedOnZooming) {
  Rng rng(1);
  ZoomingConfig cfg;
  cfg.num_requests = 64;
  cfg.num_commodities = 1;
  cfg.demand_size = 1;
  auto cost = std::make_shared<SizeOnlyCostModel>(
      1, [](CommodityId k) { return k ? 4.0 : 0.0; });
  const Instance inst = make_zooming_line(cfg, cost, rng);
  RunningStats stats;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    MeyersonOfl alg(seed);
    const SolutionLedger ledger = run_online(alg, inst);
    EXPECT_FALSE(verify_solution(inst, ledger).has_value());
    stats.add(ledger.total_cost());
  }
  ASSERT_TRUE(inst.opt_certificate().has_value());
  const double opt_ub = inst.opt_certificate()->upper_bound;
  // Expected O(log n / log log n) ratio; generous sanity ceiling.
  EXPECT_LE(stats.mean(), 20.0 * opt_ub);
}

TEST(FotakisOfl, OpensSingletonsOnly) {
  Rng rng(2);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 30;
  cfg.num_commodities = 5;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(5, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);

  FotakisOfl alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  for (const auto& f : ledger.facilities())
    EXPECT_EQ(f.config.count(), 1u)
        << "per-commodity baseline must open singletons only";
}

TEST(FotakisOfl, PaysPerCommodityOnTheorem2) {
  // The per-commodity product cannot bundle: on the Theorem 2 game it
  // opens one singleton per distinct commodity, total √|S| · OPT.
  Rng rng(3);
  Theorem2Config cfg;
  cfg.num_commodities = 144;  // 12 requests
  const Instance inst = make_theorem2_instance(cfg, rng);
  FotakisOfl alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 12u);
  EXPECT_NEAR(ledger.total_cost(), 12.0, 1e-9);
}

TEST(MeyersonOfl, ValidOnMultiCommodityWorkload) {
  Rng rng(4);
  UniformLineConfig cfg;
  cfg.num_points = 8;
  cfg.num_requests = 25;
  cfg.num_commodities = 4;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(4, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  MeyersonOfl alg(99);
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  for (const auto& f : ledger.facilities())
    EXPECT_EQ(f.config.count(), 1u);
}

/// A line metric that counts its distance() calls.
class CountingMetric final : public MetricSpace {
 public:
  explicit CountingMetric(std::size_t n)
      : line_(LineMetric::uniform_grid(n, 10.0)) {}
  std::size_t num_points() const noexcept override {
    return line_->num_points();
  }
  double distance(PointId a, PointId b) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return line_->distance(a, b);
  }
  std::string description() const override { return "counting"; }

  mutable std::atomic<std::size_t> calls{0};

 private:
  std::shared_ptr<LineMetric> line_;
};

// The twelve commodities of the per-commodity baseline and the OPT
// bounder all read the metric's one distance table: a first run builds
// it (|M|² calls), an identical second run on the same metric builds
// nothing, so the two runs differ by exactly one table.
TEST(FotakisOfl, CommoditiesAndBounderShareOneDistanceTable) {
  const std::size_t n = 48;
  const CommodityId s = 12;
  auto metric = std::make_shared<CountingMetric>(n);
  auto cost = std::make_shared<PolynomialCostModel>(s, 1.0);
  std::vector<Request> requests;
  for (PointId i = 0; i < 36; ++i) {
    CommoditySet demand(s);
    demand.add(i % s);
    demand.add((i * 5 + 3) % s);
    requests.push_back(Request{static_cast<PointId>(i * 7 % n), demand});
  }
  const Instance inst(metric, cost, std::move(requests));

  const auto calls_of_one_run = [&] {
    const std::size_t before = metric->calls.load();
    FotakisOfl alg;
    (void)run_online(alg, inst);
    (void)dual_ascent_lower_bound(inst);
    return metric->calls.load() - before;
  };
  const std::size_t first = calls_of_one_run();
  const std::size_t second = calls_of_one_run();
  EXPECT_EQ(first - second, n * n);
  EXPECT_LT(second, n * n);
}

// --------------------------------------------------------------- greedy --

// Regression: each commodity's archive kept every arrival for the whole
// run, departed ones included. Every lease-poisson arrival leaves again,
// so at every batch boundary the archive must hold at most twice the
// commodity's live requests.
TEST(FotakisOfl, ArchiveFollowsTheActiveSet) {
  const EventStream stream = default_stream_scenario_registry().make(
      "lease-poisson", /*seed=*/3, {{"events", 20000}});
  FotakisOfl fotakis;
  MaterializedEventSource source(stream);
  StreamRunOptions options;
  options.batch_size = 256;
  StreamSession session(fotakis, source, options);
  std::size_t largest = 0;
  while (session.step_batch() > 0) {
    const SolutionLedger& ledger = session.ledger();
    std::vector<std::size_t> live(stream.num_commodities(), 0);
    for (RequestId id = ledger.first_record_id(); id < ledger.num_requests();
         ++id) {
      if (!ledger.resident(id) || !ledger.request_record(id).active())
        continue;
      for (const ServedCommodity& sc : ledger.request_record(id).served)
        ++live[sc.commodity];
    }
    for (CommodityId e = 0; e < stream.num_commodities(); ++e) {
      ASSERT_LE(fotakis.archive_size(e), 2 * live[e])
          << "commodity " << e << " after " << session.events_processed()
          << " events";
      largest = std::max(largest, fotakis.archive_size(e));
    }
  }
  EXPECT_GT(largest, 0u);
  EXPECT_LT(largest, stream.num_arrivals() / 8);
}

TEST(AlwaysOpen, OpensEveryTime) {
  Rng rng(5);
  SinglePointMixedConfig cfg;
  cfg.num_requests = 10;
  cfg.num_commodities = 6;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0);
  const Instance inst = make_single_point_mixed(cfg, cost, rng);
  AlwaysOpen alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 10u);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 0.0);
}

TEST(NearestOrOpen, ConnectsWhenCheaper) {
  const Instance inst = single_commodity_line({0.0, 0.5}, {0, 1}, 2.0);
  NearestOrOpen alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 2.5, 1e-9);
}

Instance commuter_instance() {
  // One facility-seeding request at 0, then 20 requests at distance 4
  // from it with opening cost 5: "connect if closer than opening" rents
  // forever (pays 4 per request); amortizing algorithms buy a second
  // facility after about one rent cycle.
  std::vector<PointId> points(21, 1);
  points[0] = 0;
  return Instance(
      std::make_shared<LineMetric>(std::vector<double>{0.0, 4.0}),
      std::make_shared<SizeOnlyCostModel>(
          1, [](CommodityId k) { return k ? 5.0 : 0.0; }),
      [&] {
        std::vector<Request> reqs;
        for (PointId p : points)
          reqs.push_back(Request{p, CommoditySet::full_set(1)});
        return reqs;
      }(),
      "commuter");
}

TEST(NearestOrOpen, RentsForeverOnCommuterWorkload) {
  // The classic failure mode of non-amortizing greedy: it keeps paying
  // the distance 4 "rent" for every request (total ≈ 85) while the
  // primal-dual algorithm buys a local facility after the bids at the
  // commuter point reach the opening cost (total ≈ 14).
  const Instance inst = commuter_instance();
  NearestOrOpen greedy;
  FotakisOfl fotakis;
  const double greedy_cost = run_online(greedy, inst).total_cost();
  const double fotakis_cost = run_online(fotakis, inst).total_cost();
  EXPECT_NEAR(greedy_cost, 5.0 + 20.0 * 4.0, 1e-9);
  EXPECT_NEAR(fotakis_cost, 5.0 + 4.0 + 5.0, 1e-9);
  EXPECT_GT(greedy_cost, 2.0 * fotakis_cost);
}

TEST(RentOrBuy, ValidOnMixedWorkload) {
  Rng rng(7);
  UniformLineConfig cfg;
  cfg.num_points = 12;
  cfg.num_requests = 40;
  cfg.num_commodities = 6;
  cfg.max_demand = 3;
  auto cost = std::make_shared<PolynomialCostModel>(6, 1.0);
  const Instance inst = make_uniform_line(cfg, cost, rng);
  RentOrBuy alg;
  const SolutionLedger ledger = run_online(alg, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
}

TEST(RentOrBuy, AmortizesOnCommuterWorkload) {
  // Rent 4, rent would reach 8 > 5 → buy locally, then ride free:
  // 5 (seed) + 4 (one rent) + 5 (buy) = 14 ≪ 85 for NearestOrOpen.
  const Instance inst = commuter_instance();
  RentOrBuy rent;
  NearestOrOpen naive;
  const double rent_cost = run_online(rent, inst).total_cost();
  EXPECT_NEAR(rent_cost, 14.0, 1e-9);
  EXPECT_LT(rent_cost, run_online(naive, inst).total_cost() / 2.0);
}

// ------------------------------------------------- pinned decisions ----

/// A checkpoint's bytes without what wall time decides: the run_ns token
/// that ends the session-stats line and the checksum line covering it.
std::string checkpoint_without_wall_time(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::string out;
  while (std::getline(is, line)) {
    if (line.starts_with("checksum ")) continue;
    if (line.starts_with("session-stats ")) line.erase(line.rfind(' '));
    out += line;
    out += '\n';
  }
  return out;
}

// The decisions of every algorithm besides PD that reads d(F(e), r),
// pinned like PdPinnedDecisions: the OMFLP-TRACELOG bytes of a whole
// stream run and the final ledger costs at 17 significant digits hash to
// the decisions digest; the bytes of one mid-stream StreamSession
// checkpoint hash to the checkpoint digest. The points=5000 cases run
// past the dense distance table. A change to how an algorithm finds its
// facilities must leave every decisions digest where it was; a change to
// its checkpoint layout moves only the checkpoint digest.
TEST(BaselinePinnedDecisions, TracelogCostsAndCheckpointHashToPinnedValues) {
  struct Case {
    const char* algorithm;
    const char* scenario;
    std::map<std::string, double> overrides;
    std::size_t points;
    std::uint64_t decisions;
    std::uint64_t checkpoint;
  };
  const std::map<std::string, double> events = {{"events", 20000}};
  const std::map<std::string, double> wide = {{"events", 400},
                                              {"points", 5000}};
  const std::vector<Case> cases = {
      {"greedy", "churn-uniform", events, 64, 0x8e30c5f6a63d5b66ull,
       0xeecd390760852345ull},
      {"greedy", "lease-poisson", events, 64, 0x1c56c457e4b1e7feull,
       0xaaaee69eb8559fc8ull},
      {"greedy", "hotspot-grid", events, 144, 0xc1052ac420214a68ull,
       0x60b0a0371025d16cull},
      {"greedy", "churn-uniform", wide, 5000, 0x9b170a34d8cfcb1aull,
       0x8962a49428626812ull},
      {"rentbuy", "churn-uniform", events, 64, 0x29fafe60eb460e45ull,
       0x07137dd3f2ebdd5full},
      {"rentbuy", "lease-poisson", events, 64, 0xe8f4dd9e39e92b46ull,
       0x0322cada6df9b6ddull},
      {"rentbuy", "hotspot-grid", events, 144, 0xc1052ac420214a68ull,
       0xd3e543af6ad35814ull},
      {"rentbuy", "churn-uniform", wide, 5000, 0x505ff9c0bb74ee76ull,
       0x4205604f1d1c9a15ull},
      {"rand", "churn-uniform", events, 64, 0x1c702264d67ebe66ull,
       0xf0760fc028f98b88ull},
      {"rand", "lease-poisson", events, 64, 0x3165a888424a6d10ull,
       0xd315041e5920b798ull},
      {"rand", "hotspot-grid", events, 144, 0xfe6406a59e6a2cd9ull,
       0xaa6ef78157fe01e4ull},
      {"rand", "churn-uniform", wide, 5000, 0xbd5d9514e845768full,
       0xbcb39f6dfd7be665ull},
      {"meyerson", "churn-uniform", events, 64, 0x92da23c406211230ull,
       0xb743588019b80918ull},
      {"meyerson", "lease-poisson", events, 64, 0x7eb15c96ec00dba6ull,
       0xaddd0f55d630c92full},
      {"meyerson", "hotspot-grid", events, 144, 0x27e70674402e6531ull,
       0x9a00efad94328893ull},
      {"meyerson", "churn-uniform", wide, 5000, 0x914dd3d002d33a43ull,
       0xb31621277a23d06full},
      {"fotakis", "churn-uniform", events, 64, 0x721c367053a69da9ull,
       0x01b7fceb6f0fe7e6ull},
      {"fotakis", "lease-poisson", events, 64, 0xafeabfdaac778584ull,
       0xe3634f5dd7392b76ull},
      {"fotakis", "hotspot-grid", events, 144, 0xd5d9194be752a9e0ull,
       0xebc41f9256a862b3ull},
      {"fotakis", "churn-uniform", wide, 5000, 0xe1f195316034fef8ull,
       0xaf7bedb6d7d0a243ull},
  };
  for (const Case& c : cases) {
    const EventStream stream = default_stream_scenario_registry().make(
        c.scenario, /*seed=*/3, c.overrides);
    ASSERT_EQ(stream.metric().num_points(), c.points);
    const auto algorithm = default_algorithm_registry().make(c.algorithm, 3);
    MaterializedEventSource source(stream);
    StreamRunOptions options;
    options.batch_size = stream.num_events() / 4;
    TraceBuffer buffer;
    std::ostringstream checkpoint;
    const StreamRunResult result = [&] {
      TraceScope scope(buffer);
      StreamSession session(*algorithm, source, options);
      (void)session.step_batch();
      (void)session.step_batch();
      CkptWriter writer(checkpoint);
      session.checkpoint(writer);
      writer.finish();
      while (session.step_batch() > 0) {
      }
      return session.finish();
    }();
    char costs[96];
    std::snprintf(costs, sizeof(costs), "%.17g %.17g %.17g\n",
                  result.ledger.opening_cost(),
                  result.ledger.connection_cost(),
                  result.ledger.active_cost());
    const std::uint64_t decisions =
        fnv1a(costs, fnv1a(tracelog_to_string(buffer.events())));
    EXPECT_EQ(hex(decisions), hex(c.decisions))
        << c.algorithm << " on " << c.scenario << " at |M| = " << c.points;
    EXPECT_EQ(hex(fnv1a(checkpoint_without_wall_time(checkpoint.str()))),
              hex(c.checkpoint))
        << c.algorithm << " checkpoint on " << c.scenario
        << " at |M| = " << c.points;
  }
}

}  // namespace
}  // namespace omflp
