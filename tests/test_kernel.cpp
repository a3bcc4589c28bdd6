// Kernel-layer tests: the scalar kernels against naive reference loops,
// BidPlane storage semantics (alignment, lazy activation, growth), the
// DistanceOracle row accessor on both paths and from several threads,
// kernelized PD against naive pre-refactor-style recomputation on all
// four metric families, audit cleanliness on long adversarial runs in
// both bid modes.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "kernel/bid_plane.hpp"
#include "kernel/kernels.hpp"
#include "metric/distance_oracle.hpp"
#include "metric/euclidean_metric.hpp"
#include "metric/graph_metric.hpp"
#include "metric/line_metric.hpp"
#include "metric/matrix_metric.hpp"
#include "solution/verifier.hpp"
#include "support/rng.hpp"

namespace omflp {
namespace {

double positive_part(double x) { return x > 0.0 ? x : 0.0; }

std::vector<double> random_row(Rng& rng, std::size_t n, double lo,
                               double hi) {
  std::vector<double> row(n);
  for (double& x : row) x = rng.uniform(lo, hi);
  return row;
}

// --------------------------------------------------------- scalar kernels ---

TEST(Kernels, AccumulateClippedBidMatchesNaiveLoop) {
  Rng rng(7);
  const std::size_t n = 1000;
  const std::vector<double> dist = random_row(rng, n, 0.0, 10.0);
  std::vector<double> row = random_row(rng, n, 0.0, 5.0);
  std::vector<double> expected = row;
  const double v = 6.5;
  for (std::size_t m = 0; m < n; ++m)
    expected[m] += positive_part(v - dist[m]);
  kernel::accumulate_clipped_bid(row.data(), dist.data(), v, n);
  for (std::size_t m = 0; m < n; ++m) EXPECT_EQ(row[m], expected[m]);
}

TEST(Kernels, ShiftClippedBidMatchesNaiveLoop) {
  Rng rng(8);
  const std::size_t n = 1000;
  const std::vector<double> dist = random_row(rng, n, 0.0, 10.0);
  std::vector<double> row = random_row(rng, n, 0.0, 5.0);
  std::vector<double> expected = row;
  const double v_old = 7.0, v_new = 3.25;
  for (std::size_t m = 0; m < n; ++m)
    expected[m] -=
        positive_part(v_old - dist[m]) - positive_part(v_new - dist[m]);
  kernel::shift_clipped_bid(row.data(), dist.data(), v_old, v_new, n);
  for (std::size_t m = 0; m < n; ++m) EXPECT_EQ(row[m], expected[m]);
}

TEST(Kernels, ShiftUndoesAccumulate) {
  Rng rng(9);
  const std::size_t n = 257;
  const std::vector<double> dist = random_row(rng, n, 0.0, 4.0);
  std::vector<double> row(n, 0.0);
  kernel::accumulate_clipped_bid(row.data(), dist.data(), 2.5, n);
  kernel::shift_clipped_bid(row.data(), dist.data(), 2.5, 0.0, n);
  for (std::size_t m = 0; m < n; ++m) EXPECT_EQ(row[m], 0.0);
}

TEST(Kernels, ArgminFirstIndexTieBreak) {
  const std::vector<double> row = {3.0, 1.0, 4.0, 1.0, 5.0};
  EXPECT_EQ(kernel::argmin_over_row(row.data(), row.size()), 1u);
  const std::vector<double> flat(17, 2.0);
  EXPECT_EQ(kernel::argmin_over_row(flat.data(), flat.size()), 0u);
}

TEST(Kernels, ArgminWhereRespectsMaskAndTies) {
  const std::vector<double> row = {0.5, 1.0, 0.25, 1.0, 0.25};
  const std::vector<std::uint32_t> keys = {3, 1, 2, 0, 2};
  // limit 0: only index 3 eligible.
  EXPECT_EQ(kernel::argmin_over_row_where(row.data(), keys.data(), 0,
                                          row.size()),
            3u);
  // limit 2: {1,2,3,4} eligible; min 0.25 first at index 2.
  EXPECT_EQ(kernel::argmin_over_row_where(row.data(), keys.data(), 2,
                                          row.size()),
            2u);
  // limit below every key: none eligible.
  const std::vector<std::uint32_t> high(row.size(), 9);
  EXPECT_EQ(kernel::argmin_over_row_where(row.data(), high.data(), 3,
                                          row.size()),
            row.size());
}

TEST(Kernels, MinTightnessMatchesNaiveScanWithDivisor) {
  Rng rng(11);
  const std::size_t n = 777;
  const std::vector<double> dist = random_row(rng, n, 0.0, 10.0);
  const std::vector<double> cost = random_row(rng, n, 0.0, 8.0);
  const std::vector<double> bids = random_row(rng, n, 0.0, 6.0);
  for (const double divisor : {1.0, 3.0}) {
    for (const double raised : {0.0, 2.0, 100.0}) {
      double best = std::numeric_limits<double>::infinity();
      std::size_t best_m = static_cast<std::size_t>(-1);
      for (std::size_t m = 0; m < n; ++m) {
        const double delta =
            positive_part(dist[m] + positive_part(cost[m] - bids[m]) -
                          raised) /
            divisor;
        if (delta < best) {
          best = delta;
          best_m = m;
        }
      }
      const kernel::RowEvent event = kernel::min_tightness_over_row(
          dist.data(), cost.data(), bids.data(), raised, divisor, n);
      EXPECT_EQ(event.delta, best);
      EXPECT_EQ(event.index, best_m);
    }
  }
}

TEST(Kernels, MinTightnessEarlyExitReturnsFirstTightIndex) {
  // Two tight points (delta 0); the scan must return the first.
  std::vector<double> dist(2000, 5.0);
  std::vector<double> cost(2000, 1.0);
  std::vector<double> bids(2000, 0.0);
  bids[700] = 1.0;
  bids[1500] = 1.0;
  const kernel::RowEvent event = kernel::min_tightness_over_row(
      dist.data(), cost.data(), bids.data(), /*raised=*/5.0, 1.0,
      dist.size());
  EXPECT_EQ(event.delta, 0.0);
  EXPECT_EQ(event.index, 700u);
}

// ---------------------------------------------------------------- BidPlane ---

TEST(BidPlane, LazyActivationZeroFillAndStats) {
  kernel::BidPlane plane;
  plane.reset(10, 33);
  EXPECT_EQ(plane.num_rows(), 10u);
  EXPECT_EQ(plane.row_length(), 33u);
  EXPECT_EQ(plane.stride(), 40u);  // 33 rounded up to a multiple of 8
  EXPECT_EQ(plane.activated_rows(), 0u);
  for (std::size_t r = 0; r < 10; ++r) EXPECT_FALSE(plane.active(r));

  double* row7 = plane.activate(7);
  EXPECT_TRUE(plane.active(7));
  EXPECT_EQ(plane.activated_rows(), 1u);
  for (std::size_t m = 0; m < 33; ++m) EXPECT_EQ(row7[m], 0.0);
  row7[0] = 1.5;
  // Re-activation is idempotent: contents survive.
  EXPECT_EQ(plane.activate(7)[0], 1.5);
  EXPECT_EQ(plane.activated_rows(), 1u);
}

TEST(BidPlane, RowsAre64ByteAlignedAndGrowthPreservesContents) {
  kernel::BidPlane plane;
  plane.reset(64, 19);
  for (std::size_t r = 0; r < 64; ++r) {
    double* row = plane.activate(r);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row) % 64, 0u)
        << "row " << r;
    for (std::size_t m = 0; m < 19; ++m)
      row[m] = static_cast<double>(r * 100 + m);
  }
  EXPECT_EQ(plane.activated_rows(), 64u);
  for (std::size_t r = 0; r < 64; ++r) {
    const double* row = plane.row(r);
    for (std::size_t m = 0; m < 19; ++m)
      ASSERT_EQ(row[m], static_cast<double>(r * 100 + m));
  }
}

TEST(BidPlane, ResetDeactivatesEverything) {
  kernel::BidPlane plane;
  plane.reset(4, 8);
  plane.activate(2)[3] = 9.0;
  plane.reset(4, 8);
  EXPECT_EQ(plane.activated_rows(), 0u);
  EXPECT_FALSE(plane.active(2));
  EXPECT_EQ(plane.activate(2)[3], 0.0);
}

TEST(BidPlane, SparseWorkloadOnlyActivatesTouchedRows) {
  // A PD run whose requests only ever demand 2 of 40 commodities must not
  // allocate bid rows for the other 38 (satellite: no O(|E|·|M|) memory
  // for sparse-commodity scenarios). Row |S| (the large side) is always
  // active in incremental mode.
  Rng rng(31);
  std::vector<double> positions;
  for (std::size_t i = 0; i < 16; ++i)
    positions.push_back(rng.uniform(0.0, 20.0));
  auto metric = std::make_shared<LineMetric>(std::move(positions));
  auto cost = std::make_shared<PolynomialCostModel>(40, 1.0);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 30; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(16));
    CommoditySet demand(40);
    demand.add(static_cast<CommodityId>(rng.uniform_index(2)));  // e ∈ {0,1}
    r.commodities = demand;
    requests.push_back(std::move(r));
  }
  const Instance inst(metric, cost, std::move(requests));
  PdOmflp pd;
  (void)run_online(pd, inst);
  EXPECT_LE(pd.bid_plane().activated_rows(), 3u);  // ≤ {0, 1} + large row
  EXPECT_GE(pd.bid_plane().activated_rows(), 1u);
}

// ------------------------------------------------------ DistanceOracle row ---

TEST(DistanceOracleRow, CachedAndFallbackRowsMatchOperatorOnAllFamilies) {
  Rng rng(41);
  std::vector<double> line_positions, coords;
  for (std::size_t i = 0; i < 12; ++i) {
    line_positions.push_back(rng.uniform(0.0, 9.0));
    coords.push_back(rng.uniform(-3.0, 3.0));
    coords.push_back(rng.uniform(-3.0, 3.0));
  }
  std::vector<GraphEdge> edges;
  for (PointId i = 0; i + 1 < 12; ++i)
    edges.push_back({i, static_cast<PointId>(i + 1),
                     rng.uniform(0.5, 2.0)});
  edges.push_back({0, 11, 1.0});
  const LineMetric ruler(line_positions);
  std::vector<std::vector<double>> matrix(12, std::vector<double>(12));
  for (PointId a = 0; a < 12; ++a)
    for (PointId b = 0; b < 12; ++b) matrix[a][b] = ruler.distance(a, b);

  const std::vector<MetricPtr> families = {
      std::make_shared<LineMetric>(line_positions),
      std::make_shared<EuclideanMetric>(2, coords),
      std::make_shared<GraphMetric>(12, edges),
      std::make_shared<MatrixMetric>(matrix),
  };
  for (const MetricPtr& metric : families) {
    const DistanceOracle cached(metric);
    const DistanceOracle fallback(metric, /*cache_limit=*/0);
    ASSERT_TRUE(cached.cached());
    ASSERT_FALSE(fallback.cached());
    for (PointId p = 0; p < 12; ++p) {
      const double* cached_row = cached.row(p);
      for (PointId b = 0; b < 12; ++b)
        ASSERT_EQ(cached_row[b], cached(p, b))
            << metric->description() << " p=" << p << " b=" << b;
      // Fetch the fallback row after the cached loop: on this path the
      // pointer is only valid until the next row() call.
      const double* fallback_row = fallback.row(p);
      for (PointId b = 0; b < 12; ++b)
        ASSERT_EQ(fallback_row[b], cached_row[b])
            << metric->description() << " p=" << p << " b=" << b;
    }
  }
}

// A metric's table is shared by every consumer, possibly on several
// threads: four threads race the first distances() call (the one-time
// build) and then read every row, on the dense path and, through a
// private cache_limit = 0 table, on the per-thread fallback slot.
TEST(DistanceOracleRow, RowsReadFromFourThreadsOnBothPaths) {
  const std::size_t n = 96;
  Rng rng(43);
  std::vector<double> pos;
  for (std::size_t i = 0; i < n; ++i) pos.push_back(rng.uniform(0.0, 50.0));
  const auto metric = std::make_shared<LineMetric>(std::move(pos));
  const DistanceOracle fallback(metric, /*cache_limit=*/0);
  ASSERT_FALSE(fallback.cached());

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      const DistanceOracle& dense = metric->distances();
      for (std::size_t k = 0; k < n; ++k) {
        const auto p = static_cast<PointId>((k * 7 + t * 13) % n);
        const double* dense_row = dense.row(p);
        const double* fallback_row = fallback.row(p);
        for (PointId b = 0; b < n; ++b) {
          const double d = metric->distance(p, b);
          if (dense_row[b] != d || fallback_row[b] != d) ++mismatches;
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_TRUE(metric->distances().cached());
}

// ----------------------------------- kernelized PD vs naive recompute ------

/// A naive, pre-refactor-style reference recompute of the constraint-(3)
/// bid row from the exported dual records — scalar loops, virtual metric
/// calls, no kernels or oracle rows — for cross-checking the kernelized
/// pipeline on every metric family. It recomputes d(F(e), j) against the
/// final facility set, so it is compared against a *reference-mode* PD
/// whose rows are recomputed the same way at the final state.
std::vector<double> naive_final_bid_row(const Instance& inst,
                                        const SolutionLedger& ledger,
                                        const std::vector<PdDualRecord>& recs,
                                        CommodityId e) {
  const MetricSpace& metric = *inst.metric_ptr();
  const std::size_t n = metric.num_points();
  std::vector<double> out(n, 0.0);
  for (const PdDualRecord& rec : recs) {
    for (std::size_t slot = 0; slot < rec.commodities.size(); ++slot) {
      if (rec.commodities[slot] != e) continue;
      double dist_e = kInfiniteDistance;
      for (FacilityId f = 0; f < ledger.num_facilities(); ++f)
        if (ledger.facility(f).config.contains(e))
          dist_e = std::min(
              dist_e, metric.distance(rec.location,
                                      ledger.facility(f).location));
      const double v = std::min(rec.duals[slot], dist_e);
      if (v <= 0.0) continue;
      for (PointId m = 0; m < n; ++m)
        out[m] += positive_part(v - metric.distance(m, rec.location));
    }
  }
  return out;
}

class KernelizedPdFamilies : public ::testing::TestWithParam<int> {};

TEST_P(KernelizedPdFamilies, MatchesNaiveRecomputeAndStaysAuditClean) {
  Rng rng(100 + GetParam());
  const std::size_t n = 14;
  MetricPtr metric;
  switch (GetParam()) {
    case 0: {
      std::vector<double> pos;
      for (std::size_t i = 0; i < n; ++i)
        pos.push_back(rng.uniform(0.0, 30.0));
      metric = std::make_shared<LineMetric>(std::move(pos));
      break;
    }
    case 1: {
      std::vector<double> coords;
      for (std::size_t i = 0; i < 2 * n; ++i)
        coords.push_back(rng.uniform(-5.0, 5.0));
      metric = std::make_shared<EuclideanMetric>(2, std::move(coords));
      break;
    }
    case 2: {
      std::vector<GraphEdge> edges;
      for (PointId i = 0; i + 1 < n; ++i)
        edges.push_back({i, static_cast<PointId>(i + 1),
                         rng.uniform(0.5, 3.0)});
      for (int extra = 0; extra < 6; ++extra) {
        const auto u = static_cast<PointId>(rng.uniform_index(n));
        const auto v = static_cast<PointId>(rng.uniform_index(n));
        if (u != v) edges.push_back({u, v, rng.uniform(0.5, 4.0)});
      }
      metric = std::make_shared<GraphMetric>(n, edges);
      break;
    }
    default: {
      std::vector<double> pos;
      for (std::size_t i = 0; i < n; ++i)
        pos.push_back(rng.uniform(0.0, 30.0));
      const LineMetric ruler(pos);
      std::vector<std::vector<double>> matrix(n, std::vector<double>(n));
      for (PointId a = 0; a < n; ++a)
        for (PointId b = 0; b < n; ++b) matrix[a][b] = ruler.distance(a, b);
      metric = std::make_shared<MatrixMetric>(std::move(matrix));
      break;
    }
  }
  auto cost = std::make_shared<PolynomialCostModel>(5, 1.3);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 40; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(n));
    r.commodities = sample_demand_set(5, 1 + rng.uniform_index(3), 0.0, rng);
    requests.push_back(std::move(r));
  }
  const Instance inst(metric, cost, std::move(requests));

  // Reference and incremental runs must agree and audit clean.
  PdOmflp reference{PdOptions{.bid_mode = PdOptions::BidMode::kReference}};
  PdOmflp incremental;
  const SolutionLedger lr = run_online(reference, inst);
  const SolutionLedger li = run_online(incremental, inst);
  EXPECT_FALSE(verify_solution(inst, lr).has_value());
  EXPECT_FALSE(verify_solution(inst, li).has_value());
  EXPECT_NEAR(lr.total_cost(), li.total_cost(), 1e-7);
  ASSERT_FALSE(reference.audit_state().has_value());
  ASSERT_FALSE(incremental.audit_state().has_value());

  // The kernelized incremental rows match a fully naive recompute (virtual
  // metric calls, scalar loops) of the final-state bid rows.
  for (CommodityId e = 0; e < 5; ++e) {
    if (!incremental.bid_plane().active(e)) continue;
    const std::vector<double> naive =
        naive_final_bid_row(inst, li, incremental.dual_records(), e);
    const double* kernelized = incremental.bid_plane().row(e);
    for (PointId m = 0; m < n; ++m)
      ASSERT_NEAR(kernelized[m], naive[m], 1e-7 * (1.0 + naive[m]))
          << "family " << GetParam() << " e=" << e << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, KernelizedPdFamilies,
                         ::testing::Values(0, 1, 2, 3));

// ----------------------------------------- uncached-oracle (fallback) ------

TEST(FallbackOracle, AlgorithmsRunCleanBeyondTheMatrixCacheLimit) {
  // 4100 points > DistanceOracle's 4096-point cache limit, so every
  // algorithm-level fallback branch runs for real (and under the ASan CI
  // job): PdOmflp::serve's dist_loc_scratch_ copy, the lazy dist_j fetch
  // in recompute_small_bid_row, prefix_nearest's single-slot row reuse,
  // and the row-gather facility scans.
  const std::size_t n = 4100;
  Rng rng(71);
  std::vector<double> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pos.push_back(rng.uniform(0.0, 500.0));
  auto metric = std::make_shared<LineMetric>(std::move(pos));
  {
    const DistanceOracle probe(metric);
    ASSERT_FALSE(probe.cached()) << "test premise: fallback path";
  }
  auto cost = std::make_shared<PolynomialCostModel>(3, 1.2);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(n));
    r.commodities = sample_demand_set(3, 1 + rng.uniform_index(2), 0.0, rng);
    requests.push_back(std::move(r));
  }
  const Instance inst(metric, cost, std::move(requests));

  for (const PdOptions::BidMode mode :
       {PdOptions::BidMode::kIncremental, PdOptions::BidMode::kReference}) {
    PdOmflp pd{PdOptions{.bid_mode = mode}};
    const SolutionLedger ledger = run_online(pd, inst);
    EXPECT_FALSE(verify_solution(inst, ledger).has_value());
    const auto issue = pd.audit_state();
    EXPECT_FALSE(issue.has_value()) << pd.name() << ": " << *issue;
  }
  RandOmflp rand_algorithm;
  EXPECT_FALSE(
      verify_solution(inst, run_online(rand_algorithm, inst)).has_value());
}

// ----------------------------------------------- long adversarial audits ---

class PdLongAdversarial : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdLongAdversarial, AuditCleanInBothBidModesMidSequence) {
  Rng rng(GetParam());
  Theorem2Config cfg;
  cfg.num_commodities = 49;
  const Instance theorem2 = make_theorem2_instance(cfg, rng);

  std::vector<double> pos;
  for (std::size_t i = 0; i < 20; ++i) pos.push_back(rng.uniform(0.0, 60.0));
  auto metric = std::make_shared<LineMetric>(std::move(pos));
  auto cost = std::make_shared<PolynomialCostModel>(8, 1.1);
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 250; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(20));
    r.commodities = sample_demand_set(8, 1 + rng.uniform_index(4), 0.0, rng);
    requests.push_back(std::move(r));
  }
  const Instance longrun(metric, cost, std::move(requests));

  for (const Instance* inst : {&theorem2, &longrun}) {
    for (const PdOptions::BidMode mode :
         {PdOptions::BidMode::kIncremental, PdOptions::BidMode::kReference}) {
      PdOmflp pd{PdOptions{.bid_mode = mode}};
      SolutionLedger ledger(inst->metric_ptr(), inst->cost_ptr());
      pd.reset(ProblemContext{inst->metric_ptr(), inst->cost_ptr()});
      std::size_t served = 0;
      for (const Request& r : inst->requests()) {
        ledger.begin_request(r);
        pd.serve(r, ledger);
        ledger.finish_request();
        if (++served % 50 == 0 || served == inst->num_requests()) {
          const auto issue = pd.audit_state();
          ASSERT_FALSE(issue.has_value())
              << pd.name() << " after " << served << ": " << *issue;
        }
      }
      EXPECT_FALSE(verify_solution(*inst, ledger).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdLongAdversarial,
                         ::testing::Values(1, 4));

// --------------------------------------------- NaN / divisor edge cases ---

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(KernelEdgeCases, ArgminNeverPicksNaN) {
  // Regression: the running best used to be seeded with row[0], so a NaN
  // in the first slot made every later "x < best" comparison false and
  // the NaN index won the argmin silently.
  const std::vector<double> row = {kNaN, 3.0, 1.0, 2.0};
  EXPECT_EQ(kernel::argmin_over_row(row.data(), row.size()), 2u);

  const std::vector<double> mid = {5.0, kNaN, 4.0, kNaN, 6.0};
  EXPECT_EQ(kernel::argmin_over_row(mid.data(), mid.size()), 2u);
}

TEST(KernelEdgeCases, ArgminAllNaNOrInfReturnsFirstIndex) {
  const std::vector<double> nans = {kNaN, kNaN, kNaN};
  EXPECT_EQ(kernel::argmin_over_row(nans.data(), nans.size()), 0u);
  const std::vector<double> mixed = {kInf, kNaN, kInf};
  EXPECT_EQ(kernel::argmin_over_row(mixed.data(), mixed.size()), 0u);
}

TEST(KernelEdgeCases, ArgminMaskedIgnoresNaNAndReportsNoneEligible) {
  const std::vector<double> row = {kNaN, 2.0, 1.0, kNaN};
  const std::vector<std::uint32_t> keys = {0, 1, 5, 0};
  // NaN at an eligible slot never beats a finite eligible value.
  EXPECT_EQ(kernel::argmin_over_row_where(row.data(), keys.data(),
                                          /*limit=*/1, row.size()),
            1u);
  // Every eligible slot NaN -> "none eligible" (n), not a NaN index.
  EXPECT_EQ(kernel::argmin_over_row_where(row.data(), keys.data(),
                                          /*limit=*/0, row.size()),
            row.size());
}

TEST(KernelEdgeCases, MinTightnessSkipsNaNElements) {
  // Point 0 has a NaN bid; point 1 is genuinely tight. The NaN must
  // neither win the event scan nor poison the running minimum.
  const std::vector<double> dist = {0.0, 1.0, 3.0};
  const std::vector<double> cost = {5.0, 2.0, 4.0};
  const std::vector<double> bids = {kNaN, 2.0, 0.0};
  const kernel::RowEvent event = kernel::min_tightness_over_row(
      dist.data(), cost.data(), bids.data(), /*raised=*/1.0,
      /*divisor=*/1.0, dist.size());
  EXPECT_EQ(event.index, 1u);
  EXPECT_EQ(event.delta, 0.0);

  const std::vector<double> all_nan = {kNaN, kNaN, kNaN};
  const kernel::RowEvent none = kernel::min_tightness_over_row(
      all_nan.data(), cost.data(), bids.data(), /*raised=*/0.0,
      /*divisor=*/1.0, all_nan.size());
  EXPECT_FALSE(std::isfinite(none.delta));  // no event reported
}

TEST(KernelEdgeCases, MinTightnessNonPositiveDivisorReportsNoEvent) {
  const std::vector<double> dist = {0.0, 1.0};
  const std::vector<double> cost = {0.0, 2.0};
  const std::vector<double> bids = {0.0, 0.0};
  // Point 0 is tight (delta 0): with divisor 0 the old code computed
  // 0/0 = NaN, and with a negative divisor positive deltas became
  // negative winning "event times". Both must report no event instead.
  for (const double divisor : {0.0, -1.0, kNaN}) {
    const kernel::RowEvent event = kernel::min_tightness_over_row(
        dist.data(), cost.data(), bids.data(), /*raised=*/0.0, divisor,
        dist.size());
    EXPECT_EQ(event.delta, kInf) << "divisor " << divisor;
    EXPECT_EQ(event.index, static_cast<std::size_t>(-1))
        << "divisor " << divisor;
  }
}

}  // namespace
}  // namespace omflp
