// Kernel-layer tests: the scalar kernels against naive reference loops,
// the ball kernels bitwise against the full-row kernels, BidPlane storage
// semantics (alignment, lazy activation, growth), the DistanceOracle row
// and ball accessors on both paths and from several threads,
// kernelized PD against naive pre-refactor-style recomputation on all
// four metric families, audit cleanliness on long adversarial runs in
// both bid modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
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

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

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

// ---------------------------------------------------------- ball kernels ---

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Ids in ascending (dist, id) order, NaN distances last: the order
/// DistanceOracle::ball() gives, for rows no metric would produce.
std::vector<std::uint16_t> ball_of(const std::vector<double>& dist) {
  std::vector<std::uint16_t> ids(dist.size());
  std::iota(ids.begin(), ids.end(), std::uint16_t{0});
  std::stable_sort(ids.begin(), ids.end(), [&](std::uint16_t a,
                                               std::uint16_t b) {
    if (std::isnan(dist[a]) || std::isnan(dist[b]))
      return !std::isnan(dist[a]) && std::isnan(dist[b]);
    return dist[a] < dist[b];
  });
  return ids;
}

/// A value drawn from `pool`: small pools make equal distances on
/// different ids and equal deltas common.
double pick(Rng& rng, const std::vector<double>& pool) {
  return pool[rng.uniform_index(pool.size())];
}

TEST(BallKernels, EventSearchMatchesTheFullRowBitwise) {
  Rng rng(71);
  const std::vector<double> dist_pool = {0.0, -0.0, 0.5, 1.0, 1.0, 1.5,
                                         2.0, 3.25, 4.0, 7.0};
  const std::vector<double> cost_pool = {0.0, -0.0, 1.0, 2.0, 2.0, 3.5,
                                         kInf, kNaN};
  const std::vector<double> bid_pool = {0.0, -0.0, 0.5, 1.0, 2.0, 2.0,
                                        kNaN};
  std::size_t events = 0, early_stops = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(70);
    std::vector<double> dist(n), cost(n), bids(n);
    for (std::size_t m = 0; m < n; ++m) {
      dist[m] = trial % 10 == 9 && m % 7 == 3 ? kNaN
                                              : pick(rng, dist_pool);
      cost[m] = pick(rng, cost_pool);
      bids[m] = pick(rng, bid_pool);
    }
    const std::vector<std::uint16_t> ball = ball_of(dist);
    for (const double divisor : {1.0, 2.0, 3.0, 0.0, -1.0, kNaN}) {
      for (const double raised : {0.0, 0.5, 1.0, 2.25, 10.0}) {
        const kernel::RowEvent full = kernel::min_tightness_over_row(
            dist.data(), cost.data(), bids.data(), raised, divisor, n);
        const kernel::RowEvent walk = kernel::min_tightness_over_ball(
            dist.data(), ball.data(), cost.data(), bids.data(), raised,
            divisor, n);
        ASSERT_TRUE(same_bits(walk.delta, full.delta))
            << "trial " << trial << " divisor " << divisor << " raised "
            << raised << ": " << walk.delta << " vs " << full.delta;
        ASSERT_EQ(walk.index, full.index)
            << "trial " << trial << " divisor " << divisor << " raised "
            << raised;
        ASSERT_LE(walk.visited, n);
        if (full.index != static_cast<std::size_t>(-1)) ++events;
        if (walk.visited < n) ++early_stops;
      }
    }
  }
  // The corpus must exercise both outcomes and the early exit.
  EXPECT_GT(events, 1000u);
  EXPECT_GT(early_stops, 1000u);
}

TEST(BallKernels, EventSearchBreaksEqualDeltasOnTheLowestId) {
  // Points 5 and 2 sit at the same distance with the same delta; point 2
  // comes first by id, so both scans must report it, and the farther
  // points with a larger lower bound are never evaluated.
  const std::vector<double> dist = {9.0, 8.0, 1.0, 7.0, 6.0, 1.0, 0.5};
  const std::vector<double> cost = {0.0, 0.0, 3.0, 0.0, 0.0, 3.0, 9.0};
  const std::vector<double> bids(dist.size(), 0.0);
  const std::vector<std::uint16_t> ball = ball_of(dist);
  const kernel::RowEvent full = kernel::min_tightness_over_row(
      dist.data(), cost.data(), bids.data(), 0.0, 1.0, dist.size());
  const kernel::RowEvent walk = kernel::min_tightness_over_ball(
      dist.data(), ball.data(), cost.data(), bids.data(), 0.0, 1.0,
      dist.size());
  EXPECT_EQ(full.index, 2u);
  EXPECT_EQ(full.delta, 4.0);
  EXPECT_EQ(walk.index, 2u);
  EXPECT_EQ(walk.delta, 4.0);
  EXPECT_EQ(walk.visited, 3u);  // 6, 2, 5; point 4's bound 6 > 4 stops
}

TEST(BallKernels, AccumulateAndShiftMatchTheFullRowBitwise) {
  Rng rng(73);
  const std::vector<double> dist_pool = {0.0, -0.0, 0.5, 1.0, 1.0, 1.5,
                                         2.0, 3.25, 4.0, 7.0};
  // No −0.0 here: it is the one value the skipped `+= 0.0` keeps (see
  // AccumulateKeepsNegativeZeroTheFullRowWouldClear).
  const std::vector<double> row_pool = {0.0, 0.25, 1.0, 2.5, 2.5, 6.0,
                                        kNaN, kInf};
  const std::vector<double> v_pool = {0.0, 0.5, 1.0, 1.75, 3.25, 5.0,
                                      kInf, kNaN};
  std::size_t partial = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(70);
    std::vector<double> dist(n), row(n);
    for (std::size_t m = 0; m < n; ++m) {
      dist[m] = trial % 10 == 9 && m % 5 == 1 ? kNaN
                                              : pick(rng, dist_pool);
      row[m] = pick(rng, row_pool);
    }
    const std::vector<std::uint16_t> ball = ball_of(dist);
    const double v = pick(rng, v_pool);
    const double v_new = pick(rng, v_pool);

    std::vector<double> full = row, walk = row;
    kernel::accumulate_clipped_bid(full.data(), dist.data(), v, n);
    const std::size_t added = kernel::accumulate_clipped_bid_ball(
        walk.data(), dist.data(), ball.data(), v, n);
    for (std::size_t m = 0; m < n; ++m)
      ASSERT_TRUE(same_bits(walk[m], full[m]))
          << "accumulate trial " << trial << " v " << v << " m " << m;
    EXPECT_EQ(added, static_cast<std::size_t>(std::count_if(
                         dist.begin(), dist.end(),
                         [&](double d) { return d < v; })));

    full = row;
    walk = row;
    kernel::shift_clipped_bid(full.data(), dist.data(), v, v_new, n);
    const std::size_t shifted = kernel::shift_clipped_bid_ball(
        walk.data(), dist.data(), ball.data(), v, v_new, n);
    for (std::size_t m = 0; m < n; ++m)
      ASSERT_TRUE(same_bits(walk[m], full[m]))
          << "shift trial " << trial << " v_old " << v << " v_new " << v_new
          << " m " << m;
    if (shifted > 0 && shifted < n) ++partial;
  }
  EXPECT_GT(partial, 100u);
}

TEST(BallKernels, AccumulateKeepsNegativeZeroTheFullRowWouldClear) {
  // The documented exception: −0.0 + +0.0 is +0.0, so the full row turns
  // a −0.0 outside the ball into +0.0 while the ball walk leaves it.
  // PdOmflp's audit and restore refuse −0.0 in a bid row for this
  // reason. A shift subtracts +0.0 there, which keeps −0.0 on both.
  const std::vector<double> dist = {0.0, 5.0};
  const std::vector<std::uint16_t> ball = ball_of(dist);
  std::vector<double> full = {0.0, -0.0}, walk = full;
  kernel::accumulate_clipped_bid(full.data(), dist.data(), 1.0, 2);
  kernel::accumulate_clipped_bid_ball(walk.data(), dist.data(), ball.data(),
                                      1.0, 2);
  EXPECT_FALSE(std::signbit(full[1]));
  EXPECT_TRUE(std::signbit(walk[1]));

  full = {0.0, -0.0};
  walk = full;
  kernel::shift_clipped_bid(full.data(), dist.data(), 1.0, 0.5, 2);
  kernel::shift_clipped_bid_ball(walk.data(), dist.data(), ball.data(), 1.0,
                                 0.5, 2);
  EXPECT_TRUE(same_bits(full[1], -0.0));
  EXPECT_TRUE(same_bits(walk[1], -0.0));
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

/// True when `ids` is a permutation of [0, n) in ascending (d(p, ·), id)
/// order.
bool is_ball(const MetricSpace& metric, PointId p, const std::uint16_t* ids) {
  const std::size_t n = metric.num_points();
  std::vector<char> seen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (ids[i] >= n || seen[ids[i]]) return false;
    seen[ids[i]] = 1;
    if (i == 0) continue;
    const double before = metric.distance(p, ids[i - 1]);
    const double here = metric.distance(p, ids[i]);
    if (here < before || (here == before && ids[i] < ids[i - 1]))
      return false;
  }
  return true;
}

TEST(DistanceOracleBall, OrdersByDistanceThenIdOnTheCachedPathOnly) {
  // Positions with repeats and mirror images: equal distances on
  // different ids from every point.
  const auto line = std::make_shared<LineMetric>(
      std::vector<double>{3.0, 1.0, 3.0, 5.0, 0.0, 1.0, 6.0, 3.0});
  std::vector<std::vector<double>> matrix(5, std::vector<double>(5, 2.0));
  for (std::size_t a = 0; a < 5; ++a) matrix[a][a] = 0.0;
  const auto uniform = std::make_shared<MatrixMetric>(matrix);
  for (const MetricPtr& metric : {MetricPtr(line), MetricPtr(uniform)}) {
    const DistanceOracle& table = metric->distances();
    const DistanceOracle fallback(metric, /*cache_limit=*/0);
    for (PointId p = 0; p < metric->num_points(); ++p) {
      const std::uint16_t* ids = table.ball(p);
      ASSERT_NE(ids, nullptr);
      EXPECT_TRUE(is_ball(*metric, p, ids)) << metric->description();
      EXPECT_EQ(metric->distance(p, ids[0]), 0.0);
      EXPECT_EQ(table.ball(p), ids);  // built once
      EXPECT_EQ(fallback.ball(p), nullptr);
    }
  }
  // Point 0 of the line sits at 3.0 with ids 2 and 7: distance 0, in id
  // order. Ids 1, 3 and 5 follow at distance 2, then ids 4 and 6 at 3.
  const std::uint16_t* ids = line->distances().ball(0);
  EXPECT_EQ(std::vector<std::uint16_t>(ids, ids + 8),
            (std::vector<std::uint16_t>{0, 2, 7, 1, 3, 5, 4, 6}));
}

// Balls are built lazily on first use, so the first ball(p) calls race:
// four threads ask for every ball of one shared table in different orders
// and must all see the same fully built rows.
TEST(DistanceOracleRow, BallsBuiltFromFourThreadsAgree) {
  const std::size_t n = 96;
  Rng rng(47);
  std::vector<double> pos;
  for (std::size_t i = 0; i < n; ++i)
    pos.push_back(std::floor(rng.uniform(0.0, 20.0)));  // many ties
  const auto metric = std::make_shared<LineMetric>(std::move(pos));
  const DistanceOracle& table = metric->distances();

  std::vector<std::vector<const std::uint16_t*>> seen(
      4, std::vector<const std::uint16_t*>(n, nullptr));
  std::atomic<std::size_t> malformed{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (std::size_t k = 0; k < n; ++k) {
        const auto p = static_cast<PointId>((k * 7 + t * 13) % n);
        const std::uint16_t* ids = table.ball(p);
        if (ids == nullptr || !is_ball(*metric, p, ids)) ++malformed;
        seen[t][p] = ids;
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(malformed.load(), 0u);
  for (std::size_t t = 1; t < 4; ++t) EXPECT_EQ(seen[t], seen[0]);
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
