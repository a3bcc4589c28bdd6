// DistanceOracle — the distance table algorithm hot loops read.
//
// PD-OMFLP evaluates d(m, r) for every point m of the space at every event;
// going through the MetricSpace virtual call each time dominates runtime
// for matrix-free metrics (Euclidean). The table holds the dense |M|×|M|
// matrix when |M| is at most the cache limit and falls back to direct
// calls beyond it.
//
// Every metric owns one table, built on first use and borrowed by every
// consumer of that metric (MetricSpace::distances(), shared_distances()):
// the algorithms, every CostClassIndex and the OPT bounder all read the
// same rows. MatrixMetric and GraphMetric
// already store a row-major matrix and lend it instead of being copied.
// A table is immutable once built, so any number of threads may read it.
//
// On the cached path the table also serves balls: point ids ordered by
// distance from p (ball()), each built on its first request and then
// immutable too. PD-OMFLP's bid kernels walk a ball instead of a row: a
// bid (v − d(m, r))+ is zero outside B(r, v).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "metric/metric_space.hpp"
#include "perf/perf_counters.hpp"

namespace omflp {

class DistanceOracle {
 public:
  /// Largest |M| whose dense matrix is materialized (128 MiB of doubles).
  static constexpr std::size_t kDefaultCacheLimit = 4096;

  /// A private table over `metric`. Code that runs algorithms borrows the
  /// metric's own table instead; this constructor is how tests and the
  /// bench micro case reach the fallback path (cache_limit < |M|).
  explicit DistanceOracle(MetricPtr metric,
                          std::size_t cache_limit = kDefaultCacheLimit);

  DistanceOracle(const DistanceOracle&) = delete;
  DistanceOracle& operator=(const DistanceOracle&) = delete;

  std::size_t num_points() const noexcept { return n_; }

  double operator()(PointId a, PointId b) const {
    OMFLP_PERF_COUNT(distance_lookups);
    if (rows_ != nullptr) return rows_[static_cast<std::size_t>(a) * n_ + b];
    return metric_->distance(a, b);
  }

  /// Contiguous distance row d(p, ·) for branch-free kernel loops (by
  /// metric symmetry also usable as d(·, p)). On the cached path this is
  /// a pointer into the dense matrix, valid for the table's lifetime. On
  /// the fallback path the row is materialized into a per-thread slot:
  /// the pointer stays valid until the same thread asks any table for a
  /// different row, and repeated row(p) calls for the same p reuse it.
  ///
  /// Deliberately counter-free: hot loops tick
  /// OMFLP_PERF_ADD(distance_lookups, k) once per sweep, k being the
  /// points the sweep touched (see src/kernel/kernels.hpp).
  const double* row(PointId p) const {
    if (rows_ != nullptr) return rows_ + static_cast<std::size_t>(p) * n_;
    return fallback_row(p);
  }

  bool cached() const noexcept { return rows_ != nullptr; }

  /// Largest |M| whose ids fit a ball entry.
  static constexpr std::size_t kMaxBallPoints = std::size_t{1} << 16;

  /// Every point id in ascending (d(p, ·), id) order (NaN distances
  /// last), or null on the fallback path and beyond kMaxBallPoints. The
  /// first call for p sorts its row (O(|M| log |M|)) and keeps it for the
  /// table's lifetime at 2 bytes per point; the build is locked, so any
  /// number of threads may ask for balls at once, and the returned
  /// pointer stays valid while the table lives.
  const std::uint16_t* ball(PointId p) const {
    if (balls_ == nullptr) return nullptr;
    const std::uint16_t* ids = balls_[p].load();
    return ids != nullptr ? ids : build_ball(p);
  }

 private:
  friend class MetricSpace;  // builds the metric's own table
  DistanceOracle(const MetricSpace& metric, std::size_t cache_limit);

  const double* fallback_row(PointId p) const;
  const std::uint16_t* build_ball(PointId p) const;

  MetricPtr owner_;  // keeps a private table's metric alive; null otherwise
  const MetricSpace* metric_;
  std::size_t n_;
  std::vector<double> matrix_;  // empty when the metric lends its own
  const double* rows_ = nullptr;  // row-major |M|×|M|; null on fallback
  std::uint64_t id_;  // keys the per-thread fallback row slot
  /// balls_[p] publishes ball p once built (null until then, and the
  /// whole array null when the table serves no balls). ball_storage_
  /// owns the rows; it is written only under ball_mutex_.
  std::unique_ptr<std::atomic<const std::uint16_t*>[]> balls_;
  mutable std::vector<std::unique_ptr<std::uint16_t[]>> ball_storage_;
  mutable std::mutex ball_mutex_;
};

}  // namespace omflp
