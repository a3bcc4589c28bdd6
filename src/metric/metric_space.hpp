// MetricSpace — the finite metric (M, d) all problem instances live in.
//
// The paper's model places both requests and candidate facilities at points
// of a finite metric space M; algorithms scan M when deciding where to open
// facilities. Implementations must satisfy the metric axioms (identity,
// symmetry, triangle inequality); metric/validation.hpp checks them.
//
// Each metric object owns one distance table (metric/distance_oracle.hpp),
// built on first use and borrowed by every consumer of the metric, so a
// run holds one |M|×|M| matrix however many algorithms, cost-class
// indexes and bounders read it.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>

#include "support/types.hpp"

namespace omflp {

class DistanceOracle;

class MetricSpace {
 public:
  MetricSpace();
  virtual ~MetricSpace();

  /// Number of points |M|; valid PointIds are [0, num_points).
  virtual std::size_t num_points() const noexcept = 0;

  /// d(a, b). Must be symmetric, non-negative, zero iff a == b (pseudo-
  /// metrics with distinct co-located points are allowed and documented by
  /// the concrete class), and satisfy the triangle inequality.
  virtual double distance(PointId a, PointId b) const = 0;

  /// Human-readable description used in logs and benchmark tables.
  virtual std::string description() const = 0;

  /// The row-major |M|×|M| matrix of d the metric already stores, or
  /// nullptr. The distance table lends it instead of building a copy.
  virtual const double* stored_matrix() const noexcept { return nullptr; }

  /// Nearest point of the space to `from` among [0, num_points) other than
  /// exclusions; linear scan base implementation, subclasses may override.
  PointId nearest_point(PointId from) const;

  /// This metric's distance table: built at most once, on the first call
  /// from any thread, and read-only afterwards. Borrowers keep the metric
  /// alive for as long as they use it (shared_distances() does).
  const DistanceOracle& distances() const;

 private:
  mutable std::once_flag table_once_;
  mutable std::unique_ptr<const DistanceOracle> table_;
};

using MetricPtr = std::shared_ptr<const MetricSpace>;

/// metric->distances() as a pointer that co-owns the metric, for the
/// consumers that keep the table as a member.
std::shared_ptr<const DistanceOracle> shared_distances(
    const MetricPtr& metric);

}  // namespace omflp
