// EuclideanMetric — points in R^dim with the L2 distance.
//
// Used by the clustered workloads (service placement in the plane) and the
// examples; any dimension is supported, coordinates are stored row-major.
#pragma once

#include <vector>

#include "metric/metric_space.hpp"

namespace omflp {

class EuclideanMetric final : public MetricSpace {
 public:
  /// coords.size() must be a multiple of dim; point p occupies
  /// coords[p*dim .. p*dim+dim).
  EuclideanMetric(std::size_t dim, std::vector<double> coords);

  std::size_t num_points() const noexcept override { return num_points_; }
  double distance(PointId a, PointId b) const override;
  std::string description() const override;

  /// Coordinate `axis` of point p.
  double coordinate(PointId p, std::size_t axis) const;

 private:
  std::size_t dim_;
  std::size_t num_points_;
  std::vector<double> coords_;
};

}  // namespace omflp
