// MatrixMetric — an explicit distance matrix.
//
// The escape hatch for arbitrary finite metrics (hand-built test fixtures,
// metrics loaded from files, the APSP closure of GraphMetric). The
// constructor verifies symmetry and zero diagonal; full triangle-inequality
// verification is O(n^3) and lives in metric/validation.hpp so callers can
// opt in.
#pragma once

#include <vector>

#include "metric/metric_space.hpp"

namespace omflp {

class MatrixMetric final : public MetricSpace {
 public:
  /// Row-major n×n matrix. Throws if not square, not symmetric, diagonal
  /// not zero, or any entry negative/non-finite.
  explicit MatrixMetric(std::vector<std::vector<double>> matrix);

  std::size_t num_points() const noexcept override { return n_; }
  double distance(PointId a, PointId b) const override;
  std::string description() const override;
  const double* stored_matrix() const noexcept override {
    return flat_.data();
  }

 private:
  std::size_t n_;
  std::vector<double> flat_;
};

}  // namespace omflp
