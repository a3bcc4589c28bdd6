#include "metric/metric_space.hpp"

#include "metric/distance_oracle.hpp"
#include "support/assert.hpp"

namespace omflp {

MetricSpace::MetricSpace() = default;
MetricSpace::~MetricSpace() = default;

PointId MetricSpace::nearest_point(PointId from) const {
  OMFLP_REQUIRE(from < num_points(), "nearest_point: point out of range");
  PointId best = from;
  double best_d = kInfiniteDistance;
  for (PointId p = 0; p < num_points(); ++p) {
    if (p == from) continue;
    const double d = distance(from, p);
    if (d < best_d) {
      best_d = d;
      best = p;
    }
  }
  return best;
}

const DistanceOracle& MetricSpace::distances() const {
  std::call_once(table_once_, [this] {
    table_.reset(
        new DistanceOracle(*this, DistanceOracle::kDefaultCacheLimit));
  });
  return *table_;
}

std::shared_ptr<const DistanceOracle> shared_distances(
    const MetricPtr& metric) {
  OMFLP_REQUIRE(metric != nullptr, "shared_distances: null metric");
  return {metric, &metric->distances()};
}

}  // namespace omflp
