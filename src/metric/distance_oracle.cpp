#include "metric/distance_oracle.hpp"

#include <atomic>

#include "support/assert.hpp"

namespace omflp {

namespace {

const MetricSpace& non_null(const MetricPtr& metric) {
  OMFLP_REQUIRE(metric != nullptr, "DistanceOracle: null metric");
  return *metric;
}

}  // namespace

DistanceOracle::DistanceOracle(MetricPtr metric, std::size_t cache_limit)
    : DistanceOracle(non_null(metric), cache_limit) {
  owner_ = std::move(metric);
}

DistanceOracle::DistanceOracle(const MetricSpace& metric,
                               std::size_t cache_limit)
    : metric_(&metric), n_(metric.num_points()) {
  static std::atomic<std::uint64_t> next_id{1};
  id_ = next_id.fetch_add(1, std::memory_order_relaxed);
  if (n_ > cache_limit) return;
  rows_ = metric.stored_matrix();
  if (rows_ != nullptr) return;
  matrix_.resize(n_ * n_);
  for (PointId a = 0; a < n_; ++a)
    for (PointId b = 0; b < n_; ++b)
      matrix_[static_cast<std::size_t>(a) * n_ + b] = metric.distance(a, b);
  rows_ = matrix_.data();
}

const double* DistanceOracle::fallback_row(PointId p) const {
  // One slot per thread, keyed by (table, point): a table is shared by
  // every consumer of its metric, possibly across threads, so the
  // materialized row cannot live in the table itself.
  struct Slot {
    std::uint64_t table = 0;
    PointId point = kInvalidPoint;
    std::vector<double> row;
  };
  thread_local Slot slot;
  if (slot.table != id_ || slot.point != p) {
    slot.row.resize(n_);
    for (PointId b = 0; b < n_; ++b) slot.row[b] = metric_->distance(p, b);
    slot.table = id_;
    slot.point = p;
  }
  return slot.row.data();
}

}  // namespace omflp
