#include "metric/distance_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

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
  if (rows_ == nullptr) {
    matrix_.resize(n_ * n_);
    for (PointId a = 0; a < n_; ++a)
      for (PointId b = 0; b < n_; ++b)
        matrix_[static_cast<std::size_t>(a) * n_ + b] = metric.distance(a, b);
    rows_ = matrix_.data();
  }
  if (n_ > kMaxBallPoints) return;
  balls_ = std::make_unique<std::atomic<const std::uint16_t*>[]>(n_);
  ball_storage_.resize(n_);
}

const std::uint16_t* DistanceOracle::build_ball(PointId p) const {
  const std::lock_guard<std::mutex> lock(ball_mutex_);
  if (const std::uint16_t* ids = balls_[p].load())
    return ids;  // another thread built it while this one waited
  const double* row = rows_ + static_cast<std::size_t>(p) * n_;
  std::vector<std::pair<double, std::uint16_t>> order(n_);
  for (std::size_t m = 0; m < n_; ++m)
    order[m] = {row[m], static_cast<std::uint16_t>(m)};
  std::sort(order.begin(), order.end(), [](const auto& x, const auto& y) {
    if (x.first < y.first) return true;
    if (y.first < x.first) return false;
    // Equal (−0 == +0) or unordered: NaN sorts after every number.
    const bool x_nan = std::isnan(x.first), y_nan = std::isnan(y.first);
    if (x_nan != y_nan) return y_nan;
    return x.second < y.second;
  });
  auto ids = std::make_unique<std::uint16_t[]>(n_);
  for (std::size_t i = 0; i < n_; ++i) ids[i] = order[i].second;
  const std::uint16_t* published = ids.get();
  ball_storage_[p] = std::move(ids);
  balls_[p].store(published);
  return published;
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
