#include "cost/cost_classes.hpp"

#include <algorithm>
#include <cmath>

#include "kernel/kernels.hpp"
#include "support/assert.hpp"

namespace omflp {

double round_down_pow2(double x) {
  OMFLP_REQUIRE(std::isfinite(x) && x >= 0.0,
                "round_down_pow2: x must be finite and non-negative");
  if (x == 0.0) return 0.0;
  int exp = 0;
  // frexp: x = mantissa * 2^exp with mantissa in [0.5, 1); the power of two
  // below x is 2^(exp-1), except when x is itself a power of two.
  const double mantissa = std::frexp(x, &exp);
  if (mantissa == 0.5) return x;  // exact power of two
  return std::ldexp(1.0, exp - 1);
}

CostClassIndex::CostClassIndex(MetricPtr metric, CostModelPtr cost,
                               CommoditySet config)
    : cost_(std::move(cost)), config_(std::move(config)) {
  OMFLP_REQUIRE(metric != nullptr, "CostClassIndex: null metric");
  OMFLP_REQUIRE(cost_ != nullptr, "CostClassIndex: null cost model");
  OMFLP_REQUIRE(!config_.empty(), "CostClassIndex: empty configuration");
  dist_ = shared_distances(metric);

  const std::size_t n = dist_->num_points();
  point_true_cost_.resize(n);
  std::vector<double> rounded(n);
  for (PointId m = 0; m < n; ++m) {
    point_true_cost_[m] = cost_->open_cost(m, config_);
    rounded[m] = round_down_pow2(point_true_cost_[m]);
  }

  class_costs_ = rounded;
  std::sort(class_costs_.begin(), class_costs_.end());
  class_costs_.erase(std::unique(class_costs_.begin(), class_costs_.end()),
                     class_costs_.end());

  point_class_.resize(n);
  for (PointId m = 0; m < n; ++m) {
    const auto it = std::lower_bound(class_costs_.begin(), class_costs_.end(),
                                     rounded[m]);
    point_class_[m] = static_cast<std::uint32_t>(it - class_costs_.begin());
  }
}

double CostClassIndex::class_cost(std::size_t i) const {
  OMFLP_REQUIRE(i < class_costs_.size(), "class_cost: class out of range");
  return class_costs_[i];
}

std::size_t CostClassIndex::class_of_point(PointId m) const {
  OMFLP_REQUIRE(m < point_class_.size(), "class_of_point: out of range");
  return point_class_[m];
}

double CostClassIndex::true_cost(PointId m) const {
  OMFLP_REQUIRE(m < point_true_cost_.size(), "true_cost: out of range");
  return point_true_cost_[m];
}

std::pair<double, PointId> CostClassIndex::prefix_nearest(std::size_t i,
                                                          PointId r) const {
  OMFLP_REQUIRE(i < class_costs_.size(), "prefix_nearest: class range");
  const std::size_t n = dist_->num_points();
  OMFLP_REQUIRE(r < n, "prefix_nearest: point range");
  // Branch-free masked argmin over the contiguous distance row — or the
  // unmasked argmin for the last class, whose prefix is all of M.
  // Repeated calls for the same r (best_open_option sweeps all classes)
  // reuse the materialized row on the fallback path.
  const double* row = dist_->row(r);
  const std::size_t m =
      i + 1 == class_costs_.size()
          ? kernel::argmin_over_row(row, n)
          : kernel::argmin_over_row_where(row, point_class_.data(),
                                          static_cast<std::uint32_t>(i), n);
  OMFLP_CHECK(m != n,
              "prefix_nearest: no point in prefix (class 0 must be "
              "non-empty by construction)");
  return {row[m], static_cast<PointId>(m)};
}

CostClassIndex::BestOpenOption CostClassIndex::best_open_option(
    PointId r) const {
  BestOpenOption best;
  best.cost = kInfiniteDistance;
  for (std::size_t i = 0; i < class_costs_.size(); ++i) {
    const auto [d, m] = prefix_nearest(i, r);
    const double total = class_costs_[i] + d;
    if (total < best.cost) {
      best.cost = total;
      best.cls = i;
      best.point = m;
      best.distance = d;
    }
  }
  return best;
}

}  // namespace omflp
