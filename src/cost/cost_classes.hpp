// CostClassIndex — Meyerson-style power-of-two cost classes (§4.1).
//
// For a fixed configuration σ, RAND-OMFLP rounds each opening cost f^σ_m
// down to the nearest power of two and groups points by rounded cost:
// "class i" has cost C^σ_i, with C^σ_i < C^σ_{i+1} (so 2·C^σ_i ≤ C^σ_{i+1}).
// The algorithm needs d(C^σ_i, r) — the distance from r to the nearest
// point of class i. We define class distances over *prefixes* (all points
// of class ≤ i): this makes d monotone non-increasing in i, which is what
// the telescoping sums in Lemma 20/21 require, and can only give the
// algorithm cheaper choices than the literal per-class reading.
//
// Zero-cost points (possible with degenerate models) form their own class
// with rounded cost 0 in front of all power-of-two classes.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cost/cost_model.hpp"
#include "metric/distance_oracle.hpp"
#include "metric/metric_space.hpp"

namespace omflp {

class CostClassIndex {
 public:
  /// The prefix_nearest point sweep runs over the metric's shared
  /// distance table (kernel::argmin_over_row_where), the same rows the
  /// algorithm owning the index reads.
  CostClassIndex(MetricPtr metric, CostModelPtr cost, CommoditySet config);

  std::size_t num_classes() const noexcept { return class_costs_.size(); }

  /// Rounded-down cost C_i of class i (0-based, increasing).
  double class_cost(std::size_t i) const;

  /// The class of point m.
  std::size_t class_of_point(PointId m) const;

  /// True opening cost f^σ_m at point m (cached).
  double true_cost(PointId m) const;

  /// Distance from r to the nearest point of class ≤ i, and that point
  /// (the first on ties). O(|M|) scan.
  std::pair<double, PointId> prefix_nearest(std::size_t i, PointId r) const;

  /// min_i { C_i + d(prefix_i, r) } — the cheapest "open new facility with
  /// configuration σ and connect r to it" option, with its class and point.
  struct BestOpenOption {
    double cost = 0.0;       // C_i + distance
    std::size_t cls = 0;     // the minimizing class i
    PointId point = 0;       // nearest prefix-i point realizing it
    double distance = 0.0;   // d(prefix_i, r)
  };
  BestOpenOption best_open_option(PointId r) const;

  const CommoditySet& config() const noexcept { return config_; }

 private:
  CostModelPtr cost_;
  CommoditySet config_;
  std::shared_ptr<const DistanceOracle> dist_;
  std::vector<double> class_costs_;  // ascending rounded costs
  /// point -> class index, the mask row for the branch-free argmin.
  std::vector<std::uint32_t> point_class_;
  std::vector<double> point_true_cost_;    // point -> f^σ_m
};

/// Round x down to the nearest power of two (x > 0); exact for all
/// finite doubles. round_down_pow2(0) == 0 by convention.
double round_down_pow2(double x);

}  // namespace omflp
