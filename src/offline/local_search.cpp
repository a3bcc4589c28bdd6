#include "offline/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_set>

#include "support/assert.hpp"

namespace omflp {

namespace {

constexpr std::size_t kMaxRounds = 50;
/// The point pool switches from "all points" to "request locations"
/// above this |M|.
constexpr std::size_t kAllPointsLimit = 96;

class SearchState {
 public:
  explicit SearchState(const Instance& instance) : instance_(instance) {}

  void set_facilities(std::vector<PlacedFacility> facilities) {
    facilities_ = std::move(facilities);
    rebuild();
  }

  const std::vector<PlacedFacility>& facilities() const {
    return facilities_;
  }
  double opening_cost() const { return opening_; }
  double connection_cost() const { return connection_; }
  double total_cost() const { return opening_ + connection_; }

  /// Cost delta of adding facility f (negative = improvement), computed
  /// from the cached DP tables in O(n·2^k) without rebuilding.
  double add_delta(const PlacedFacility& f) const {
    double delta = instance_.cost().open_cost(f.point, f.config);
    for (std::size_t i = 0; i < instance_.num_requests(); ++i) {
      const Request& r = instance_.request(i);
      const std::vector<double>& dp = dp_tables_[i];
      const std::vector<CommodityId>& members = members_[i];
      std::size_t cov = 0;
      for (std::size_t b = 0; b < members.size(); ++b)
        if (f.config.contains(members[b])) cov |= (std::size_t{1} << b);
      if (cov == 0) continue;
      const double d = instance_.metric().distance(r.location, f.point);
      const std::size_t full = dp.size() - 1;
      // Optimal cover using the new facility at most once.
      const double with_f = dp[full & ~cov] + d;
      if (with_f < dp[full]) delta += with_f - dp[full];
    }
    return delta;
  }

  /// Cost delta of dropping facility index fi (infinity if infeasible).
  double drop_delta(std::size_t fi) const {
    std::vector<PlacedFacility> reduced = facilities_;
    reduced.erase(reduced.begin() + static_cast<std::ptrdiff_t>(fi));
    const double connect =
        total_assignment_cost(instance_, std::span(reduced));
    if (!std::isfinite(connect)) return kInfiniteDistance;
    const double opening =
        opening_ - instance_.cost().open_cost(facilities_[fi].point,
                                              facilities_[fi].config);
    return opening + connect - total_cost();
  }

 private:
  void rebuild() {
    opening_ = 0.0;
    for (const PlacedFacility& f : facilities_)
      opening_ += instance_.cost().open_cost(f.point, f.config);
    connection_ = 0.0;
    dp_tables_.clear();
    members_.clear();
    dp_tables_.reserve(instance_.num_requests());
    members_.reserve(instance_.num_requests());
    for (const Request& r : instance_.requests()) {
      dp_tables_.push_back(
          assignment_dp(instance_.metric(), std::span(facilities_), r));
      members_.push_back(r.commodities.to_vector());
      connection_ += dp_tables_.back().back();
    }
  }

  const Instance& instance_;
  std::vector<PlacedFacility> facilities_;
  std::vector<std::vector<double>> dp_tables_;
  std::vector<std::vector<CommodityId>> members_;
  double opening_ = 0.0;
  double connection_ = 0.0;
};

std::vector<PlacedFacility> initial_solution(const Instance& instance) {
  // One facility per distinct request location holding the union of
  // demands seen there — feasible and a natural starting point. A
  // std::map keeps the accumulation pass itself in sorted point order
  // (the facility list seeds the deterministic search).
  std::map<PointId, CommoditySet> unions;
  for (const Request& r : instance.requests()) {
    auto [it, inserted] = unions.emplace(r.location, r.commodities);
    if (!inserted) it->second |= r.commodities;
  }
  std::vector<PlacedFacility> facilities;
  facilities.reserve(unions.size());
  for (const auto& [point, config] : unions)
    facilities.push_back(PlacedFacility{point, config});
  return facilities;
}

}  // namespace

CandidatePools build_candidate_pools(const Instance& instance) {
  CandidatePools pools;
  const std::size_t m = instance.metric().num_points();
  if (m <= kAllPointsLimit) {
    pools.points.resize(m);
    for (PointId p = 0; p < m; ++p) pools.points[p] = p;
  } else {
    std::unordered_set<PointId> seen;
    for (const Request& r : instance.requests())
      if (seen.insert(r.location).second)
        pools.points.push_back(r.location);
    std::sort(pools.points.begin(), pools.points.end());
  }

  const CommodityId s = instance.num_commodities();
  const CommoditySet demanded = instance.demanded_union();
  std::unordered_set<CommoditySet, CommoditySetHash> configs;
  demanded.for_each([&](CommodityId e) {
    configs.insert(CommoditySet::singleton(s, e));
  });
  for (const Request& r : instance.requests())
    configs.insert(r.commodities);
  configs.insert(demanded);
  configs.insert(CommoditySet::full_set(s));
  pools.configs.assign(configs.begin(), configs.end());
  // Deterministic order (unordered_set iteration order is unspecified).
  std::sort(pools.configs.begin(), pools.configs.end(),
            [](const CommoditySet& a, const CommoditySet& b) {
              if (a.count() != b.count()) return a.count() < b.count();
              return a.to_vector() < b.to_vector();
            });
  return pools;
}

OfflineSolution solve_local_search(const Instance& instance) {
  OMFLP_REQUIRE(instance.num_requests() > 0,
                "solve_local_search: empty instance");
  const CandidatePools pools = build_candidate_pools(instance);
  SearchState state(instance);
  state.set_facilities(initial_solution(instance));

  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    double best_delta = -1e-9;  // strict improvement only
    enum class Kind { kNone, kAdd, kDrop } kind = Kind::kNone;
    PlacedFacility best_add;
    std::size_t best_drop = 0;

    for (PointId p : pools.points) {
      for (const CommoditySet& config : pools.configs) {
        const PlacedFacility candidate{p, config};
        const double delta = state.add_delta(candidate);
        if (delta < best_delta) {
          best_delta = delta;
          kind = Kind::kAdd;
          best_add = candidate;
        }
      }
    }
    for (std::size_t fi = 0; fi < state.facilities().size(); ++fi) {
      const double delta = state.drop_delta(fi);
      if (delta < best_delta) {
        best_delta = delta;
        kind = Kind::kDrop;
        best_drop = fi;
      }
    }

    if (kind == Kind::kNone) break;
    std::vector<PlacedFacility> next = state.facilities();
    if (kind == Kind::kAdd) {
      next.push_back(best_add);
      // Merge with an existing facility at the same point (subadditivity
      // makes the union at most as expensive; assignments only improve).
      for (std::size_t i = 0; i + 1 < next.size(); ++i) {
        if (next[i].point == best_add.point) {
          next[i].config |= best_add.config;
          next.pop_back();
          break;
        }
      }
    } else {
      next.erase(next.begin() + static_cast<std::ptrdiff_t>(best_drop));
    }
    state.set_facilities(std::move(next));
  }

  OfflineSolution solution;
  solution.cost = state.total_cost();
  solution.opening_cost = state.opening_cost();
  solution.connection_cost = state.connection_cost();
  solution.facilities = state.facilities();
  solution.exact = false;
  solution.method = "local-search";
  return solution;
}

}  // namespace omflp
