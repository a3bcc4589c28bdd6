#include "offline/greedy_star.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "offline/local_search.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

struct Candidate {
  PointId point = 0;
  CommoditySet config;
  double open_cost = 0.0;
};

std::vector<Candidate> build_candidates(const Instance& instance) {
  const CandidatePools pools = build_candidate_pools(instance);
  std::vector<Candidate> candidates;
  candidates.reserve(pools.points.size() * pools.configs.size());
  for (PointId p : pools.points)
    for (const CommoditySet& config : pools.configs)
      candidates.push_back(
          Candidate{p, config, instance.cost().open_cost(p, config)});
  return candidates;
}

}  // namespace

OfflineSolution solve_greedy_star(const Instance& instance) {
  OMFLP_REQUIRE(instance.num_requests() > 0,
                "solve_greedy_star: empty instance");
  const std::vector<Candidate> candidates = build_candidates(instance);

  // Uncovered (request, commodity) pairs, tracked per request.
  std::vector<CommoditySet> uncovered;
  uncovered.reserve(instance.num_requests());
  std::size_t open_pairs = 0;
  for (const Request& r : instance.requests()) {
    uncovered.push_back(r.commodities);
    open_pairs += r.commodities.count();
  }

  std::vector<PlacedFacility> opened;
  while (open_pairs > 0) {
    double best_ratio = std::numeric_limits<double>::infinity();
    const Candidate* best_candidate = nullptr;
    std::size_t best_prefix = 0;

    struct Gain {
      double unit_cost;   // d(m, r) / covered
      double distance;
      std::size_t covered;
      std::size_t request;
    };
    auto gains_for = [&](const Candidate& c) {
      // Requests gaining coverage from this candidate, cheapest first by
      // distance per newly covered commodity.
      std::vector<Gain> gains;
      for (std::size_t i = 0; i < uncovered.size(); ++i) {
        const CommoditySet newly = uncovered[i] & c.config;
        if (newly.empty()) continue;
        const double d = instance.metric().distance(
            instance.request(i).location, c.point);
        const std::size_t covered = newly.count();
        gains.push_back(
            Gain{d / static_cast<double>(covered), d, covered, i});
      }
      std::sort(gains.begin(), gains.end(),
                [](const Gain& a, const Gain& b) {
                  if (a.unit_cost != b.unit_cost)
                    return a.unit_cost < b.unit_cost;
                  return a.request < b.request;
                });
      return gains;
    };

    for (const Candidate& c : candidates) {
      const std::vector<Gain> gains = gains_for(c);
      if (gains.empty()) continue;
      double cost_acc = c.open_cost;
      std::size_t covered_acc = 0;
      for (std::size_t prefix = 0; prefix < gains.size(); ++prefix) {
        cost_acc += gains[prefix].distance;
        covered_acc += gains[prefix].covered;
        const double ratio = cost_acc / static_cast<double>(covered_acc);
        if (ratio < best_ratio) {
          best_ratio = ratio;
          best_candidate = &c;
          best_prefix = prefix + 1;
        }
      }
    }
    OMFLP_CHECK(best_candidate != nullptr,
                "solve_greedy_star: no candidate covers remaining pairs "
                "(full-S candidates make this impossible)");

    // Open the chosen facility (merging with an existing one at the same
    // point — subadditivity makes the union no more expensive) and cover
    // exactly the chosen prefix's pairs. Requests beyond the prefix stay
    // open: covering them here would strand them on a distant facility
    // that was never priced for them.
    bool merged = false;
    for (PlacedFacility& f : opened) {
      if (f.point == best_candidate->point) {
        f.config |= best_candidate->config;
        merged = true;
        break;
      }
    }
    if (!merged)
      opened.push_back(
          PlacedFacility{best_candidate->point, best_candidate->config});
    const std::vector<Gain> chosen = gains_for(*best_candidate);
    OMFLP_CHECK(best_prefix <= chosen.size(),
                "solve_greedy_star: stale prefix");
    for (std::size_t p = 0; p < best_prefix; ++p) {
      const std::size_t i = chosen[p].request;
      const CommoditySet newly = uncovered[i] & best_candidate->config;
      open_pairs -= newly.count();
      uncovered[i] -= newly;
    }
  }

  OfflineSolution solution;
  solution.facilities = std::move(opened);
  solution.opening_cost = 0.0;
  for (const PlacedFacility& f : solution.facilities)
    solution.opening_cost +=
        instance.cost().open_cost(f.point, f.config);
  solution.connection_cost =
      total_assignment_cost(instance, std::span(solution.facilities));
  OMFLP_CHECK(std::isfinite(solution.connection_cost),
              "solve_greedy_star: produced an infeasible facility set");
  solution.cost = solution.opening_cost + solution.connection_cost;
  solution.exact = false;
  solution.method = "greedy-star";
  return solution;
}

}  // namespace omflp
