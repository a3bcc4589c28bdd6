// Local-search offline solver — the workhorse OPT upper bound for
// benchmark-scale instances (computing true OPT is NP-hard via weighted
// set cover, Ravi–Sinha 2004).
//
// Solution representation: a set of placed facilities; assignments are
// always *exactly* optimal for the current facility set (set-cover DP per
// request, offline/assignment.hpp), so the search only has to explore
// facility sets.
//
// Candidate pool: (point, configuration) pairs with configurations drawn
// from the structures an optimum plausibly uses — singletons of the
// demanded union, the distinct request demand sets, the demanded union
// itself, and the full S; points are all points of small spaces or the
// distinct request locations of large ones.
//
// Moves, best-improvement per round until a fixpoint or the round limit:
//   * add a candidate facility (delta-evaluated in O(2^{|s_r|}) per
//     request using the cached per-request DP tables);
//   * drop an open facility;
//   * merge all facilities at one point into their union (free
//     improvement under subadditivity).
// The result is an upper bound on OPT; tests check it against the exact
// solver on tiny instances and generators' certificates.
#pragma once

#include <vector>

#include "instance/instance.hpp"
#include "offline/exact_small.hpp"

namespace omflp {

/// The candidate pool of both offline heuristics (this solver and greedy
/// star): the points, ascending, and the configurations, by size and then
/// by their commodity lists.
struct CandidatePools {
  std::vector<PointId> points;
  std::vector<CommoditySet> configs;
};
CandidatePools build_candidate_pools(const Instance& instance);

/// At most 50 rounds; the point pool is every point up to |M| = 96 and
/// the request locations above.
OfflineSolution solve_local_search(const Instance& instance);

}  // namespace omflp
