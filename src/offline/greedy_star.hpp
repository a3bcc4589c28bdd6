// Greedy star solver — the offline MFLP approximation in the spirit of
// Ravi–Sinha (SODA 2004), who obtained an O(log |S|) approximation via
// greedy set-cover over "stars".
//
// A star is a facility (m, σ) together with a set of requests it serves;
// its cost is f^σ_m plus the connection distances, its value the number
// of (request, commodity) pairs it newly covers. The greedy repeatedly
// opens the star with the best cost-per-covered-pair ratio until every
// pair is covered, then recomputes the final assignment exactly (the
// greedy's serving sets are only used for selection).
//
// Restriction (documented deviation): Ravi–Sinha search over all σ ⊆ S
// via a subroutine; we restrict candidate configurations to the
// structures an optimum plausibly uses — singletons of the demanded
// union, the distinct request demand sets, the union itself and the full
// S — the same pool as the local-search solver. The result is an OPT
// upper bound used for cross-checking local search and for benches; the
// exact solvers remain the ground truth on tiny instances.
#pragma once

#include "instance/instance.hpp"
#include "offline/exact_small.hpp"

namespace omflp {

/// The point pool is every point up to |M| = 96 and the request
/// locations above (same convention as local search).
OfflineSolution solve_greedy_star(const Instance& instance);

}  // namespace omflp
