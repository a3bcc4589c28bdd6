// Umbrella header for the OMFLP library — everything a downstream user
// needs to build instances, run the paper's algorithms and measure
// competitive ratios.
//
// Library layout:
//   support/   primitives: commodity sets, RNG, stats, tables, parallelism
//   metric/    finite metric spaces (line, Euclidean, graph, matrix, ...)
//   cost/      construction cost models f^σ_m + Condition-1 machinery
//   instance/  requests, instances, generators, (de)serialization
//   solution/  the irrevocable solution ledger + independent verifier
//   core/      PD-OMFLP, RAND-OMFLP and their shared nearest-facility rows
//   baseline/  Fotakis / Meyerson OFL, per-commodity product, greedy
//   offline/   exact & local-search OPT solvers
//   analysis/  bound curves, c-ordered covering, dual feasibility, ratios
//   scenario/  named workload/algorithm registries + the sweep driver
#pragma once

#include "analysis/bounds.hpp"
#include "analysis/c_ordered_covering.hpp"
#include "analysis/competitive.hpp"
#include "analysis/dual_feasibility.hpp"
#include "analysis/experiment.hpp"
#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "core/nearest_facility.hpp"
#include "core/online_algorithm.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "cost/checks.hpp"
#include "cost/cost_classes.hpp"
#include "cost/cost_model.hpp"
#include "cost/cost_models.hpp"
#include "cost/heavy.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "instance/instance.hpp"
#include "instance/io.hpp"
#include "instance/transforms.hpp"
#include "metric/distance_oracle.hpp"
#include "metric/euclidean_metric.hpp"
#include "metric/graph_metric.hpp"
#include "metric/line_metric.hpp"
#include "metric/matrix_metric.hpp"
#include "metric/metric_space.hpp"
#include "metric/validation.hpp"
#include "offline/assignment.hpp"
#include "offline/exact_small.hpp"
#include "offline/greedy_star.hpp"
#include "offline/local_search.hpp"
#include "offline/opt_estimate.hpp"
#include "offline/single_point.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/sweep.hpp"
#include "solution/solution.hpp"
#include "solution/verifier.hpp"
#include "support/commodity_set.hpp"
#include "support/harmonic.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
