// Workload generators.
//
// Every generator is a deterministic function of its config and the Rng
// passed in, returning a self-contained Instance. Where the construction
// makes the offline optimum known (clusters, zooming sequences) the
// instance carries an OptCertificate so competitive ratios can be measured
// without an offline solver.
#pragma once

#include <cstddef>

#include "cost/cost_model.hpp"
#include "instance/instance.hpp"
#include "support/rng.hpp"

namespace omflp {

/// Sample a non-empty demand set: `size` commodities drawn without
/// replacement, each draw weighted by `zipf` over S (null = uniform).
/// Generators that draw many sets build the sampler once and pass it in.
CommoditySet sample_demand_set(CommodityId num_commodities,
                               CommodityId size, const ZipfSampler* zipf,
                               Rng& rng);

/// The same draw with the sampler built from `popularity_exponent`
/// (exponent 0 = uniform, no sampler).
CommoditySet sample_demand_set(CommodityId num_commodities,
                               CommodityId size,
                               double popularity_exponent, Rng& rng);

// ---------------------------------------------------------------------------
// Uniform line: requests at uniform positions of a line grid, demand sets
// of random size in [min_demand, max_demand] with Zipf popularity.
// ---------------------------------------------------------------------------
struct UniformLineConfig {
  std::size_t num_points = 64;        // |M|, evenly spaced on [0, length]
  double length = 100.0;
  std::size_t num_requests = 256;     // n
  CommodityId num_commodities = 16;   // |S|
  CommodityId min_demand = 1;
  CommodityId max_demand = 4;
  double popularity_exponent = 0.8;   // Zipf exponent for commodity choice
};

Instance make_uniform_line(const UniformLineConfig& config, CostModelPtr cost,
                           Rng& rng);

// ---------------------------------------------------------------------------
// Clustered workload: k well-separated clusters; cluster c has a home
// commodity set σ_c and requests near its center demanding subsets of σ_c.
// OPT certificate: one facility per cluster center in configuration σ_c
// plus exact connection distances (feasible by construction; near-optimal
// when separation >> radius).
// ---------------------------------------------------------------------------
struct ClusteredConfig {
  std::size_t num_clusters = 8;
  std::size_t requests_per_cluster = 32;
  double cluster_radius = 1.0;
  double separation = 1000.0;         // distance between adjacent centers
  CommodityId num_commodities = 16;
  CommodityId commodities_per_cluster = 4;
  /// Each request demands a uniformly random non-empty subset of σ_c when
  /// true; the full σ_c when false.
  bool subset_demands = true;
  /// Interleave requests across clusters (round-robin order) rather than
  /// cluster-by-cluster; stresses algorithms more.
  bool interleave = true;
};

Instance make_clustered_line(const ClusteredConfig& config, CostModelPtr cost,
                             Rng& rng);

// ---------------------------------------------------------------------------
// Zooming sequence: requests approach a target point at geometrically
// decreasing distances (the classic hard input shape for online facility
// location; drives the Θ(log n) factor of the deterministic algorithm).
// All requests demand the same commodity set. OPT certificate: a single
// facility at the target.
// ---------------------------------------------------------------------------
struct ZoomingConfig {
  std::size_t num_requests = 256;
  double initial_distance = 64.0;
  double decay = 0.5;                 // distance multiplier per request
  CommodityId num_commodities = 8;
  CommodityId demand_size = 4;        // each request demands commodities
                                      // {0, ..., demand_size-1}
};

Instance make_zooming_line(const ZoomingConfig& config, CostModelPtr cost,
                           Rng& rng);

// ---------------------------------------------------------------------------
// Service network (the paper's §1 motivation): a random connected graph;
// requests at Zipf-popular nodes demand Zipf-popular service bundles.
// ---------------------------------------------------------------------------
struct ServiceNetworkConfig {
  std::size_t num_nodes = 64;
  double extra_edge_fraction = 0.5;   // extra random edges beyond the tree,
                                      // as a fraction of num_nodes
  double max_edge_weight = 10.0;
  std::size_t num_requests = 256;
  CommodityId num_commodities = 16;
  CommodityId min_demand = 1;
  CommodityId max_demand = 5;
  double node_popularity_exponent = 0.7;
  double commodity_popularity_exponent = 0.9;
};

Instance make_service_network(const ServiceNetworkConfig& config,
                              CostModelPtr cost, Rng& rng);

// ---------------------------------------------------------------------------
// Single point, mixed demands: everything at one point, random demand
// sets. Connection cost is zero, so the whole game is configuration
// choice — a pure stress test for the set-cover side of the algorithms.
// ---------------------------------------------------------------------------
struct SinglePointMixedConfig {
  std::size_t num_requests = 64;
  CommodityId num_commodities = 12;
  CommodityId min_demand = 1;
  CommodityId max_demand = 6;
};

Instance make_single_point_mixed(const SinglePointMixedConfig& config,
                                 CostModelPtr cost, Rng& rng);

}  // namespace omflp
