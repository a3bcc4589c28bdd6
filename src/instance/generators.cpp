#include "instance/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "metric/graph_metric.hpp"
#include "metric/line_metric.hpp"
#include "support/assert.hpp"

namespace omflp {

CommoditySet sample_demand_set(CommodityId num_commodities, CommodityId size,
                               const ZipfSampler* zipf, Rng& rng) {
  OMFLP_REQUIRE(size >= 1 && size <= num_commodities,
                "sample_demand_set: size out of range");
  CommoditySet out(num_commodities);
  if (zipf == nullptr) {
    for (std::size_t idx :
         rng.sample_without_replacement(num_commodities, size))
      out.add(static_cast<CommodityId>(idx));
    return out;
  }
  OMFLP_REQUIRE(zipf->size() == num_commodities,
                "sample_demand_set: sampler over the wrong universe");
  // Rejection over Zipf draws; falls back to filling uniformly if the
  // distribution is so skewed that distinct draws become rare.
  std::size_t attempts = 0;
  while (out.count() < size && attempts < 64 * static_cast<std::size_t>(size)) {
    out.add(static_cast<CommodityId>((*zipf)(rng)));
    ++attempts;
  }
  while (out.count() < size) {
    out.add(static_cast<CommodityId>(rng.uniform_index(num_commodities)));
  }
  return out;
}

CommoditySet sample_demand_set(CommodityId num_commodities, CommodityId size,
                               double popularity_exponent, Rng& rng) {
  if (popularity_exponent == 0.0)
    return sample_demand_set(num_commodities, size, nullptr, rng);
  const ZipfSampler zipf(num_commodities, popularity_exponent);
  return sample_demand_set(num_commodities, size, &zipf, rng);
}

namespace {

CommodityId sample_demand_size(CommodityId lo, CommodityId hi, Rng& rng) {
  OMFLP_REQUIRE(lo >= 1 && lo <= hi, "demand size range invalid");
  return static_cast<CommodityId>(
      rng.uniform_int(static_cast<std::int64_t>(lo),
                      static_cast<std::int64_t>(hi)));
}

}  // namespace

Instance make_uniform_line(const UniformLineConfig& config, CostModelPtr cost,
                           Rng& rng) {
  OMFLP_REQUIRE(cost != nullptr, "make_uniform_line: null cost model");
  OMFLP_REQUIRE(cost->num_commodities() == config.num_commodities,
                "make_uniform_line: cost model |S| mismatch");
  auto metric = LineMetric::uniform_grid(config.num_points, config.length);
  std::vector<Request> requests;
  requests.reserve(config.num_requests);
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(config.num_points));
    r.commodities = sample_demand_set(
        config.num_commodities,
        sample_demand_size(config.min_demand, config.max_demand, rng),
        config.popularity_exponent, rng);
    requests.push_back(std::move(r));
  }
  std::ostringstream name;
  name << "uniform-line(n=" << config.num_requests
       << ",|S|=" << config.num_commodities << ",|M|=" << config.num_points
       << ")";
  return Instance(std::move(metric), std::move(cost), std::move(requests),
                  name.str());
}

Instance make_clustered_line(const ClusteredConfig& config, CostModelPtr cost,
                             Rng& rng) {
  OMFLP_REQUIRE(cost != nullptr, "make_clustered_line: null cost model");
  OMFLP_REQUIRE(cost->num_commodities() == config.num_commodities,
                "make_clustered_line: cost model |S| mismatch");
  OMFLP_REQUIRE(config.num_clusters > 0 && config.requests_per_cluster > 0,
                "make_clustered_line: empty workload");
  OMFLP_REQUIRE(
      config.commodities_per_cluster >= 1 &&
          config.commodities_per_cluster <= config.num_commodities,
      "make_clustered_line: commodities_per_cluster out of range");

  const std::size_t k = config.num_clusters;
  const std::size_t per = config.requests_per_cluster;

  // Point layout: index c in [0,k) is the center of cluster c; the request
  // points follow, `per` per cluster.
  std::vector<double> positions;
  positions.reserve(k + k * per);
  for (std::size_t c = 0; c < k; ++c)
    positions.push_back(static_cast<double>(c) * config.separation);

  std::vector<CommoditySet> cluster_sets;
  cluster_sets.reserve(k);
  for (std::size_t c = 0; c < k; ++c)
    cluster_sets.push_back(sample_demand_set(
        config.num_commodities, config.commodities_per_cluster, 0.0, rng));

  struct Pending {
    std::size_t cluster;
    PointId point;
    CommoditySet demand;
  };
  std::vector<Pending> pending;
  pending.reserve(k * per);
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t i = 0; i < per; ++i) {
      const double offset =
          rng.uniform(-config.cluster_radius, config.cluster_radius);
      positions.push_back(static_cast<double>(c) * config.separation + offset);
      const PointId point = static_cast<PointId>(positions.size() - 1);
      CommoditySet demand = cluster_sets[c];
      if (config.subset_demands) {
        CommoditySet subset(config.num_commodities);
        demand.for_each([&](CommodityId e) {
          if (rng.bernoulli(0.5)) subset.add(e);
        });
        if (subset.empty()) {
          // Guarantee non-empty: keep one uniformly random member.
          const auto members = demand.to_vector();
          subset.add(members[rng.uniform_index(members.size())]);
        }
        demand = subset;
      }
      pending.push_back(Pending{c, point, std::move(demand)});
    }
  }

  // Arrival order: interleaved round-robin across clusters or sequential.
  std::vector<Request> requests;
  requests.reserve(pending.size());
  if (config.interleave) {
    for (std::size_t i = 0; i < per; ++i)
      for (std::size_t c = 0; c < k; ++c) {
        const Pending& p = pending[c * per + i];
        requests.push_back(Request{p.point, p.demand});
      }
  } else {
    for (const Pending& p : pending)
      requests.push_back(Request{p.point, p.demand});
  }

  auto metric = std::make_shared<LineMetric>(std::move(positions));

  // OPT certificate: open σ_c at each center, connect every cluster
  // request to its center. Feasible by construction.
  double cert_cost = 0.0;
  for (std::size_t c = 0; c < k; ++c)
    cert_cost += cost->open_cost(static_cast<PointId>(c), cluster_sets[c]);
  for (const Pending& p : pending)
    cert_cost +=
        metric->distance(p.point, static_cast<PointId>(p.cluster));

  std::ostringstream name;
  name << "clustered-line(k=" << k << ",n=" << k * per
       << ",|S|=" << config.num_commodities << ")";
  Instance inst(std::move(metric), std::move(cost), std::move(requests),
                name.str());
  inst.set_opt_certificate(OptCertificate{
      cert_cost, /*exact=*/false,
      "one facility per cluster center with the cluster's commodity set"});
  return inst;
}

Instance make_zooming_line(const ZoomingConfig& config, CostModelPtr cost,
                           Rng& /*rng*/) {
  OMFLP_REQUIRE(cost != nullptr, "make_zooming_line: null cost model");
  OMFLP_REQUIRE(cost->num_commodities() == config.num_commodities,
                "make_zooming_line: cost model |S| mismatch");
  OMFLP_REQUIRE(config.num_requests > 0, "make_zooming_line: no requests");
  OMFLP_REQUIRE(config.decay > 0.0 && config.decay < 1.0,
                "make_zooming_line: decay must lie in (0, 1)");
  OMFLP_REQUIRE(config.demand_size >= 1 &&
                    config.demand_size <= config.num_commodities,
                "make_zooming_line: demand size out of range");

  // Point 0 is the target; request i sits at distance d0 * decay^i,
  // alternating sides so the sequence does not collapse onto a ray.
  std::vector<double> positions;
  positions.reserve(config.num_requests + 1);
  positions.push_back(0.0);
  double d = config.initial_distance;
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    positions.push_back(i % 2 == 0 ? d : -d);
    d *= config.decay;
  }

  CommoditySet demand(config.num_commodities);
  for (CommodityId e = 0; e < config.demand_size; ++e) demand.add(e);

  std::vector<Request> requests;
  requests.reserve(config.num_requests);
  for (std::size_t i = 0; i < config.num_requests; ++i)
    requests.push_back(Request{static_cast<PointId>(i + 1), demand});

  auto metric = std::make_shared<LineMetric>(positions);

  double cert_cost = cost->open_cost(0, demand);
  for (std::size_t i = 1; i < positions.size(); ++i)
    cert_cost += std::abs(positions[i]);

  std::ostringstream name;
  name << "zooming-line(n=" << config.num_requests
       << ",|S|=" << config.num_commodities << ")";
  Instance inst(std::move(metric), std::move(cost), std::move(requests),
                name.str());
  inst.set_opt_certificate(OptCertificate{
      cert_cost, /*exact=*/false, "single facility at the zoom target"});
  return inst;
}

Instance make_service_network(const ServiceNetworkConfig& config,
                              CostModelPtr cost, Rng& rng) {
  OMFLP_REQUIRE(cost != nullptr, "make_service_network: null cost model");
  OMFLP_REQUIRE(cost->num_commodities() == config.num_commodities,
                "make_service_network: cost model |S| mismatch");
  OMFLP_REQUIRE(config.num_nodes >= 2, "make_service_network: tiny graph");

  // Random connected graph: a uniform random attachment tree plus extra
  // uniformly random edges.
  std::vector<GraphEdge> edges;
  for (PointId v = 1; v < config.num_nodes; ++v) {
    const PointId u = static_cast<PointId>(rng.uniform_index(v));
    edges.push_back(GraphEdge{u, v, rng.uniform(1.0, config.max_edge_weight)});
  }
  const std::size_t extra = static_cast<std::size_t>(
      config.extra_edge_fraction * static_cast<double>(config.num_nodes));
  for (std::size_t i = 0; i < extra; ++i) {
    const PointId u =
        static_cast<PointId>(rng.uniform_index(config.num_nodes));
    const PointId v =
        static_cast<PointId>(rng.uniform_index(config.num_nodes));
    if (u == v) continue;
    edges.push_back(GraphEdge{u, v, rng.uniform(1.0, config.max_edge_weight)});
  }
  auto metric = std::make_shared<GraphMetric>(config.num_nodes, edges);

  ZipfSampler node_pop(config.num_nodes, config.node_popularity_exponent);
  std::vector<Request> requests;
  requests.reserve(config.num_requests);
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    Request r;
    r.location = static_cast<PointId>(node_pop(rng));
    r.commodities = sample_demand_set(
        config.num_commodities,
        sample_demand_size(config.min_demand, config.max_demand, rng),
        config.commodity_popularity_exponent, rng);
    requests.push_back(std::move(r));
  }

  std::ostringstream name;
  name << "service-network(nodes=" << config.num_nodes
       << ",n=" << config.num_requests << ",|S|=" << config.num_commodities
       << ")";
  return Instance(std::move(metric), std::move(cost), std::move(requests),
                  name.str());
}

Instance make_single_point_mixed(const SinglePointMixedConfig& config,
                                 CostModelPtr cost, Rng& rng) {
  OMFLP_REQUIRE(cost != nullptr, "make_single_point_mixed: null cost model");
  OMFLP_REQUIRE(cost->num_commodities() == config.num_commodities,
                "make_single_point_mixed: cost model |S| mismatch");
  auto metric = std::make_shared<SinglePointMetric>();
  std::vector<Request> requests;
  requests.reserve(config.num_requests);
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    Request r;
    r.location = 0;
    r.commodities = sample_demand_set(
        config.num_commodities,
        sample_demand_size(config.min_demand, config.max_demand, rng), 0.0,
        rng);
    requests.push_back(std::move(r));
  }
  std::ostringstream name;
  name << "single-point-mixed(n=" << config.num_requests
       << ",|S|=" << config.num_commodities << ")";
  return Instance(std::move(metric), std::move(cost), std::move(requests),
                  name.str());
}

}  // namespace omflp
