#include "scenario/scenario_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "cost/cost_models.hpp"
#include "cost/heavy.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "metric/line_metric.hpp"
#include "scenario/registry_util.hpp"
#include "support/rng.hpp"

namespace omflp {

// ------------------------------------------------------- ScenarioParams ---

double ScenarioParams::at(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end())
    throw std::invalid_argument("ScenarioParams: factory read undeclared "
                                "parameter '" +
                                name + "'");
  return it->second;
}

std::size_t ScenarioParams::size_t_at(const std::string& name) const {
  const double value = at(name);
  // 2^53: beyond this doubles skip integers and the cast is lossy (and
  // for values >= 2^64 outright undefined).
  constexpr double kMaxExact = 9007199254740992.0;
  if (value < 0.0 || value > kMaxExact || value != std::floor(value))
    throw std::invalid_argument("ScenarioParams: parameter '" + name +
                                "' must be a non-negative integer <= 2^53, "
                                "got " +
                                std::to_string(value));
  return static_cast<std::size_t>(value);
}

CommodityId ScenarioParams::commodity_at(const std::string& name) const {
  const std::size_t value = size_t_at(name);
  if (value > std::numeric_limits<CommodityId>::max())
    throw std::invalid_argument("ScenarioParams: parameter '" + name +
                                "' exceeds the commodity-id range, got " +
                                std::to_string(value));
  return static_cast<CommodityId>(value);
}

std::vector<ScenarioParam> cost_params(double scale) {
  return {{"cost_exponent", 1.0, "class-C exponent x in [0,2]"},
          {"cost_scale", scale, "overall opening-cost scale"}};
}

CostModelPtr poly_cost(const ScenarioParams& p, CommodityId commodities) {
  return std::make_shared<PolynomialCostModel>(
      commodities, p.at("cost_exponent"), p.at("cost_scale"));
}

void append(std::vector<ScenarioParam>& params,
            std::vector<ScenarioParam> extra) {
  for (ScenarioParam& param : extra) params.push_back(std::move(param));
}

// ----------------------------------------------------- ScenarioRegistry ---

ScenarioParams resolve_scenario_params(
    const std::string& scenario_name,
    const std::vector<ScenarioParam>& declared,
    const std::map<std::string, double>& overrides, bool strict) {
  std::map<std::string, double> values;
  for (const ScenarioParam& param : declared)
    values[param.name] = param.value;
  for (const auto& [key, value] : overrides) {
    const auto it = values.find(key);
    if (it == values.end()) {
      if (!strict) continue;
      std::vector<std::string> names;
      for (const ScenarioParam& param : declared)
        names.push_back(param.name);
      throw std::invalid_argument("scenario '" + scenario_name +
                                  "' has no parameter '" + key +
                                  "'; declared parameters: " +
                                  join_names(names));
    }
    it->second = value;
  }
  return ScenarioParams(std::move(values));
}

Instance ScenarioRegistry::make(
    const std::string& name, std::uint64_t seed,
    const std::map<std::string, double>& overrides) const {
  const ScenarioSpec& s = spec(name);
  return s.make(
      resolve_scenario_params(s.name, s.params, overrides, /*strict=*/true),
      seed);
}

Instance ScenarioRegistry::make_lenient(
    const std::string& name, std::uint64_t seed,
    const std::map<std::string, double>& overrides) const {
  const ScenarioSpec& s = spec(name);
  return s.make(
      resolve_scenario_params(s.name, s.params, overrides, /*strict=*/false),
      seed);
}

// ----------------------------------------------------------- built-ins ---

namespace {

// Figure 3's engineered cost model: singletons near-free at the small
// sites, bundles near-free only at the large site, everything else
// prohibitive (see bench_fig3_connection_choice.cpp for the full story).
constexpr double kFig3Tiny = 1e-4;
constexpr double kFig3Huge = 1e6;

class Fig3Cost final : public FacilityCostModel {
 public:
  CommodityId num_commodities() const noexcept override { return 3; }
  double open_cost(PointId m, const CommoditySet& config) const override {
    const CommodityId size = check_config(config);
    if (size == 0) return 0.0;
    if (m >= 1 && m <= 4 && size == 1) return kFig3Tiny;
    if (m == 4) return kFig3Tiny * size;
    return kFig3Huge * size;
  }
  std::string description() const override { return "figure3-scenario"; }
};

void register_generators(ScenarioRegistry& registry) {
  {
    std::vector<ScenarioParam> params = {
        {"points", 32, "|M|, evenly spaced on the line"},
        {"length", 100, "line length"},
        {"requests", 96, "number of requests n"},
        {"commodities", 12, "|S|"},
        {"min_demand", 1, "smallest demand-set size"},
        {"max_demand", 4, "largest demand-set size"},
        {"popularity_exponent", 0.8, "Zipf exponent for commodity choice"}};
    append(params, cost_params(2.0));
    registry.add(
        {.name = "uniform-line",
         .description = "requests at uniform line positions, Zipf-popular "
                        "demand sets",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           UniformLineConfig cfg;
           cfg.num_points = p.size_t_at("points");
           cfg.length = p.at("length");
           cfg.num_requests = p.size_t_at("requests");
           cfg.num_commodities =
               p.commodity_at("commodities");
           cfg.min_demand = p.commodity_at("min_demand");
           cfg.max_demand = p.commodity_at("max_demand");
           cfg.popularity_exponent = p.at("popularity_exponent");
           return make_uniform_line(cfg, poly_cost(p, cfg.num_commodities),
                                    rng);
         }});
  }
  {
    std::vector<ScenarioParam> params = {
        {"clusters", 6, "number of well-separated clusters"},
        {"requests_per_cluster", 16, "requests per cluster"},
        {"radius", 1, "cluster radius"},
        {"separation", 500, "distance between adjacent centers"},
        {"commodities", 12, "|S|"},
        {"commodities_per_cluster", 4, "home-set size per cluster"},
        {"subset_demands", 1, "1: random subsets of the home set, 0: full"},
        {"interleave", 1, "1: round-robin across clusters"}};
    append(params, cost_params(2.0));
    registry.add(
        {.name = "clustered",
         .description = "well-separated clusters with per-cluster home "
                        "commodity sets (known near-OPT)",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           ClusteredConfig cfg;
           cfg.num_clusters = p.size_t_at("clusters");
           cfg.requests_per_cluster = p.size_t_at("requests_per_cluster");
           cfg.cluster_radius = p.at("radius");
           cfg.separation = p.at("separation");
           cfg.num_commodities =
               p.commodity_at("commodities");
           cfg.commodities_per_cluster = p.commodity_at("commodities_per_cluster");
           cfg.subset_demands = p.bool_at("subset_demands");
           cfg.interleave = p.bool_at("interleave");
           return make_clustered_line(cfg, poly_cost(p, cfg.num_commodities),
                                      rng);
         }});
  }
  {
    std::vector<ScenarioParam> params = {
        {"requests", 128, "number of requests"},
        {"initial_distance", 64, "distance of the first request"},
        {"decay", 0.5, "distance multiplier per request"},
        {"commodities", 8, "|S|"},
        {"demand_size", 4, "every request demands {0..demand_size-1}"}};
    append(params, cost_params(1.0));
    registry.add(
        {.name = "zooming",
         .description = "geometrically approaching requests — the classic "
                        "hard input driving the log n factor",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           ZoomingConfig cfg;
           cfg.num_requests = p.size_t_at("requests");
           cfg.initial_distance = p.at("initial_distance");
           cfg.decay = p.at("decay");
           cfg.num_commodities =
               p.commodity_at("commodities");
           cfg.demand_size =
               p.commodity_at("demand_size");
           return make_zooming_line(cfg, poly_cost(p, cfg.num_commodities),
                                    rng);
         }});
  }
  {
    std::vector<ScenarioParam> params = {
        {"nodes", 32, "graph nodes"},
        {"extra_edge_fraction", 0.5, "extra random edges / nodes"},
        {"max_edge_weight", 10, "maximum edge weight"},
        {"requests", 96, "number of requests"},
        {"commodities", 12, "|S|"},
        {"min_demand", 1, "smallest demand-set size"},
        {"max_demand", 5, "largest demand-set size"},
        {"node_popularity_exponent", 0.7, "Zipf exponent over nodes"},
        {"commodity_popularity_exponent", 0.9, "Zipf exponent over S"}};
    append(params, cost_params(2.0));
    registry.add(
        {.name = "service-network",
         .description = "random connected service graph, Zipf-popular nodes "
                        "and service bundles (the paper's §1 motivation)",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           ServiceNetworkConfig cfg;
           cfg.num_nodes = p.size_t_at("nodes");
           cfg.extra_edge_fraction = p.at("extra_edge_fraction");
           cfg.max_edge_weight = p.at("max_edge_weight");
           cfg.num_requests = p.size_t_at("requests");
           cfg.num_commodities =
               p.commodity_at("commodities");
           cfg.min_demand = p.commodity_at("min_demand");
           cfg.max_demand = p.commodity_at("max_demand");
           cfg.node_popularity_exponent = p.at("node_popularity_exponent");
           cfg.commodity_popularity_exponent =
               p.at("commodity_popularity_exponent");
           return make_service_network(cfg, poly_cost(p, cfg.num_commodities),
                                       rng);
         }});
  }
  {
    std::vector<ScenarioParam> params = {
        {"requests", 48, "number of requests"},
        {"commodities", 12, "|S|"},
        {"min_demand", 1, "smallest demand-set size"},
        {"max_demand", 6, "largest demand-set size"}};
    append(params, cost_params(1.0));
    registry.add(
        {.name = "single-point-mixed",
         .description = "everything on one point, random demand sets — a "
                        "pure configuration-choice stress test",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           SinglePointMixedConfig cfg;
           cfg.num_requests = p.size_t_at("requests");
           cfg.num_commodities =
               p.commodity_at("commodities");
           cfg.min_demand = p.commodity_at("min_demand");
           cfg.max_demand = p.commodity_at("max_demand");
           return make_single_point_mixed(
               cfg, poly_cost(p, cfg.num_commodities), rng);
         }});
  }
  {
    std::vector<ScenarioParam> params = {
        {"requests", 32, "number of requests"},
        {"commodities", 16, "|S|; demands overlap in at least |S|/2"}};
    append(params, cost_params(1.0));
    registry.add(
        {.name = "shared-demand",
         .description = "single point, large overlapping bundles — the "
                        "workload where bundling matters most (Theorem 4 "
                        "bench)",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           SinglePointMixedConfig cfg;
           cfg.num_requests = p.size_t_at("requests");
           cfg.num_commodities =
               p.commodity_at("commodities");
           cfg.min_demand =
               std::max<CommodityId>(1, cfg.num_commodities / 2);
           cfg.max_demand = cfg.num_commodities;
           return make_single_point_mixed(
               cfg, poly_cost(p, cfg.num_commodities), rng);
         }});
  }
  registry.add(
      {.name = "heavy-tail",
       .description = "shared bundle plus one heavy commodity priced "
                      "additively on top of a sqrt base (§5 closing "
                      "remarks; known exact OPT)",
       .params = {{"non_heavy", 12, "number of regular commodities"},
                  {"heavy_weight", 50, "additive cost of the heavy one"},
                  {"requests", 24, "number of requests"}},
       .make = [](const ScenarioParams& p, std::uint64_t seed) {
         (void)seed;  // fully deterministic workload
         const CommodityId non_heavy =
             p.commodity_at("non_heavy");
         const CommodityId s = non_heavy + 1;
         std::vector<double> weights(s, 0.0);
         weights[non_heavy] = p.at("heavy_weight");
         auto cost = std::make_shared<HeavyTailCostModel>(
             s,
             [](CommodityId k) {
               return 2.0 * std::sqrt(static_cast<double>(k));
             },
             CommoditySet::singleton(s, non_heavy), std::move(weights));
         CommoditySet bundle(s);
         for (CommodityId e = 0; e < non_heavy; ++e) bundle.add(e);
         std::vector<Request> requests(p.size_t_at("requests"),
                                       Request{0, bundle});
         Instance instance(std::make_shared<SinglePointMetric>(),
                           std::move(cost), std::move(requests),
                           "heavy-tail");
         instance.set_opt_certificate(OptCertificate{
             2.0 * std::sqrt(static_cast<double>(non_heavy)),
             /*exact=*/true, "one non-heavy bundle facility"});
         return instance;
       }});
}

void register_adversarial(ScenarioRegistry& registry) {
  registry.add(
      {.name = "theorem2",
       .description = "the Theorem 2 / Figure 1 single-point game: request "
                      "sqrt(|S|) random commodities one at a time under "
                      "cost ceil(|sigma|/sqrt(|S|)); OPT = scale exactly",
       .params = {{"commodities", 64, "|S|; the game plays floor(sqrt(|S|)) "
                                      "rounds"},
                  {"cost_scale", 1.0, "overall opening-cost scale"}},
       .make = [](const ScenarioParams& p, std::uint64_t seed) {
         Rng rng(seed);
         Theorem2Config cfg;
         cfg.num_commodities =
             p.commodity_at("commodities");
         cfg.cost_scale = p.at("cost_scale");
         return make_theorem2_instance(cfg, rng);
       }});
  registry.add(
      {.name = "theorem18",
       .description = "the Theorem 2 sequence under the class-C cost g_x "
                      "(the §3.3.2 adaptive lower bound)",
       .params = {{"commodities", 64, "|S|"},
                  {"cost_exponent", 1.0, "class-C exponent x in [0,2]"},
                  {"cost_scale", 1.0, "overall opening-cost scale"}},
       .make = [](const ScenarioParams& p, std::uint64_t seed) {
         Rng rng(seed);
         Theorem18Config cfg;
         cfg.num_commodities =
             p.commodity_at("commodities");
         cfg.exponent_x = p.at("cost_exponent");
         cfg.cost_scale = p.at("cost_scale");
         return make_theorem18_instance(cfg, rng);
       }});
  registry.add(
      {.name = "figure3",
       .description = "the Figure 3 probe: priming opens three small "
                      "facilities at d_small and one large at d_large, then "
                      "a request demands all three commodities",
       .params = {{"d_small", 1.0, "distance to each small-facility site"},
                  {"d_large", 2.0, "distance to the large-facility site"}},
       .make = [](const ScenarioParams& p, std::uint64_t seed) {
         (void)seed;  // the figure is a fixed, deterministic construction
         const double d_small = p.at("d_small");
         const double d_large = p.at("d_large");
         std::vector<double> positions = {0.0, d_small, -d_small, d_small,
                                          d_large};
         std::vector<Request> requests;
         for (CommodityId e = 0; e < 3; ++e)
           requests.push_back(Request{static_cast<PointId>(1 + e),
                                      CommoditySet::singleton(3, e)});
         requests.push_back(Request{4, CommoditySet::full_set(3)});
         requests.push_back(Request{0, CommoditySet::full_set(3)});
         return Instance(std::make_shared<LineMetric>(positions),
                         std::make_shared<Fig3Cost>(), std::move(requests),
                         "figure3");
       }});
}

}  // namespace

const ScenarioRegistry& default_scenario_registry() {
  static const ScenarioRegistry registry = [] {
    ScenarioRegistry r;
    register_generators(r);
    register_adversarial(r);
    return r;
  }();
  return registry;
}

}  // namespace omflp
