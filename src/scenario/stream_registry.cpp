#include "scenario/stream_registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "metric/euclidean_metric.hpp"
#include "metric/line_metric.hpp"
#include "scenario/registry_util.hpp"
#include "support/rng.hpp"

namespace omflp {

EventStream StreamScenarioRegistry::make(
    const std::string& name, std::uint64_t seed,
    const std::map<std::string, double>& overrides) const {
  const StreamScenarioSpec& s = spec(name);
  EventStream stream = s.make(
      resolve_scenario_params(s.name, s.params, overrides, /*strict=*/true),
      seed);
  stream.validate();
  return stream;
}

// ----------------------------------------------------------- built-ins ---

namespace {

/// Demand-set draw shared by every family declaring the min_demand /
/// max_demand / popularity_exponent trio, resolved once per stream so the
/// event loop neither looks up parameters nor rebuilds the Zipf table.
struct DemandDraw {
  CommodityId commodities;
  CommodityId min_demand;
  CommodityId max_demand;  // clamped to |S|
  std::optional<ZipfSampler> zipf;  // empty = uniform

  DemandDraw(const ScenarioParams& p, CommodityId universe)
      : commodities(universe),
        min_demand(p.commodity_at("min_demand")),
        max_demand(std::min<CommodityId>(p.commodity_at("max_demand"),
                                         universe)) {
    const double exponent = p.at("popularity_exponent");
    if (exponent != 0.0) zipf.emplace(universe, exponent);
  }

  CommoditySet operator()(Rng& rng) const {
    const CommodityId size = static_cast<CommodityId>(
        rng.uniform_int(min_demand, std::max(min_demand, max_demand)));
    return sample_demand_set(commodities, size, zipf ? &*zipf : nullptr,
                             rng);
  }
};

/// Uniform-line arrival shared by the churn and lease families.
Request sample_line_request(const DemandDraw& demand, std::size_t points,
                            Rng& rng) {
  Request r;
  r.location = static_cast<PointId>(rng.uniform_index(points));
  r.commodities = demand(rng);
  return r;
}

/// Shared generator for the hotspot-grid family. `capacity` == 0 leaves
/// the stream uncapacitated; nonzero attaches a uniform per-point
/// capacity map *after* all RNG draws, so the capped variant replays the
/// exact event sequence of the uncapped one for the same seed.
EventStream make_hotspot_grid(const ScenarioParams& p, std::uint64_t seed,
                              std::uint64_t capacity, const char* name) {
  Rng rng(seed);
  const std::size_t side = p.size_t_at("side");
  if (side < 2)
    throw std::invalid_argument(std::string(name) +
                                ": side must be at least 2");
  const double extent = p.at("extent");
  const CommodityId commodities = p.commodity_at("commodities");
  const std::size_t num_events = p.size_t_at("events");
  const std::size_t hotspots = p.size_t_at("hotspots");
  if (hotspots == 0)
    throw std::invalid_argument(std::string(name) +
                                ": at least one hotspot is required");
  const double hot_exponent = p.at("hot_exponent");
  const double spread = p.at("spread");
  const double churn = p.at("churn");
  const double mean_lease = p.at("mean_lease");
  const std::size_t warmup = p.size_t_at("warmup");
  const DemandDraw demand(p, commodities);
  const ZipfSampler hot(hotspots, hot_exponent);

  const double step = extent / static_cast<double>(side - 1);
  std::vector<double> coords;
  coords.reserve(side * side * 2);
  for (std::size_t r = 0; r < side; ++r)
    for (std::size_t c = 0; c < side; ++c) {
      coords.push_back(static_cast<double>(c) * step);
      coords.push_back(static_cast<double>(r) * step);
    }
  auto metric = std::make_shared<EuclideanMetric>(2, std::move(coords));

  std::vector<std::pair<std::size_t, std::size_t>> centers;
  centers.reserve(hotspots);
  for (std::size_t h = 0; h < hotspots; ++h)
    centers.emplace_back(rng.uniform_index(side), rng.uniform_index(side));

  const auto clamp_cell = [&](double cell) {
    const auto rounded = static_cast<long long>(std::llround(cell));
    return static_cast<std::size_t>(std::clamp<long long>(
        rounded, 0, static_cast<long long>(side) - 1));
  };

  std::vector<StreamEvent> events;
  events.reserve(num_events);
  // Deletions may only target arrivals still alive under the timeline
  // semantics. `alive` lists them in the order departures draw from:
  // arrivals append, a departure swaps its slot with the last, and
  // expiries are removed in place.
  StreamTimeline timeline(name, side * side, commodities);
  std::vector<RequestId> alive;
  for (std::size_t t = 0; t < num_events; ++t) {
    bool expired = false;
    timeline.expire_due([&](RequestId, std::uint64_t) { expired = true; });
    if (expired)
      alive.erase(std::remove_if(alive.begin(), alive.end(),
                                 [&](RequestId id) {
                                   return !timeline.active(id);
                                 }),
                  alive.end());
    if (alive.size() > warmup && rng.bernoulli(churn)) {
      const std::size_t pick = rng.uniform_index(alive.size());
      events.push_back(StreamEvent::departure(alive[pick]));
      timeline.apply(events.back());
      alive[pick] = alive.back();
      alive.pop_back();
      continue;
    }
    const auto [center_r, center_c] = centers[hot(rng)];
    const std::size_t row =
        clamp_cell(static_cast<double>(center_r) + rng.normal() * spread);
    const std::size_t col =
        clamp_cell(static_cast<double>(center_c) + rng.normal() * spread);
    Request r;
    r.location = static_cast<PointId>(row * side + col);
    r.commodities = demand(rng);
    const std::uint64_t lease =
        mean_lease > 0.0
            ? 1 + static_cast<std::uint64_t>(
                      rng.exponential(1.0 / mean_lease))
            : 0;
    events.push_back(StreamEvent::arrival(std::move(r), lease));
    alive.push_back(timeline.apply(events.back()));
  }
  EventStream stream(std::move(metric), poly_cost(p, commodities),
                     std::move(events), name);
  if (capacity > 0)
    stream.set_capacities(std::make_shared<const std::vector<std::uint64_t>>(
        side * side, capacity));
  return stream;
}

void register_streams(StreamScenarioRegistry& registry) {
  {
    std::vector<ScenarioParam> params = {
        {"points", 64, "|M|, evenly spaced on the line"},
        {"length", 100, "line length"},
        {"events", 4096, "total events (arrivals + departures)"},
        {"commodities", 12, "|S|"},
        {"min_demand", 1, "smallest demand-set size"},
        {"max_demand", 4, "largest demand-set size"},
        {"popularity_exponent", 0.8, "Zipf exponent for commodity choice"},
        {"churn", 0.45,
         "per-event probability of deleting a random active request"},
        {"warmup", 32, "active requests before churn kicks in"}};
    append(params, cost_params(2.0));
    registry.add(
        {.name = "churn-uniform",
         .description = "uniform-line arrivals under churn-heavy random "
                        "deletions (the Cygan et al. deletion model)",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           const std::size_t points = p.size_t_at("points");
           const CommodityId commodities = p.commodity_at("commodities");
           const std::size_t num_events = p.size_t_at("events");
           const std::size_t warmup = p.size_t_at("warmup");
           const double churn = p.at("churn");
           const DemandDraw demand(p, commodities);

           std::vector<StreamEvent> events;
           events.reserve(num_events);
           std::vector<RequestId> active;  // ids eligible for deletion
           RequestId next_id = 0;
           for (std::size_t t = 0; t < num_events; ++t) {
             if (active.size() > warmup && rng.bernoulli(churn)) {
               const std::size_t pick = rng.uniform_index(active.size());
               events.push_back(StreamEvent::departure(active[pick]));
               active[pick] = active.back();
               active.pop_back();
             } else {
               events.push_back(StreamEvent::arrival(
                   sample_line_request(demand, points, rng)));
               active.push_back(next_id++);
             }
           }
           return EventStream(
               LineMetric::uniform_grid(points, p.at("length")),
               poly_cost(p, commodities), std::move(events),
               "churn-uniform");
         }});
  }
  registry.add(
      {.name = "adversarial-churn",
       .description =
           "insert-then-delete phases of the Theorem 2 / Figure 1 game: "
           "each phase replays the adversarial sequence and then deletes "
           "all but its last request, keeping OPT(surviving) tiny",
       .params = {{"commodities", 64,
                   "|S|; each phase plays floor(sqrt(|S|)) rounds"},
                  {"phases", 8, "insert-then-delete phases"},
                  {"cost_scale", 1.0, "overall opening-cost scale"}},
       .make = [](const ScenarioParams& p, std::uint64_t seed) {
         Rng rng(seed);
         Theorem2Config cfg;
         cfg.num_commodities = p.commodity_at("commodities");
         cfg.cost_scale = p.at("cost_scale");
         const std::size_t phases = p.size_t_at("phases");

         MetricPtr metric;
         CostModelPtr cost;
         std::vector<StreamEvent> events;
         RequestId next_id = 0;
         for (std::size_t phase = 0; phase < phases; ++phase) {
           // A fresh draw of the Theorem 2 distribution per phase; the
           // single-point metric and ceil-ratio cost model are identical
           // across phases, so the first instance supplies them.
           const Instance instance = make_theorem2_instance(cfg, rng);
           if (phase == 0) {
             metric = instance.metric_ptr();
             cost = instance.cost_ptr();
           }
           const RequestId first = next_id;
           for (const Request& r : instance.requests()) {
             events.push_back(StreamEvent::arrival(r));
             ++next_id;
           }
           for (RequestId id = first; id + 1 < next_id; ++id)
             events.push_back(StreamEvent::departure(id));
         }
         return EventStream(std::move(metric), std::move(cost),
                            std::move(events), "adversarial-churn");
       }});
  {
    std::vector<ScenarioParam> params = {
        {"points", 64, "|M|, evenly spaced on the line"},
        {"length", 100, "line length"},
        {"events", 4096, "total events (all arrivals)"},
        {"commodities", 12, "|S|"},
        {"min_demand", 1, "smallest demand-set size"},
        {"max_demand", 3, "largest demand-set size"},
        {"popularity_exponent", 0.8, "Zipf exponent for commodity choice"},
        {"mean_lease", 96, "mean lease length in events (exponential)"}};
    append(params, cost_params(2.0));
    registry.add(
        {.name = "lease-poisson",
         .description = "pure lease-expiry traffic: every arrival carries "
                        "a memoryless exponential lease (Poisson-style "
                        "session durations)",
         .params = std::move(params),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           Rng rng(seed);
           const std::size_t points = p.size_t_at("points");
           const CommodityId commodities = p.commodity_at("commodities");
           const std::size_t num_events = p.size_t_at("events");
           const double mean_lease = p.at("mean_lease");
           if (!(mean_lease > 0.0))
             throw std::invalid_argument(
                 "lease-poisson: mean_lease must be positive");
           const DemandDraw demand(p, commodities);

           std::vector<StreamEvent> events;
           events.reserve(num_events);
           for (std::size_t t = 0; t < num_events; ++t) {
             const std::uint64_t lease =
                 1 + static_cast<std::uint64_t>(
                         rng.exponential(1.0 / mean_lease));
             events.push_back(StreamEvent::arrival(
                 sample_line_request(demand, points, rng), lease));
           }
           return EventStream(
               LineMetric::uniform_grid(points, p.at("length")),
               poly_cost(p, commodities), std::move(events),
               "lease-poisson");
         }});
  }
  {
    const auto hotspot_params = [] {
      std::vector<ScenarioParam> params = {
          {"side", 12, "grid side; |M| = side^2 points in the plane"},
          {"extent", 100, "grid extent per axis"},
          {"events", 4096, "total events (arrivals + departures)"},
          {"commodities", 12, "|S|"},
          {"min_demand", 1, "smallest demand-set size"},
          {"max_demand", 4, "largest demand-set size"},
          {"popularity_exponent", 0.8,
           "Zipf exponent for commodity choice"},
          {"hotspots", 4, "number of Zipf-weighted traffic hotspots"},
          {"hot_exponent", 1.0, "Zipf exponent over hotspot popularity"},
          {"spread", 1.5, "gaussian spread around a hotspot, in cells"},
          {"churn", 0.25,
           "per-event probability of deleting a random active request"},
          {"mean_lease", 0,
           "mean exponential lease in events (0 = pinned arrivals)"},
          {"warmup", 32, "active requests before churn kicks in"}};
      append(params, cost_params(2.0));
      return params;
    };
    registry.add(
        {.name = "hotspot-grid",
         .description = "2-D Euclidean grid arrivals clustered around "
                        "Zipf-weighted hotspots, with churn deletions and "
                        "optional exponential leases (planar city traffic)",
         .params = hotspot_params(),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           return make_hotspot_grid(p, seed, /*capacity=*/0,
                                    "hotspot-grid");
         }});
    // The capacity-stressed sibling: the identical event sequence per
    // (seed, shared params) — the capacity only annotates the stream, it
    // never perturbs a single RNG draw — so capped-vs-uncapped diffs
    // isolate admission control.
    std::vector<ScenarioParam> capped = hotspot_params();
    capped.push_back({"capacity", 6,
                      "per-point facility capacity (distinct active "
                      "requests per facility)"});
    registry.add(
        {.name = "hotspot-grid-capped",
         .description = "hotspot-grid with a uniform per-point facility "
                        "capacity tight enough that hotspot traffic "
                        "overflows (admission-control stress)",
         .params = std::move(capped),
         .make = [](const ScenarioParams& p, std::uint64_t seed) {
           const std::size_t capacity = p.size_t_at("capacity");
           if (capacity == 0)
             throw std::invalid_argument(
                 "hotspot-grid-capped: capacity must be at least 1");
           return make_hotspot_grid(p, seed, capacity,
                                    "hotspot-grid-capped");
         }});
  }
}

}  // namespace

const StreamScenarioRegistry& default_stream_scenario_registry() {
  static const StreamScenarioRegistry registry = [] {
    StreamScenarioRegistry r;
    register_streams(r);
    return r;
  }();
  return registry;
}

// ---------------------------------------------------------------- mixes ---

void WorkloadMixRegistry::add(WorkloadMixSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("WorkloadMixRegistry: empty mix name");
  if (spec.profiles.empty())
    throw std::invalid_argument("WorkloadMixRegistry: mix '" + spec.name +
                                "' has no tenant profiles");
  const StreamScenarioRegistry& streams = default_stream_scenario_registry();
  for (const TenantProfile& profile : spec.profiles) {
    if (!streams.contains(profile.scenario))
      throw std::invalid_argument("WorkloadMixRegistry: mix '" + spec.name +
                                  "' references unknown stream scenario '" +
                                  profile.scenario + "'");
    if (!(profile.weight > 0.0))
      throw std::invalid_argument("WorkloadMixRegistry: mix '" + spec.name +
                                  "' has a non-positive profile weight");
    // Fail typo'd parameter names at registration, with the mix named in
    // the message — not later, deep inside engine construction, where
    // resolve_scenario_params would name neither mix nor profile.
    const StreamScenarioSpec& scenario = streams.spec(profile.scenario);
    const auto declared = [&](const std::string& name) {
      for (const ScenarioParam& param : scenario.params)
        if (param.name == name) return true;
      return false;
    };
    if (!declared(profile.size_param))
      throw std::invalid_argument(
          "WorkloadMixRegistry: mix '" + spec.name + "': scenario '" +
          profile.scenario + "' does not declare size_param '" +
          profile.size_param + "'");
    for (const auto& [key, _] : profile.overrides)
      if (!declared(key))
        throw std::invalid_argument(
            "WorkloadMixRegistry: mix '" + spec.name + "': scenario '" +
            profile.scenario + "' does not declare override '" + key +
            "'");
  }
  Registry::add(std::move(spec));
}

std::vector<TenantSpec> WorkloadMixRegistry::tenants(
    const std::string& name, std::size_t count, std::uint64_t seed,
    double size_scale) const {
  const WorkloadMixSpec& mix = spec(name);
  if (count == 0)
    throw std::invalid_argument("workload mix '" + name +
                                "': tenant count must be positive");
  if (!(size_scale > 0.0))
    throw std::invalid_argument("workload mix '" + name +
                                "': size_scale must be positive");

  std::vector<double> cumulative;
  cumulative.reserve(mix.profiles.size());
  double total_weight = 0.0;
  for (const TenantProfile& profile : mix.profiles) {
    total_weight += profile.weight;
    cumulative.push_back(total_weight);
  }

  Rng rng(seed);
  std::vector<TenantSpec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double draw = rng.uniform(0.0, total_weight);
    std::size_t pick = 0;
    while (pick + 1 < cumulative.size() && draw >= cumulative[pick]) ++pick;
    const TenantProfile& profile = mix.profiles[pick];

    // Zipf-skewed tenant hotness: tenant 0 is the hottest; under the
    // engine's round-robin shard placement the low shards therefore
    // carry most of the traffic.
    const double share =
        std::pow(static_cast<double>(i + 1), -mix.hotness);
    const double size =
        std::max(profile.min_size,
                 std::floor(profile.base_size * share * size_scale));

    TenantSpec tenant;
    char label[32];
    std::snprintf(label, sizeof(label), "t%03zu-", i);
    tenant.name = label + profile.scenario;
    tenant.scenario = profile.scenario;
    tenant.overrides = profile.overrides;
    tenant.overrides[profile.size_param] = size;
    tenant.seed = rng.next_u64();
    out.push_back(std::move(tenant));
  }
  return out;
}

namespace {

void register_mixes(WorkloadMixRegistry& registry) {
  registry.add(
      {.name = "churn-heavy",
       .description = "deletion-dominated traffic: high-churn line and "
                      "grid tenants with near-uniform tenant volumes",
       .profiles = {{.scenario = "churn-uniform",
                     .overrides = {{"churn", 0.6}, {"warmup", 16}},
                     .weight = 2.0,
                     .base_size = 4096},
                    {.scenario = "hotspot-grid",
                     .overrides = {{"churn", 0.5}, {"warmup", 16}},
                     .weight = 1.0,
                     .base_size = 4096}},
       .hotness = 0.5});
  registry.add(
      {.name = "lease-heavy",
       .description = "session-style traffic: every tenant is "
                      "lease-poisson, alternating short and long mean "
                      "session lengths",
       .profiles = {{.scenario = "lease-poisson",
                     .overrides = {{"mean_lease", 32}},
                     .weight = 1.0,
                     .base_size = 4096},
                    {.scenario = "lease-poisson",
                     .overrides = {{"mean_lease", 256}},
                     .weight = 1.0,
                     .base_size = 4096}},
       .hotness = 0.9});
  registry.add(
      {.name = "mixed",
       .description = "heterogeneous tenants across all four stream "
                      "families: line churn, planar hotspots, poisson "
                      "leases and adversarial insert-delete phases",
       .profiles = {{.scenario = "churn-uniform",
                     .overrides = {{"points", 96},
                                   {"commodities", 16},
                                   {"churn", 0.45}},
                     .weight = 3.0,
                     .base_size = 4096},
                    {.scenario = "hotspot-grid",
                     .overrides = {{"side", 10},
                                   {"commodities", 12},
                                   {"churn", 0.3},
                                   {"mean_lease", 128}},
                     .weight = 2.0,
                     .base_size = 4096},
                    {.scenario = "lease-poisson",
                     .overrides = {{"commodities", 8}, {"mean_lease", 64}},
                     .weight = 2.0,
                     .base_size = 4096},
                    {.scenario = "adversarial-churn",
                     .overrides = {{"commodities", 36}},
                     .weight = 1.0,
                     .size_param = "phases",
                     .base_size = 6,
                     .min_size = 1}},
       .hotness = 1.1});
}

}  // namespace

const WorkloadMixRegistry& default_workload_mix_registry() {
  static const WorkloadMixRegistry registry = [] {
    WorkloadMixRegistry r;
    register_mixes(r);
    return r;
  }();
  return registry;
}

}  // namespace omflp
