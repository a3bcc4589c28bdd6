#include "core/rand_omflp.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// facility_open for the randomized algorithm: no primal-dual bid mass;
/// tightness carries the coin probability that fired (1.0 on the
/// deterministic completion path).
void emit_rand_open(const SolutionLedger& ledger, FacilityId id,
                    CommodityId commodity, double coin_p) {
  if (!obs::tracing()) return;
  const OpenFacilityRecord& record = ledger.facility(id);
  TraceEvent ev;
  ev.kind = TraceEventKind::kFacilityOpen;
  ev.request = ledger.num_requests() - 1;
  ev.commodity = commodity;
  ev.facility = id;
  ev.point = record.location;
  ev.config_size = record.config.count();
  ev.cost = record.open_cost;
  ev.tightness = coin_p;
  obs::emit(ev);
}

}  // namespace

RandOmflp::RandOmflp(RandOptions options)
    : options_(options), rng_(options.seed) {}

std::string RandOmflp::name() const { return "RAND-OMFLP"; }

void RandOmflp::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "RandOmflp::reset: incomplete context");
  cost_ = context.cost;
  metric_ = context.metric;
  dist_ = shared_distances(metric_);
  num_commodities_ = cost_->num_commodities();
  num_points_ = dist_->num_points();
  rng_ = Rng(options_.seed);

  offering_.assign(num_commodities_, {});
  larges_.clear();
  class_index_.clear();
  class_index_.resize(static_cast<std::size_t>(num_commodities_) + 1);
  accounting_.clear();
}

const CostClassIndex& RandOmflp::singleton_classes(CommodityId e) {
  auto& slot = class_index_[e];
  if (!slot)
    slot = std::make_unique<CostClassIndex>(
        metric_, cost_, CommoditySet::singleton(num_commodities_, e));
  return *slot;
}

const CostClassIndex& RandOmflp::full_classes() {
  auto& slot = class_index_[num_commodities_];
  if (!slot)
    slot = std::make_unique<CostClassIndex>(
        metric_, cost_, CommoditySet::full_set(num_commodities_));
  return *slot;
}

std::pair<double, FacilityId> RandOmflp::nearest_offering(CommodityId e,
                                                          PointId p) const {
  OMFLP_PERF_ADD(facilities_probed, offering_[e].size());
  double best = kInfiniteDistance;
  FacilityId best_id = kInvalidFacility;
  if (offering_[e].empty()) return {best, best_id};
  OMFLP_PERF_ADD(distance_lookups, offering_[e].size());
  const double* dist_p = dist_->row(p);
  for (const OpenRecord& f : offering_[e]) {
    const double d = dist_p[f.point];
    if (d < best) {
      best = d;
      best_id = f.id;
    }
  }
  return {best, best_id};
}

std::pair<double, FacilityId> RandOmflp::nearest_large(PointId p) const {
  OMFLP_PERF_ADD(facilities_probed, larges_.size());
  double best = kInfiniteDistance;
  FacilityId best_id = kInvalidFacility;
  if (larges_.empty()) return {best, best_id};
  OMFLP_PERF_ADD(distance_lookups, larges_.size());
  const double* dist_p = dist_->row(p);
  for (const OpenRecord& f : larges_) {
    const double d = dist_p[f.point];
    if (d < best) {
      best = d;
      best_id = f.id;
    }
  }
  return {best, best_id};
}

FacilityId RandOmflp::open_small(PointId m, CommodityId e,
                                 SolutionLedger& ledger, double coin_p) {
  const FacilityId id =
      ledger.open_facility(m, CommoditySet::singleton(num_commodities_, e));
  offering_[e].push_back(OpenRecord{m, id});
  emit_rand_open(ledger, id, e, coin_p);
  return id;
}

FacilityId RandOmflp::open_large(PointId m, SolutionLedger& ledger,
                                 double coin_p) {
  const FacilityId id =
      ledger.open_facility(m, CommoditySet::full_set(num_commodities_));
  larges_.push_back(OpenRecord{m, id});
  for (CommodityId e = 0; e < num_commodities_; ++e)
    offering_[e].push_back(OpenRecord{m, id});
  emit_rand_open(ledger, id, kInvalidCommodity, coin_p);
  return id;
}

void RandOmflp::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "RandOmflp: serve() before reset()");
  const PointId loc = request.location;
  const std::vector<CommodityId> commodities =
      request.commodities.to_vector();

  RandAccounting acct;
  const double open_before = ledger.opening_cost();

  // --- step 1: the cheapest all-small and single-large serving costs.
  std::vector<double> x_of(commodities.size());
  std::vector<CostClassIndex::BestOpenOption> small_open(commodities.size());
  double x_total = 0.0;
  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    const CommodityId e = commodities[slot];
    const double connect = nearest_offering(e, loc).first;
    small_open[slot] = singleton_classes(e).best_open_option(loc);
    x_of[slot] = std::min(connect, small_open[slot].cost);
    x_total += x_of[slot];
  }
  const double z_connect = nearest_large(loc).first;
  // With a single commodity the "large" side duplicates the small side
  // (S = {e}); skip it so the algorithm degenerates to Meyerson's OFL.
  const bool use_large_side = num_commodities_ > 1;
  CostClassIndex::BestOpenOption large_open;
  double z_total = kInfiniteDistance;
  if (use_large_side) {
    large_open = full_classes().best_open_option(loc);
    z_total = std::min(z_connect, large_open.cost);
  }
  const double budget = std::min(x_total, z_total);
  OMFLP_CHECK(std::isfinite(budget),
              "RandOmflp: request cannot be served at finite cost");

  acct.budget = budget;
  acct.x_total = x_total;
  acct.z_total = z_total;

  // --- step 2: small-facility coins. One coin per (commodity, class);
  // class distances capped at the budget (see header).
  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    const CommodityId e = commodities[slot];
    const double share = x_total > 0.0 ? x_of[slot] / x_total : 0.0;
    if (share <= 0.0) continue;
    const CostClassIndex& classes = singleton_classes(e);
    double d_prev = budget;
    for (std::size_t i = 0; i < classes.num_classes(); ++i) {
      const auto [site_dist, site] = classes.prefix_nearest(i, loc);
      const double d_i = std::min(budget, site_dist);
      const double improvement = std::max(0.0, d_prev - d_i);
      d_prev = d_i;
      if (improvement <= 0.0) continue;
      const double c_i = classes.class_cost(i);
      const double p =
          c_i > 0.0 ? std::min(1.0, improvement / c_i * share) : 1.0;
      acct.expected_small += p * c_i;
      OMFLP_PERF_COUNT(coin_flips);
      if (p > 0.0 && rng_.bernoulli(p)) open_small(site, e, ledger, p);
    }
  }

  // --- step 3: large-facility coins.
  if (use_large_side) {
    const CostClassIndex& classes = full_classes();
    double d_prev = budget;
    for (std::size_t i = 0; i < classes.num_classes(); ++i) {
      const auto [site_dist, site] = classes.prefix_nearest(i, loc);
      const double d_i = std::min(budget, site_dist);
      const double improvement = std::max(0.0, d_prev - d_i);
      d_prev = d_i;
      if (improvement <= 0.0) continue;
      const double c_i = classes.class_cost(i);
      const double p = c_i > 0.0 ? std::min(1.0, improvement / c_i) : 1.0;
      acct.expected_large += p * c_i;
      OMFLP_PERF_COUNT(coin_flips);
      if (p > 0.0 && rng_.bernoulli(p)) open_large(site, ledger, p);
    }
  }

  // --- step 4: deterministic completion for still-uncoverable
  // commodities (see header). Chooses the cheaper of the all-small /
  // single-large completions as computed in step 1.
  bool any_uncovered = false;
  for (const CommodityId e : commodities)
    if (offering_[e].empty()) {
      any_uncovered = true;
      break;
    }
  if (any_uncovered) {
    acct.completion_used = true;
    if (!use_large_side || x_total <= z_total) {
      for (std::size_t slot = 0; slot < commodities.size(); ++slot)
        if (offering_[commodities[slot]].empty())
          open_small(small_open[slot].point, commodities[slot], ledger,
                     /*coin_p=*/1.0);
    } else {
      open_large(large_open.point, ledger, /*coin_p=*/1.0);
    }
  }

  // --- step 5: connect to the cheaper of per-commodity nearest
  // facilities vs the single nearest large facility (post-build state).
  double sum_small = 0.0;
  std::vector<FacilityId> small_serving(commodities.size());
  for (std::size_t slot = 0; slot < commodities.size(); ++slot) {
    const auto [d, id] = nearest_offering(commodities[slot], loc);
    OMFLP_CHECK(id != kInvalidFacility, "RandOmflp: coverage hole");
    sum_small += d;
    small_serving[slot] = id;
  }
  const auto [d_large, large_id] = nearest_large(loc);
  if (large_id != kInvalidFacility && d_large < sum_small) {
    for (const CommodityId e : commodities) ledger.assign(e, large_id);
  } else {
    for (std::size_t slot = 0; slot < commodities.size(); ++slot)
      ledger.assign(commodities[slot], small_serving[slot]);
  }

  if (options_.record_accounting) {
    acct.realized_open = ledger.opening_cost() - open_before;
    acct.realized_connect =
        large_id != kInvalidFacility && d_large < sum_small ? d_large
                                                            : sum_small;
    accounting_.push_back(acct);
  }
}

void RandOmflp::serialize_state(CkptWriter& writer) const {
  serialize_rng(writer, rng_);
  writer.line("offering-index").u(offering_.size());
  for (const auto& row : offering_)
    serialize_open_records(writer, "offering", row);
  serialize_open_records(writer, "larges", larges_);
  writer.line("accounting").u(accounting_.size());
  for (const RandAccounting& a : accounting_) {
    writer.line("acct")
        .d(a.budget)
        .d(a.x_total)
        .d(a.z_total)
        .d(a.expected_small)
        .d(a.expected_large)
        .d(a.realized_open)
        .d(a.realized_connect)
        .b(a.completion_used);
  }
}

void RandOmflp::restore_state(CkptReader& reader, RequestId) {
  restore_rng(reader, rng_);
  reader.expect("offering-index");
  if (reader.u() != offering_.size())
    reader.fail("offering index universe mismatch");
  for (auto& row : offering_)
    row = restore_open_records(reader, "offering", num_points_);
  larges_ = restore_open_records(reader, "larges", num_points_);
  reader.expect("accounting");
  const std::uint64_t num_acct = reader.u();
  accounting_.reserve(capped_reserve(num_acct));
  for (std::uint64_t i = 0; i < num_acct; ++i) {
    reader.expect("acct");
    RandAccounting a;
    a.budget = reader.d();
    a.x_total = reader.d();
    a.z_total = reader.d();
    a.expected_small = reader.d();
    a.expected_large = reader.d();
    a.realized_open = reader.d();
    a.realized_connect = reader.d();
    a.completion_used = reader.b();
    accounting_.push_back(a);
  }
}

}  // namespace omflp
