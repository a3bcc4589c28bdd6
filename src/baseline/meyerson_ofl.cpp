#include "baseline/meyerson_ofl.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// facility_open for Meyerson coins: tightness carries the coin
/// probability (1.0 on the completion path), like RAND-OMFLP.
void emit_meyerson_open(const SolutionLedger& ledger, FacilityId id,
                        double coin_p) {
  if (!obs::tracing()) return;
  const OpenFacilityRecord& record = ledger.facility(id);
  TraceEvent ev;
  ev.kind = TraceEventKind::kFacilityOpen;
  ev.request = ledger.num_requests() - 1;
  ev.commodity = 0;
  ev.facility = id;
  ev.point = record.location;
  ev.config_size = record.config.count();
  ev.cost = record.open_cost;
  ev.tightness = coin_p;
  obs::emit(ev);
}

}  // namespace

void MeyersonOfl::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "MeyersonOfl::reset: incomplete context");
  OMFLP_REQUIRE(context.num_commodities() == 1,
                "MeyersonOfl: single-commodity algorithm; wrap in "
                "PerCommodityAdapter for |S| > 1");
  cost_ = context.cost;
  dist_ = shared_distances(context.metric);
  classes_ = std::make_unique<CostClassIndex>(context.metric, context.cost,
                                              CommoditySet::full_set(1));
  facilities_ = NearestFacilityRow(*dist_);
  rng_ = Rng(seed_);
}

void MeyersonOfl::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "MeyersonOfl: serve() before reset()");
  const PointId loc = request.location;

  const double connect = facilities_.nearest(loc).dist;
  const auto open = classes_->best_open_option(loc);
  const double budget = std::min(connect, open.cost);
  OMFLP_CHECK(std::isfinite(budget), "MeyersonOfl: unserviceable request");

  // One coin per cost class, improvements capped at the budget (same
  // reading as RAND-OMFLP; see core/rand_omflp.hpp).
  double d_prev = budget;
  for (std::size_t i = 0; i < classes_->num_classes(); ++i) {
    const auto [site_dist, site] = classes_->prefix_nearest(i, loc);
    const double d_i = std::min(budget, site_dist);
    const double improvement = std::max(0.0, d_prev - d_i);
    d_prev = d_i;
    if (improvement <= 0.0) continue;
    const double c_i = classes_->class_cost(i);
    const double p = c_i > 0.0 ? std::min(1.0, improvement / c_i) : 1.0;
    OMFLP_PERF_COUNT(coin_flips);
    if (p > 0.0 && rng_.bernoulli(p)) {
      const FacilityId id =
          ledger.open_facility(site, CommoditySet::full_set(1));
      facilities_.add(OpenRecord{site, id});
      emit_meyerson_open(ledger, id, p);
    }
  }

  // Completion: the request must be serviceable.
  if (facilities_.empty()) {
    const FacilityId id =
        ledger.open_facility(open.point, CommoditySet::full_set(1));
    facilities_.add(OpenRecord{open.point, id});
    emit_meyerson_open(ledger, id, /*coin_p=*/1.0);
  }

  ledger.assign(0, facilities_.nearest(loc).id);
}

void MeyersonOfl::serialize_state(CkptWriter& writer) const {
  serialize_rng(writer, rng_);
  facilities_.serialize(writer, "facilities");
}

void MeyersonOfl::restore_state(CkptReader& reader, RequestId) {
  restore_rng(reader, rng_);
  facilities_.restore(reader, "facilities");
}

}  // namespace omflp
