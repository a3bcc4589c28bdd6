#include "baseline/meyerson_ofl.hpp"

#include <algorithm>
#include <cmath>

#include "baseline/sub_instance_layout.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// facility_open for Meyerson coins: tightness carries the coin
/// probability (1.0 on the completion path), like RAND-OMFLP.
void emit_meyerson_open(const SolutionLedger& ledger, CommodityId e,
                        FacilityId id, double coin_p) {
  if (!obs::tracing()) return;
  const OpenFacilityRecord& record = ledger.facility(id);
  TraceEvent ev;
  ev.kind = TraceEventKind::kFacilityOpen;
  ev.request = ledger.num_requests() - 1;
  ev.commodity = e;
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
  metric_ = context.metric;
  cost_ = context.cost;
  dist_ = shared_distances(context.metric);
  commodities_.clear();
  commodities_.resize(context.num_commodities());
}

MeyersonOfl::CommodityState& MeyersonOfl::start(CommodityId e) {
  CommodityState& c = commodities_[e];
  if (!c.started) {
    c.rng = Rng(seed_ ^ (0x9e3779b97f4a7c15ULL * (e + 1)));
    c.classes = std::make_unique<CostClassIndex>(
        metric_, cost_, CommoditySet::singleton(cost_->num_commodities(), e));
    c.facilities = NearestFacilityRow(*dist_);
    c.started = true;
  }
  return c;
}

void MeyersonOfl::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "MeyersonOfl: serve() before reset()");
  const PointId loc = request.location;
  const CommodityId s = cost_->num_commodities();
  request.commodities.for_each([&](CommodityId e) {
    CommodityState& c = start(e);
    const double connect = c.facilities.nearest(loc).dist;
    const auto open = c.classes->best_open_option(loc);
    const double budget = std::min(connect, open.cost);
    OMFLP_CHECK(std::isfinite(budget), "MeyersonOfl: unserviceable request");

    // One coin per cost class, improvements capped at the budget (same
    // reading as RAND-OMFLP; see core/rand_omflp.hpp).
    double d_prev = budget;
    for (std::size_t i = 0; i < c.classes->num_classes(); ++i) {
      const auto [site_dist, site] = c.classes->prefix_nearest(i, loc);
      const double d_i = std::min(budget, site_dist);
      const double improvement = std::max(0.0, d_prev - d_i);
      d_prev = d_i;
      if (improvement <= 0.0) continue;
      const double c_i = c.classes->class_cost(i);
      const double p = c_i > 0.0 ? std::min(1.0, improvement / c_i) : 1.0;
      OMFLP_PERF_COUNT(coin_flips);
      if (p > 0.0 && c.rng.bernoulli(p)) {
        const FacilityId id =
            ledger.open_facility(site, CommoditySet::singleton(s, e));
        c.facilities.add(OpenRecord{site, id});
        emit_meyerson_open(ledger, e, id, p);
      }
    }

    // Completion: the request must be serviceable.
    if (c.facilities.empty()) {
      const FacilityId id =
          ledger.open_facility(open.point, CommoditySet::singleton(s, e));
      c.facilities.add(OpenRecord{open.point, id});
      emit_meyerson_open(ledger, e, id, /*coin_p=*/1.0);
    }

    ledger.assign(e, c.facilities.nearest(loc).id);
  });
}

void MeyersonOfl::serialize_state(CkptWriter& writer) const {
  writer.line("commodities").u(commodities_.size());
  for (std::size_t e = 0; e < commodities_.size(); ++e) {
    const CommodityState& c = commodities_[e];
    writer.line("commodity").u(e).b(c.started);
    if (!c.started) continue;
    serialize_rng(writer, c.rng);
    c.facilities.serialize(writer, "facilities");
  }
}

void MeyersonOfl::restore_state(CkptReader& reader, RequestId num_requests) {
  const std::string_view layout = reader.next_key();
  if (layout == "subs") {
    // A sub-instance's facilities carry its own ids until the facility
    // map that follows its ledger translates them.
    std::vector<OpenRecord> sub_facilities;
    read_sub_instance_layout(
        reader, metric_, static_cast<CommodityId>(commodities_.size()),
        num_requests,
        [&](CommodityId e) {
          restore_rng(reader, start(e).rng);
          sub_facilities = restore_open_records(reader, "facilities",
                                                dist_->num_points());
        },
        [&](CommodityId e, const SubInstanceIds& ids) {
          for (OpenRecord f : sub_facilities) {
            if (f.id >= ids.facility_map.size())
              reader.fail("facility outside the sub-instance's map");
            f.id = ids.facility_map[f.id];
            commodities_[e].facilities.add(f);
          }
        });
    return;
  }
  if (layout != "commodities") reader.fail("expected 'commodities'");
  if (reader.u() != commodities_.size())
    reader.fail("commodity count differs from the universe");
  for (std::size_t e = 0; e < commodities_.size(); ++e) {
    reader.expect("commodity");
    if (reader.u() != e) reader.fail("commodities out of order");
    if (!reader.b()) continue;
    CommodityState& c = start(static_cast<CommodityId>(e));
    restore_rng(reader, c.rng);
    c.facilities.restore(reader, "facilities");
  }
}

}  // namespace omflp
