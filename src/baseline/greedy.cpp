#include "baseline/greedy.hpp"

#include <algorithm>

#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// facility_open for the greedy baselines: bid_mass is the accumulated
/// spend that triggered the buy (the rent account for RentOrBuy, 0
/// otherwise) and tightness the local threshold it crossed.
void emit_greedy_open(const SolutionLedger& ledger, FacilityId id,
                      CommodityId commodity, double bid_mass,
                      double tightness) {
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
  ev.bid_mass = bid_mass;
  ev.tightness = tightness;
  obs::emit(ev);
}

}  // namespace

void AlwaysOpen::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "AlwaysOpen::reset: incomplete context");
  num_commodities_ = context.num_commodities();
}

void AlwaysOpen::serve(const Request& request, SolutionLedger& ledger) {
  const FacilityId id =
      ledger.open_facility(request.location, request.commodities);
  emit_greedy_open(ledger, id, kInvalidCommodity, 0.0, 0.0);
  request.commodities.for_each(
      [&](CommodityId e) { ledger.assign(e, id); });
}

void SingletonGreedy::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                name() + "::reset: incomplete context");
  cost_ = context.cost;
  dist_ = shared_distances(context.metric);
  num_commodities_ = context.num_commodities();
  offering_.assign(num_commodities_, {});
}

std::pair<double, FacilityId> SingletonGreedy::nearest_offering(
    CommodityId e, PointId p) const {
  OMFLP_PERF_ADD(facilities_probed, offering_[e].size());
  double best = kInfiniteDistance;
  FacilityId best_id = kInvalidFacility;
  for (const OpenRecord& f : offering_[e]) {
    const double d = (*dist_)(p, f.point);
    if (d < best) {
      best = d;
      best_id = f.id;
    }
  }
  return {best, best_id};
}

void SingletonGreedy::open_and_assign(CommodityId e, PointId p,
                                      SolutionLedger& ledger,
                                      double bid_mass, double tightness) {
  const FacilityId id =
      ledger.open_facility(p, CommoditySet::singleton(num_commodities_, e));
  offering_[e].push_back(OpenRecord{p, id});
  emit_greedy_open(ledger, id, e, bid_mass, tightness);
  ledger.assign(e, id);
}

void SingletonGreedy::serialize_state(CkptWriter& writer) const {
  writer.line("offering-index").u(offering_.size());
  for (const auto& row : offering_)
    serialize_open_records(writer, "offering", row);
}

void SingletonGreedy::restore_state(CkptReader& reader, RequestId) {
  reader.expect("offering-index");
  if (reader.u() != offering_.size())
    reader.fail("offering index universe mismatch");
  for (auto& row : offering_)
    row = restore_open_records(reader, "offering", dist_->num_points());
}

void NearestOrOpen::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "NearestOrOpen: serve() before reset()");
  request.commodities.for_each([&](CommodityId e) {
    const auto [d, id] = nearest_offering(e, request.location);
    const double open_here = cost_->singleton_cost(request.location, e);
    if (d <= open_here)
      ledger.assign(e, id);
    else
      open_and_assign(e, request.location, ledger, 0.0, open_here);
  });
}

void RentOrBuy::reset(const ProblemContext& context) {
  SingletonGreedy::reset(context);
  rent_account_.assign(num_commodities_, 0.0);
}

void RentOrBuy::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "RentOrBuy: serve() before reset()");
  request.commodities.for_each([&](CommodityId e) {
    const auto [d, id] = nearest_offering(e, request.location);
    const double open_here = cost_->singleton_cost(request.location, e);
    // Classic ski rental: keep renting (connecting) while the accumulated
    // rent including this connection stays below the local opening cost;
    // buy (open here) once it would exceed it.
    if (id != kInvalidFacility && rent_account_[e] + d <= open_here) {
      rent_account_[e] += d;
      ledger.assign(e, id);
    } else {
      const double rent_spent = rent_account_[e];
      rent_account_[e] = 0.0;
      open_and_assign(e, request.location, ledger, rent_spent, open_here);
    }
  });
}

void RentOrBuy::serialize_state(CkptWriter& writer) const {
  SingletonGreedy::serialize_state(writer);
  writer.line("rent-accounts").u(rent_account_.size());
  for (const double v : rent_account_) writer.d(v);
}

void RentOrBuy::restore_state(CkptReader& reader, RequestId num_requests) {
  SingletonGreedy::restore_state(reader, num_requests);
  reader.expect("rent-accounts");
  if (reader.u() != rent_account_.size())
    reader.fail("rent account universe mismatch");
  for (double& v : rent_account_) v = reader.d();
}

}  // namespace omflp
