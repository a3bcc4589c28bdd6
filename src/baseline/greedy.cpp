#include "baseline/greedy.hpp"

#include <algorithm>

#include "instance/checkpoint_io.hpp"
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

void NearestOrOpen::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "NearestOrOpen::reset: incomplete context");
  cost_ = context.cost;
  dist_ = std::make_unique<DistanceOracle>(context.metric);
  num_commodities_ = context.num_commodities();
  offering_.assign(num_commodities_, {});
}

std::pair<double, FacilityId> NearestOrOpen::nearest_offering(
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

void NearestOrOpen::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "NearestOrOpen: serve() before reset()");
  request.commodities.for_each([&](CommodityId e) {
    const auto [d, id] = nearest_offering(e, request.location);
    const double open_here = cost_->singleton_cost(request.location, e);
    if (d <= open_here) {
      ledger.assign(e, id);
    } else {
      const FacilityId nid = ledger.open_facility(
          request.location, CommoditySet::singleton(num_commodities_, e));
      offering_[e].push_back(OpenRecord{request.location, nid});
      emit_greedy_open(ledger, nid, e, 0.0, open_here);
      ledger.assign(e, nid);
    }
  });
}

void RentOrBuy::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "RentOrBuy::reset: incomplete context");
  cost_ = context.cost;
  dist_ = std::make_unique<DistanceOracle>(context.metric);
  num_commodities_ = context.num_commodities();
  offering_.assign(num_commodities_, {});
  rent_account_.assign(num_commodities_, 0.0);
}

std::pair<double, FacilityId> RentOrBuy::nearest_offering(CommodityId e,
                                                          PointId p) const {
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
      const FacilityId nid = ledger.open_facility(
          request.location, CommoditySet::singleton(num_commodities_, e));
      offering_[e].push_back(OpenRecord{request.location, nid});
      emit_greedy_open(ledger, nid, e, rent_spent, open_here);
      ledger.assign(e, nid);
    }
  });
}

namespace {

/// Shared shape of the greedy baselines' facility index: one line per
/// commodity with its (point, facility id) records.
template <typename OpenRecordT>
void serialize_offering(
    CkptWriter& writer,
    const std::vector<std::vector<OpenRecordT>>& offering) {
  writer.line("offering-index").u(offering.size());
  for (const auto& row : offering) {
    writer.line("offering").u(row.size());
    for (const auto& f : row) writer.u(f.point).u(f.id);
  }
}

template <typename OpenRecordT>
void restore_offering(CkptReader& reader,
                      std::vector<std::vector<OpenRecordT>>& offering) {
  reader.expect("offering-index");
  if (reader.u() != offering.size())
    reader.fail("offering index universe mismatch");
  for (auto& row : offering) {
    reader.expect("offering");
    const std::uint64_t n = reader.u();
    row.reserve(capped_reserve(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      OpenRecordT f;
      f.point = static_cast<PointId>(reader.u());
      f.id = static_cast<FacilityId>(reader.u());
      row.push_back(f);
    }
  }
}

}  // namespace

void NearestOrOpen::serialize_state(CkptWriter& writer) const {
  serialize_offering(writer, offering_);
}

void NearestOrOpen::restore_state(CkptReader& reader, RequestId) {
  restore_offering(reader, offering_);
}

void RentOrBuy::serialize_state(CkptWriter& writer) const {
  serialize_offering(writer, offering_);
  writer.line("rent-accounts").u(rent_account_.size());
  for (const double v : rent_account_) writer.d(v);
}

void RentOrBuy::restore_state(CkptReader& reader, RequestId) {
  restore_offering(reader, offering_);
  reader.expect("rent-accounts");
  if (reader.u() != rent_account_.size())
    reader.fail("rent account universe mismatch");
  for (double& v : rent_account_) v = reader.d();
}

}  // namespace omflp
