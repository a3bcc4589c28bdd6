#include "baseline/fotakis_ofl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baseline/sub_instance_layout.hpp"
#include "kernel/kernels.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// Request `id`'s entry in an archive (binary search: archives are in id
/// order), or nullptr when it holds none.
template <typename Past>
auto* find_past(Past& past, RequestId id) {
  const auto it = std::lower_bound(
      past.begin(), past.end(), id,
      [](const auto& pr, RequestId r) { return pr.id < r; });
  return it != past.end() && it->id == id ? &*it : nullptr;
}

}  // namespace

void FotakisOfl::reset(const ProblemContext& context) {
  OMFLP_REQUIRE(context.metric != nullptr && context.cost != nullptr,
                "FotakisOfl::reset: incomplete context");
  metric_ = context.metric;
  cost_ = context.cost;
  dist_ = shared_distances(context.metric);
  num_points_ = dist_->num_points();
  commodities_.clear();
  commodities_.resize(context.num_commodities());
}

FotakisOfl::CommodityState& FotakisOfl::start(CommodityId e) {
  CommodityState& c = commodities_[e];
  if (!c.started) {
    const CommoditySet single =
        CommoditySet::singleton(cost_->num_commodities(), e);
    c.bids.assign(num_points_, 0.0);
    c.cost_row.resize(num_points_);
    for (PointId m = 0; m < num_points_; ++m)
      c.cost_row[m] = cost_->open_cost(m, single);
    c.started = true;
  }
  return c;
}

void FotakisOfl::serve(const Request& request, SolutionLedger& ledger) {
  OMFLP_CHECK(cost_ != nullptr, "FotakisOfl: serve() before reset()");
  const RequestId id = ledger.num_requests() - 1;
  request.commodities.for_each([&](CommodityId e) {
    serve_commodity(e, id, request.location, ledger);
  });
}

void FotakisOfl::serve_commodity(CommodityId e, RequestId id, PointId loc,
                                 SolutionLedger& ledger) {
  CommodityState& c = start(e);

  // Nearest open facility (constraint (1) threshold).
  OMFLP_PERF_ADD(facilities_probed, c.facilities.size());
  double d1 = kInfiniteDistance;
  FacilityId f1 = kInvalidFacility;
  if (!c.facilities.empty()) {
    OMFLP_PERF_ADD(distance_lookups, c.facilities.size());
    const double* dist_loc = dist_->row(loc);
    for (const OpenRecord& f : c.facilities) {
      const double d = dist_loc[f.point];
      if (d < d1) {
        d1 = d;
        f1 = f.id;
      }
    }
  }

  // First tightness event while raising a_r from 0:
  //   (1) a_r = d(F, r);
  //   (3) (a_r − d(m,r))+ + bids[m] = f_m  ⇒  a_r = d(m,r) + f_m − bids[m].
  double best_delta = d1;
  int best_kind = 1;
  PointId best_point = kInvalidPoint;
  OMFLP_PERF_ADD(bids_evaluated, num_points_);
  OMFLP_PERF_ADD(distance_lookups, num_points_);
  const kernel::RowEvent event = kernel::min_tightness_over_row(
      dist_->row(loc), c.cost_row.data(), c.bids.data(), /*raised=*/0.0,
      /*divisor=*/1.0, num_points_);
  if (event.delta < best_delta) {
    best_delta = event.delta;
    best_kind = 3;
    best_point = static_cast<PointId>(event.index);
  }
  OMFLP_CHECK(std::isfinite(best_delta),
              "FotakisOfl: no constraint can become tight");

  const double a = best_delta;
  FacilityId serving = f1;
  if (best_kind == 3) {
    serving = ledger.open_facility(
        best_point, CommoditySet::singleton(cost_->num_commodities(), e));
    c.facilities.push_back(OpenRecord{best_point, serving});
    if (obs::tracing()) {
      // Captured before the reinvestment loop below mutates the bids and
      // the maintained facility distances.
      TraceEvent ev;
      ev.kind = TraceEventKind::kFacilityOpen;
      ev.request = id;
      ev.constraint = 3;
      ev.commodity = e;
      ev.facility = serving;
      ev.point = best_point;
      ev.config_size = 1;
      ev.cost = ledger.facility(serving).open_cost;
      ev.bid_mass = c.bids[best_point];
      ev.tightness = a;
      std::vector<TraceContributor> contribs;
      const double* dist_m = dist_->row(best_point);
      for (const PastRequest& pr : c.past) {
        const double v = std::min(pr.dual, pr.facility_dist);
        if (v <= 0.0) continue;
        const double amount = v - dist_m[pr.location];
        if (amount > 0.0) contribs.push_back(TraceContributor{pr.id, amount});
      }
      const double own = a - dist_m[loc];
      if (own > 0.0) contribs.push_back(TraceContributor{id, own});
      set_trace_contributors(ev, std::move(contribs));
      obs::emit(ev);
    }
    // The new facility may lower past requests' d(F, j); shrink their
    // outstanding bids accordingly (Lemma 6's reinvestment rule).
    // Departed requests bid nothing and are skipped, so the work does not
    // depend on when they are erased.
    for (PastRequest& pr : c.past) {
      if (pr.departed) continue;
      const double d_new = (*dist_)(best_point, pr.location);
      if (d_new >= pr.facility_dist) continue;
      const double v_old = std::min(pr.dual, pr.facility_dist);
      const double v_new = std::min(pr.dual, d_new);
      if (v_new < v_old && v_old > 0.0) {
        OMFLP_PERF_ADD(bids_updated, num_points_);
        OMFLP_PERF_ADD(distance_lookups, num_points_);
        kernel::shift_clipped_bid(c.bids.data(), dist_->row(pr.location),
                                  v_old, v_new, num_points_);
      }
      pr.facility_dist = d_new;
    }
  }

  // Archive: post this request's bid contributions.
  PastRequest pr;
  pr.id = id;
  pr.location = loc;
  pr.dual = a;
  pr.facility_dist = kInfiniteDistance;
  if (!c.facilities.empty()) {
    OMFLP_PERF_ADD(distance_lookups, c.facilities.size());
    const double* dist_loc = dist_->row(loc);
    for (const OpenRecord& f : c.facilities)
      pr.facility_dist = std::min(pr.facility_dist, dist_loc[f.point]);
  }
  const double v = std::min(pr.dual, pr.facility_dist);
  if (v > 0.0) {
    OMFLP_PERF_ADD(bids_updated, num_points_);
    OMFLP_PERF_ADD(distance_lookups, num_points_);
    kernel::accumulate_clipped_bid(c.bids.data(), dist_->row(loc), v,
                                   num_points_);
  }
  c.past.push_back(pr);
  c.total_dual += a;

  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kDualRaise;
    ev.request = id;
    ev.commodity = e;
    ev.config_size = 1;
    ev.cost = a;
    obs::emit(ev);
  }
  ledger.assign(e, serving);
}

double FotakisOfl::total_dual() const noexcept {
  double total = 0.0;
  for (const CommodityState& c : commodities_) total += c.total_dual;
  return total;
}

double FotakisOfl::dual(RequestId id, CommodityId e) const {
  OMFLP_REQUIRE(e < commodities_.size(), "FotakisOfl: commodity range");
  const PastRequest* pr = find_past(commodities_[e].past, id);
  return pr == nullptr ? 0.0 : pr->dual;
}

void FotakisOfl::depart(RequestId id, const Request& request,
                        SolutionLedger& ledger) {
  (void)ledger;
  OMFLP_CHECK(cost_ != nullptr, "FotakisOfl: depart() before reset()");
  request.commodities.for_each([&](CommodityId e) {
    CommodityState& c = commodities_[e];
    PastRequest* found = find_past(c.past, id);
    OMFLP_REQUIRE(found != nullptr && !found->departed,
                  "FotakisOfl: departure of a request the commodity does "
                  "not hold");
    PastRequest& pr = *found;
    pr.departed = true;
    const double v = std::min(pr.dual, pr.facility_dist);
    if (v > 0.0) {
      OMFLP_PERF_ADD(bids_updated, num_points_);
      OMFLP_PERF_ADD(distance_lookups, num_points_);
      kernel::shift_clipped_bid(c.bids.data(), dist_->row(pr.location), v,
                                0.0, num_points_);
    }
    c.total_dual -= pr.dual;
    if (obs::tracing()) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kBidRollback;
      ev.request = id;
      ev.commodity = e;
      ev.bid_mass = v > 0.0 ? v : 0.0;
      ev.cost = pr.dual;
      obs::emit(ev);
    }
    pr.dual = 0.0;  // reinvestment shifts for this request become no-ops
    // Departed entries bid nothing: once they outnumber the live ones,
    // erase them, so the archive follows the active set.
    if (2 * ++c.departed > c.past.size()) {
      std::erase_if(c.past, [](const PastRequest& p) { return p.departed; });
      c.departed = 0;
    }
  });
}

void FotakisOfl::serialize_state(CkptWriter& writer) const {
  writer.line("commodities").u(commodities_.size());
  for (std::size_t e = 0; e < commodities_.size(); ++e) {
    const CommodityState& c = commodities_[e];
    writer.line("commodity").u(e).b(c.started);
    if (!c.started) continue;
    serialize_open_records(writer, "facilities", c.facilities);
    writer.line("archive").u(c.past.size() - c.departed);
    for (const PastRequest& pr : c.past) {
      if (pr.departed) continue;
      writer.line("archived")
          .u(pr.id)
          .u(pr.location)
          .d(pr.dual)
          .d(pr.facility_dist);
    }
    writer.line("bids").u(c.bids.size());
    for (const double v : c.bids) writer.d(v);
    writer.line("duals").d(c.total_dual);
  }
}

void FotakisOfl::restore_commodity(CkptReader& reader, CommodityState& c,
                                   bool sub_instance,
                                   RequestId num_requests) {
  c.facilities = restore_open_records(reader, "facilities", num_points_);
  // The older `past` layout also holds departed requests, flagged;
  // restore_state drops them.
  const std::string_view key = reader.next_key();
  const bool live_only = !sub_instance && key == "archive";
  if (!live_only && key != "past") reader.fail("expected 'archive' or 'past'");
  const std::uint64_t num_past = reader.u();
  c.past.reserve(capped_reserve(num_past));
  for (std::uint64_t i = 0; i < num_past; ++i) {
    reader.expect(live_only ? "archived" : "past-request");
    PastRequest pr;
    pr.id = sub_instance ? i : reader.u();
    if (!sub_instance && (pr.id >= num_requests ||
                          (!c.past.empty() && pr.id <= c.past.back().id)))
      reader.fail("past request ids out of order or out of range");
    pr.location = reader.point(num_points_);
    pr.dual = reader.d();
    pr.facility_dist = reader.d();
    pr.departed = !live_only && reader.b();
    c.past.push_back(pr);
  }
  reader.expect("bids");
  if (reader.u() != c.bids.size())
    reader.fail("bid row length differs from the metric");
  for (double& v : c.bids) v = reader.d();
  reader.expect("duals");
  c.total_dual = reader.d();
  if (sub_instance) {
    const std::uint64_t num_duals = reader.u();
    for (std::uint64_t i = 0; i < num_duals; ++i) (void)reader.d();
  }
}

void FotakisOfl::restore_state(CkptReader& reader, RequestId num_requests) {
  const std::string_view layout = reader.next_key();
  if (layout == "subs") {
    read_sub_instance_layout(
        reader, metric_, static_cast<CommodityId>(commodities_.size()),
        num_requests,
        [&](CommodityId e) {
          restore_commodity(reader, start(e), /*sub_instance=*/true,
                            num_requests);
        },
        [&](CommodityId e, const SubInstanceIds& ids) {
          CommodityState& c = commodities_[e];
          for (OpenRecord& f : c.facilities) {
            if (f.id >= ids.facility_map.size())
              reader.fail("facility outside the sub-instance's map");
            f.id = ids.facility_map[f.id];
          }
          if (c.past.size() != ids.real_request.size())
            reader.fail("archive out of step with the sub-instance");
          for (PastRequest& pr : c.past) pr.id = ids.real_request[pr.id];
        });
  } else {
    if (layout != "commodities") reader.fail("expected 'commodities'");
    if (reader.u() != commodities_.size())
      reader.fail("commodity count differs from the universe");
    for (std::size_t e = 0; e < commodities_.size(); ++e) {
      reader.expect("commodity");
      if (reader.u() != e) reader.fail("commodities out of order");
      if (!reader.b()) continue;
      restore_commodity(reader, start(static_cast<CommodityId>(e)),
                        /*sub_instance=*/false, num_requests);
    }
  }
  for (CommodityState& c : commodities_)
    std::erase_if(c.past, [](const PastRequest& pr) { return pr.departed; });
}

}  // namespace omflp
