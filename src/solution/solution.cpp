#include "solution/solution.hpp"

#include <algorithm>

#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

SolutionLedger::SolutionLedger(MetricPtr metric, CostModelPtr cost,
                               ConnectionChargePolicy policy,
                               CapacityMap capacities,
                               OverflowPolicy overflow)
    : metric_(std::move(metric)),
      cost_(std::move(cost)),
      policy_(policy),
      capacities_(std::move(capacities)),
      overflow_(overflow),
      capacitated_(is_capacitated(capacities_)) {
  OMFLP_REQUIRE(metric_ != nullptr, "SolutionLedger: null metric");
  OMFLP_REQUIRE(cost_ != nullptr, "SolutionLedger: null cost model");
  if (capacities_) {
    OMFLP_REQUIRE(capacities_->size() <= metric_->num_points(),
                  "SolutionLedger: capacity map larger than the metric");
  }
}

RequestId SolutionLedger::begin_request(const Request& request) {
  OMFLP_REQUIRE(!in_flight_,
                "SolutionLedger: previous request not finished");
  OMFLP_REQUIRE(request.location < metric_->num_points(),
                "SolutionLedger: request location outside metric");
  OMFLP_REQUIRE(request.commodities.universe_size() ==
                    cost_->num_commodities(),
                "SolutionLedger: request universe mismatch");
  OMFLP_REQUIRE(!request.commodities.empty(),
                "SolutionLedger: empty demand set");
  // A reused slot keeps its lists' heap blocks and its demand words.
  RequestRecord& record = records_.add();
  record.request = request;
  record.served.clear();
  record.rejected.clear();
  record.connection_cost = 0.0;
  record.retired_at = kNeverRetired;
  in_flight_ = &record;
  return num_requests() - 1;
}

FacilityId SolutionLedger::open_facility(PointId location,
                                         const CommoditySet& config) {
  OMFLP_REQUIRE(in_flight_,
                "SolutionLedger: facilities open only while serving a "
                "request (online model)");
  OMFLP_REQUIRE(location < metric_->num_points(),
                "SolutionLedger: facility location outside metric");
  OMFLP_REQUIRE(config.universe_size() == cost_->num_commodities(),
                "SolutionLedger: facility config universe mismatch");
  OMFLP_REQUIRE(!config.empty(), "SolutionLedger: empty facility config");
  OMFLP_REQUIRE(facilities_.size() < kNoServedFacility,
                "SolutionLedger: facility ids exhausted");

  OpenFacilityRecord record;
  record.id = facilities_.size();
  record.location = location;
  record.config = config;
  record.open_cost = cost_->open_cost(location, config);
  record.opened_during = num_requests() - 1;
  opening_cost_ += record.open_cost;
  if (config.count() == 1) ++num_small_;
  if (config.is_full()) ++num_large_;
  facilities_.push_back(std::move(record));
  occupancy_.push_back(0);
  OMFLP_PERF_COUNT(facilities_opened);
  return facilities_.back().id;
}

void SolutionLedger::assign(CommodityId e, FacilityId f) {
  OMFLP_REQUIRE(in_flight_, "SolutionLedger: no request in flight");
  OMFLP_REQUIRE(f < facilities_.size(), "SolutionLedger: unknown facility");
  RequestRecord& record = in_flight_record();
  OMFLP_REQUIRE(record.request.commodities.contains(e),
                "SolutionLedger: assigning a commodity the request does not "
                "demand");
  OMFLP_REQUIRE(facilities_[f].config.contains(e),
                "SolutionLedger: facility does not offer the commodity");
  bool already_connected = false;
  for (const ServedCommodity& sc : record.served) {
    OMFLP_REQUIRE(sc.commodity != e,
                  "SolutionLedger: commodity assigned twice");
    if (sc.facility == f) already_connected = true;
  }
  for (const CommodityId r : record.rejected)
    OMFLP_REQUIRE(r != e, "SolutionLedger: commodity already rejected");

  // Uncapacitated, already occupying f, or room left: the plain path —
  // bitwise identical to the pre-capacity ledger when capacities_ does
  // not constrain anything.
  if (!capacitated_ || already_connected ||
      occupancy_[f] < capacity_at(capacities_, facilities_[f].location)) {
    serve_at(e, f, /*spilled=*/false);
    return;
  }

  // f is full and this request does not already occupy it: admission
  // control decides.
  if (overflow_ == OverflowPolicy::kReject) {
    reject_commodity(e);
    return;
  }

  // kReassign: nearest feasible open facility offering e. Feasible =
  // this request already occupies it (no new occupancy needed) or it is
  // under capacity. The ascending scan with a strict < keeps ties on
  // the lowest facility id — deterministic across shards and threads.
  FacilityId best = kInvalidFacility;
  double best_distance = kInfiniteDistance;
  for (FacilityId g = 0; g < facilities_.size(); ++g) {
    if (g == f || !facilities_[g].config.contains(e)) continue;
    bool occupies = false;
    for (const ServedCommodity& sc : record.served) {
      if (sc.facility == g) {
        occupies = true;
        break;
      }
    }
    if (!occupies &&
        occupancy_[g] >= capacity_at(capacities_, facilities_[g].location))
      continue;
    const double distance =
        metric_->distance(record.request.location, facilities_[g].location);
    if (distance < best_distance) {
      best_distance = distance;
      best = g;
    }
  }
  if (best != kInvalidFacility) {
    ++num_spilled_;
    OMFLP_PERF_COUNT(assignments_spilled);
    serve_at(e, best, /*spilled=*/true);
    return;
  }
  // Last resort: a fresh singleton facility at the request's location —
  // a new facility has its own capacity budget and occupancy 0, so it
  // is feasible whenever the location's capacity is at least 1.
  if (capacity_at(capacities_, record.request.location) >= 1) {
    const FacilityId fresh = open_facility(
        record.request.location,
        CommoditySet::singleton(cost_->num_commodities(), e));
    ++num_spilled_;
    OMFLP_PERF_COUNT(assignments_spilled);
    serve_at(e, fresh, /*spilled=*/true);
    return;
  }
  reject_commodity(e);
}

void SolutionLedger::serve_at(CommodityId e, FacilityId f, bool spilled) {
  RequestRecord& record = in_flight_record();
  bool already_connected = false;
  for (const ServedCommodity& sc : record.served) {
    if (sc.facility == f) {
      already_connected = true;
      break;
    }
  }
  if (!already_connected) ++occupancy_[f];
  record.served.push_back(
      ServedCommodity{e, static_cast<std::uint32_t>(f)});
  if (obs::tracing()) {
    TraceEvent event;
    event.kind = spilled ? TraceEventKind::kRequestSpill
                         : TraceEventKind::kRequestAssign;
    event.request = num_requests() - 1;
    event.commodity = e;
    event.facility = f;
    event.point = facilities_[f].location;
    event.cost = metric_->distance(record.request.location,
                                   facilities_[f].location);
    obs::emit(event);
  }
}

void SolutionLedger::reject_commodity(CommodityId e) {
  RequestRecord& record = in_flight_record();
  record.rejected.push_back(e);
  ++num_rejected_;
  if (obs::tracing()) {
    TraceEvent event;
    event.kind = TraceEventKind::kRequestReject;
    event.request = num_requests() - 1;
    event.commodity = e;
    obs::emit(event);
  }
}

void SolutionLedger::finish_request() {
  OMFLP_REQUIRE(in_flight_, "SolutionLedger: no request in flight");
  RequestRecord& record = in_flight_record();
  // served + rejected partition the demand set (assign() enforces both
  // disjointness and membership; rejections only happen under admission
  // control, so uncapacitated runs keep the old exact-coverage check).
  OMFLP_REQUIRE(record.served.size() + record.rejected.size() ==
                    record.request.commodities.count(),
                "SolutionLedger: request not fully covered at finish");
  if (!record.rejected.empty()) {
    std::sort(record.rejected.begin(), record.rejected.end());
    ++num_shed_;
    OMFLP_PERF_COUNT(requests_shed);
  }

  // Summed over the distinct facilities in ascending id order.
  double cost = 0.0;
  if (policy_ == ConnectionChargePolicy::kPerFacility) {
    record.for_each_connected([&](FacilityId f) {
      cost += metric_->distance(record.request.location,
                                facilities_[f].location);
    });
  } else {
    for (const ServedCommodity& sc : record.served)
      cost += metric_->distance(record.request.location,
                                facilities_[sc.facility].location);
  }
  record.connection_cost = cost;
  connection_cost_ += cost;
  active_connection_cost_ += cost;
  ++num_active_;
  in_flight_ = nullptr;
}

void SolutionLedger::retire_request(RequestId id,
                                    std::uint64_t event_index) {
  OMFLP_REQUIRE(!in_flight_,
                "SolutionLedger: retirements happen between requests");
  RequestRecord* const found = records_.find(id);
  OMFLP_REQUIRE(found != nullptr,
                "SolutionLedger: retiring an unknown or released request");
  OMFLP_REQUIRE(event_index != kNeverRetired,
                "SolutionLedger: reserved retirement event index");
  RequestRecord& record = *found;
  OMFLP_REQUIRE(record.active(),
                "SolutionLedger: request retired twice");
  record.retired_at = event_index;
  active_connection_cost_ -= record.connection_cost;
  --num_active_;
  retired_.push_back(id);
  // Release the request's occupancy (departures and lease expiries both
  // land here): capacity headroom returns to every facility it occupied.
  record.for_each_connected([&](FacilityId f) {
    OMFLP_REQUIRE(occupancy_[f] > 0, "SolutionLedger: occupancy underflow");
    --occupancy_[f];
  });
}

std::size_t SolutionLedger::release_retired() {
  OMFLP_REQUIRE(!in_flight_,
                "SolutionLedger: release happens between requests");
  for (const RequestId id : retired_) records_.release(id);
  const std::size_t released = retired_.size();
  retired_.clear();
  return released;
}

const RequestRecord& SolutionLedger::request_record(RequestId id) const {
  const RequestRecord* record = records_.find(id);
  OMFLP_REQUIRE(record != nullptr,
                "SolutionLedger: unknown or released request record");
  return *record;
}

const OpenFacilityRecord& SolutionLedger::facility(FacilityId f) const {
  OMFLP_REQUIRE(f < facilities_.size(), "SolutionLedger: unknown facility");
  return facilities_[f];
}

std::uint64_t SolutionLedger::facility_capacity(FacilityId f) const {
  OMFLP_REQUIRE(f < facilities_.size(), "SolutionLedger: unknown facility");
  return capacity_at(capacities_, facilities_[f].location);
}

std::uint64_t SolutionLedger::occupancy(FacilityId f) const {
  OMFLP_REQUIRE(f < occupancy_.size(), "SolutionLedger: unknown facility");
  return occupancy_[f];
}

void SolutionLedger::serialize(CkptWriter& writer) const {
  OMFLP_REQUIRE(!in_flight_,
                "SolutionLedger::serialize: request in flight");
  writer.line("ledger")
      .u(first_record_id())
      .u(num_resident_records())
      .u(facilities_.size());
  writer.line("ledger-costs")
      .d(opening_cost_)
      .d(connection_cost_)
      .d(active_connection_cost_)
      .u(num_active_)
      .u(num_small_)
      .u(num_large_);
  writer.line("ledger-adm").u(num_shed_).u(num_rejected_).u(num_spilled_);
  for (const OpenFacilityRecord& f : facilities_) {
    writer.line("facility")
        .u(f.id)
        .u(f.location)
        .set(f.config)
        .d(f.open_cost)
        .u(f.opened_during);
  }
  for_each_resident([&](RequestId id, const RequestRecord& r) {
    writer.line("request")
        .u(id)
        .u(r.request.location)
        .set(r.request.commodities)
        .u(r.retired_at)
        .d(r.connection_cost);
    writer.line("served").u(r.served.size());
    for (const ServedCommodity& s : r.served)
      writer.u(s.commodity).u(s.facility);
    writer.line("rejected").u(r.rejected.size());
    for (const CommodityId e : r.rejected) writer.u(e);
    writer.line("connected").u(r.num_connected());
    r.for_each_connected([&](FacilityId f) { writer.u(f); });
  });
}

void SolutionLedger::restore(CkptReader& reader,
                             std::optional<std::uint64_t> request_count) {
  OMFLP_REQUIRE(facilities_.empty() && num_requests() == 0 && !in_flight_,
                "SolutionLedger::restore: ledger not fresh");
  reader.expect("ledger");
  const std::uint64_t first = reader.u();
  const std::uint64_t num_resident = reader.u();
  const std::uint64_t num_facilities = reader.u();
  // Without a vouched count only a hole-free ledger can be told apart
  // from a hostile one: its ids are consecutive.
  const bool holes_allowed = request_count.has_value();
  if (!holes_allowed) {
    if (num_resident > ~std::uint64_t{0} - first)
      reader.fail("ledger request count overflows");
    request_count = first + num_resident;
  }
  if (first > *request_count || num_resident > *request_count - first)
    reader.fail("ledger holds more records than requests");
  // Version 1 wrote every record from first_record_id on, with no ids.
  const bool explicit_ids = reader.version() >= 2;
  if (!explicit_ids && num_resident != *request_count - first)
    reader.fail("ledger request count disagrees with the arrival count");
  reader.expect("ledger-costs");
  opening_cost_ = reader.d();
  connection_cost_ = reader.d();
  active_connection_cost_ = reader.d();
  num_active_ = reader.u();
  num_small_ = reader.u();
  num_large_ = reader.u();
  reader.expect("ledger-adm");
  num_shed_ = reader.u();
  num_rejected_ = reader.u();
  num_spilled_ = reader.u();
  facilities_.reserve(capped_reserve(num_facilities));
  for (std::uint64_t i = 0; i < num_facilities; ++i) {
    reader.expect("facility");
    OpenFacilityRecord f;
    f.id = static_cast<FacilityId>(reader.u());
    if (f.id != i) reader.fail("facility ids out of order");
    f.location = static_cast<PointId>(reader.u());
    if (f.location >= metric_->num_points())
      reader.fail("facility location outside the metric");
    f.config = reader.set(cost_->num_commodities(), "facility config");
    f.open_cost = reader.d();
    f.opened_during = reader.u();
    facilities_.push_back(std::move(f));
  }
  // The pool grows per record line actually present; gaps between ids
  // are released records.
  std::uint64_t num_active_records = 0;
  for (std::uint64_t i = 0; i < num_resident; ++i) {
    reader.expect("request");
    const std::uint64_t id = explicit_ids ? reader.u() : first + i;
    if (id < first)
      reader.fail("request id below the ledger's first record id");
    if (id >= *request_count)
      reader.fail("request id beyond the ledger's request count");
    if (id < num_requests() || (!holes_allowed && id != first + i))
      reader.fail("request ids out of order or duplicated");
    if (i == 0 && id != first)
      reader.fail("first resident request is not the first record id");
    RequestRecord& r = records_.add(id);
    r.request.location = static_cast<PointId>(reader.u());
    if (r.request.location >= metric_->num_points())
      reader.fail("request location outside the metric");
    r.request.commodities =
        reader.set(cost_->num_commodities(), "request demand");
    r.retired_at = reader.u();
    r.connection_cost = reader.d();
    reader.expect("served");
    const std::uint64_t num_served = reader.u();
    r.served.reserve(capped_reserve(num_served));
    for (std::uint64_t k = 0; k < num_served; ++k) {
      ServedCommodity s;
      s.commodity = static_cast<CommodityId>(reader.u());
      const std::uint64_t f = reader.u();
      if (f >= facilities_.size())
        reader.fail("served entry references an unknown facility");
      s.facility = static_cast<std::uint32_t>(f);
      r.served.push_back(s);
    }
    reader.expect("rejected");
    const std::uint64_t num_rejected = reader.u();
    r.rejected.reserve(capped_reserve(num_rejected));
    for (std::uint64_t k = 0; k < num_rejected; ++k) {
      const auto e = static_cast<CommodityId>(reader.u());
      if (!r.request.commodities.contains(e))
        reader.fail("rejected entry is not a demanded commodity");
      r.rejected.push_back(e);
    }
    // The connected line is derived from the served entries; one that
    // disagrees would restore occupancy no run produced.
    reader.expect("connected");
    if (reader.u() != r.num_connected())
      reader.fail("connected list disagrees with the served entries");
    r.for_each_connected([&](FacilityId f) {
      if (reader.u() != f)
        reader.fail("connected list disagrees with the served entries");
    });
    if (r.active())
      ++num_active_records;
    else
      retired_.push_back(id);
  }
  if (num_resident == 0 && first != *request_count)
    reader.fail("first record id of an empty ledger is not its request count");
  if (num_active_records != num_active_)
    reader.fail("ledger active count disagrees with its active records");
  records_.skip_to(*request_count);
  // Occupancy is derived state: every active record is resident (only
  // retired records are ever released), so the per-facility occupancy
  // counts are recomputed rather than serialized.
  occupancy_.assign(facilities_.size(), 0);
  records_.for_each([&](RequestId, const RequestRecord& r) {
    if (r.active())
      r.for_each_connected([&](FacilityId f) { ++occupancy_[f]; });
  });
}

}  // namespace omflp
