#include "solution/verifier.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <sstream>
#include <vector>

#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"

namespace omflp {

namespace {

std::optional<VerificationError> fail(const std::string& msg) {
  return VerificationError{msg};
}

/// Failure messages are formatted only on the failure path: building a
/// stream per check would cost more than the checks themselves.
template <typename... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Sorted distinct facilities of `rec`'s assignments, into `out`.
void distinct_facilities(const RequestRecord& rec,
                         std::vector<FacilityId>& out) {
  out.clear();
  for (const ServedCommodity& sc : rec.served) out.push_back(sc.facility);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
}

/// Order-sensitive 64-bit fingerprint of a facility list (SplitMix64
/// finalizer per element).
std::uint64_t fingerprint(const std::vector<FacilityId>& facilities) {
  std::uint64_t h = facilities.size();
  for (const FacilityId f : facilities) {
    h = (h ^ f) + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
  }
  return h;
}

/// The per-facility re-derivation shared by every verifier: pricing and
/// well-formedness against the cost model. Returns the model's opening
/// cost through `open_cost` on success.
std::optional<std::string> check_facility(const MetricSpace& metric,
                                          const FacilityCostModel& cost,
                                          const OpenFacilityRecord& f,
                                          double tolerance,
                                          double& open_cost) {
  OMFLP_PERF_COUNT(verifier_checks);
  if (f.location >= metric.num_points())
    return "facility outside the metric space";
  if (f.config.universe_size() != cost.num_commodities())
    return "facility config universe mismatch";
  if (f.config.empty()) return "facility with empty configuration";
  open_cost = cost.open_cost(f.location, f.config);
  if (std::abs(open_cost - f.open_cost) > tolerance)
    return message("facility ", f.id, " open cost ", f.open_cost,
                   " != model cost ", open_cost);
  return std::nullopt;
}

/// The per-request re-derivation shared by every verifier: coverage,
/// causality and the recomputed connection cost. On success returns the
/// cost through `connection` and the record's sorted distinct facilities
/// through `distinct`; `covered` is scratch. Both buffers are
/// caller-owned so that a verifier checking one record per arrival reuses
/// them instead of allocating.
std::optional<std::string> check_record(const MetricSpace& metric,
                                        const FacilityCostModel& cost,
                                        const SolutionLedger& ledger,
                                        RequestId id,
                                        const Request& expected,
                                        const RequestRecord& rec,
                                        double tolerance,
                                        CommoditySet& covered,
                                        std::vector<FacilityId>& distinct,
                                        double& connection) {
  OMFLP_PERF_COUNT(verifier_checks);
  if (!(rec.request.location == expected.location &&
        rec.request.commodities == expected.commodities))
    return message("request ", id, " in ledger differs from the input");

  if (covered.universe_size() == cost.num_commodities())
    covered.clear();
  else
    covered = CommoditySet(cost.num_commodities());
  for (const ServedCommodity& sc : rec.served) {
    if (sc.facility >= ledger.num_facilities())
      return "assignment to unknown facility";
    const OpenFacilityRecord& f = ledger.facility(sc.facility);
    if (!f.config.contains(sc.commodity))
      return "assigned facility does not offer the commodity";
    if (f.opened_during > id)
      return "causality violation: facility opened after the request it "
             "serves";
    if (covered.contains(sc.commodity))
      return "commodity covered twice in one request";
    covered.add(sc.commodity);
  }
  // Admission control may have rejected commodities; served + rejected
  // must still partition the demand set exactly (sorted, no overlap).
  for (std::size_t k = 0; k < rec.rejected.size(); ++k) {
    const CommodityId e = rec.rejected[k];
    if (!expected.commodities.contains(e))
      return "rejected commodity the request does not demand";
    if (covered.contains(e))
      return "commodity both served and rejected";
    if (k > 0 && rec.rejected[k - 1] >= e)
      return "rejected list not sorted and distinct";
    covered.add(e);
  }
  if (!(covered == expected.commodities))
    return message("request ", id, " not exactly covered: got ",
                   covered.to_string(), ", demanded ",
                   expected.commodities.to_string());

  distinct_facilities(rec, distinct);
  double expect_conn = 0.0;
  if (ledger.policy() == ConnectionChargePolicy::kPerFacility) {
    for (FacilityId f : distinct)
      expect_conn +=
          metric.distance(expected.location, ledger.facility(f).location);
  } else {
    for (const ServedCommodity& sc : rec.served)
      expect_conn += metric.distance(expected.location,
                                     ledger.facility(sc.facility).location);
  }
  if (std::abs(expect_conn - rec.connection_cost) >
      tolerance * (1.0 + expect_conn))
    return message("request ", id, " connection cost ", rec.connection_cost,
                   " != recomputed ", expect_conn);
  connection = expect_conn;
  return std::nullopt;
}

}  // namespace

std::optional<VerificationError> verify_solution(const Instance& instance,
                                                 const SolutionLedger& ledger,
                                                 double tolerance) {
  if (ledger.request_in_flight())
    return fail("ledger left a request in flight");
  if (ledger.num_requests() != instance.num_requests())
    return fail(message("ledger served ", ledger.num_requests(),
                        " requests, instance has ", instance.num_requests()));

  const MetricSpace& metric = instance.metric();
  const FacilityCostModel& cost = instance.cost();

  double opening = 0.0;
  for (const OpenFacilityRecord& f : ledger.facilities()) {
    double open_cost = 0.0;
    if (auto error = check_facility(metric, cost, f, tolerance, open_cost))
      return fail(*error);
    opening += open_cost;
  }
  if (std::abs(opening - ledger.opening_cost()) > tolerance * (1.0 + opening))
    return fail("total opening cost mismatch");

  // Capacity feasibility: a static run never retires anyone, so each
  // facility's occupancy is simply the number of distinct requests that
  // connect to it — re-derived from the served lists, not the ledger's
  // own occupancy bookkeeping.
  const bool capacitated = is_capacitated(instance.capacities());
  std::vector<std::uint64_t> occupancy(
      capacitated ? ledger.num_facilities() : 0, 0);
  CommoditySet covered;
  std::vector<FacilityId> distinct;
  double connection = 0.0;
  for (RequestId i = 0; i < instance.num_requests(); ++i) {
    const RequestRecord& rec = ledger.request_record(i);
    double expect_conn = 0.0;
    if (auto error = check_record(metric, cost, ledger, i, instance.request(i),
                                  rec, tolerance, covered, distinct,
                                  expect_conn))
      return fail(*error);
    if (!rec.rejected.empty() && !capacitated)
      return fail("rejected commodity on an uncapacitated instance");
    connection += expect_conn;
    if (capacitated)
      for (const FacilityId f : distinct) ++occupancy[f];
  }
  if (std::abs(connection - ledger.connection_cost()) >
      tolerance * (1.0 + connection))
    return fail("total connection cost mismatch");

  for (std::size_t f = 0; f < occupancy.size(); ++f) {
    const std::uint64_t cap =
        capacity_at(instance.capacities(), ledger.facility(f).location);
    if (occupancy[f] > cap)
      return fail(message("facility ", f, " occupancy ", occupancy[f],
                          " exceeds capacity ", cap));
  }
  return std::nullopt;
}

// -------------------------------------------------------- dynamic runs ---

std::optional<VerificationError> verify_stream(const EventStream& stream,
                                               const SolutionLedger& ledger,
                                               double tolerance) {
  if (ledger.request_in_flight())
    return fail("ledger left a request in flight");
  if (ledger.num_resident_records() != ledger.num_requests())
    return fail("ledger has released records and cannot be verified "
                "offline; use StreamVerifier during the run");

  // Independently re-derive the retirement timeline: explicit departures
  // and lease expiries, with expiries firing before the event at their
  // deadline and explicit departures winning over a later expiry.
  using Expiry = std::pair<std::uint64_t, RequestId>;
  std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
      expiries;
  std::vector<std::uint64_t> retired_at;  // by arrival id
  std::vector<const Request*> arrivals;
  const std::vector<StreamEvent>& events = stream.events();
  for (std::size_t t = 0; t < events.size(); ++t) {
    while (!expiries.empty() && expiries.top().first <= t) {
      const auto [deadline, id] = expiries.top();
      expiries.pop();
      if (retired_at[id] == kNeverRetired) retired_at[id] = deadline;
    }
    const StreamEvent& e = events[t];
    if (e.kind == StreamEvent::Kind::kArrival) {
      const RequestId id = arrivals.size();
      arrivals.push_back(&e.request);
      retired_at.push_back(kNeverRetired);
      if (e.lease > 0) expiries.emplace(lease_deadline(t, e.lease), id);
    } else {
      if (e.target >= arrivals.size() ||
          retired_at[e.target] != kNeverRetired)
        return fail("stream contains an invalid departure (event " +
                    std::to_string(t) + ")");
      retired_at[e.target] = t;
    }
  }

  if (ledger.num_requests() != arrivals.size())
    return fail(message("ledger served ", ledger.num_requests(),
                        " requests, stream has ", arrivals.size(),
                        " arrivals"));

  const MetricSpace& metric = stream.metric();
  const FacilityCostModel& cost = stream.cost();

  double opening = 0.0;
  for (const OpenFacilityRecord& f : ledger.facilities()) {
    double open_cost = 0.0;
    if (auto error = check_facility(metric, cost, f, tolerance, open_cost))
      return fail(*error);
    opening += open_cost;
  }
  if (std::abs(opening - ledger.opening_cost()) > tolerance * (1.0 + opening))
    return fail("total opening cost mismatch");

  double gross = 0.0;
  double active = 0.0;
  std::size_t active_count = 0;
  CommoditySet covered;
  std::vector<FacilityId> distinct;
  for (RequestId id = 0; id < arrivals.size(); ++id) {
    const RequestRecord& rec = ledger.request_record(id);
    if (rec.retired_at != retired_at[id])
      return fail(message("request ", id,
                          " active interval mismatch: ledger retired at ",
                          rec.retired_at, ", timeline says ", retired_at[id],
                          " (", kNeverRetired, " = never)"));
    double connection = 0.0;
    if (auto error = check_record(metric, cost, ledger, id, *arrivals[id],
                                  rec, tolerance, covered, distinct,
                                  connection))
      return fail(*error);
    if (!rec.rejected.empty() && !is_capacitated(stream.capacities()))
      return fail("rejected commodity on an uncapacitated stream");
    gross += connection;
    if (rec.active()) {
      active += connection;
      ++active_count;
    }
  }
  if (std::abs(gross - ledger.connection_cost()) > tolerance * (1.0 + gross))
    return fail("total connection cost mismatch");
  if (std::abs(active - ledger.active_connection_cost()) >
      tolerance * (1.0 + active))
    return fail("active connection cost mismatch");
  if (active_count != ledger.num_active_requests())
    return fail("active request count mismatch");

  // Capacity feasibility over the whole timeline: replay arrivals and
  // retirements in event order and check that no facility's occupancy
  // (distinct active requests connected to it) ever exceeds its
  // location's capacity. Occupancy is re-derived from the served lists
  // validated above, independent of the ledger's own counts.
  if (is_capacitated(stream.capacities())) {
    const CapacityMap& caps = stream.capacities();
    std::vector<std::uint64_t> occupancy(ledger.num_facilities(), 0);
    const auto release = [&](RequestId id) {
      distinct_facilities(ledger.request_record(id), distinct);
      for (const FacilityId f : distinct) --occupancy[f];
    };
    std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>
        pending;
    std::vector<bool> live;
    RequestId next_arrival = 0;
    for (std::size_t t = 0; t < events.size(); ++t) {
      while (!pending.empty() && pending.top().first <= t) {
        const RequestId id = pending.top().second;
        pending.pop();
        if (live[id]) {
          live[id] = false;
          release(id);
        }
      }
      const StreamEvent& e = events[t];
      if (e.kind == StreamEvent::Kind::kArrival) {
        const RequestId id = next_arrival++;
        live.push_back(true);
        distinct_facilities(ledger.request_record(id), distinct);
        for (const FacilityId f : distinct) {
          if (++occupancy[f] >
              capacity_at(caps, ledger.facility(f).location))
            return fail(message("facility ", f, " over capacity at event ",
                                t));
        }
        if (e.lease > 0) pending.emplace(lease_deadline(t, e.lease), id);
      } else {
        live[e.target] = false;
        release(e.target);
      }
    }
  }
  return std::nullopt;
}

StreamVerifier::StreamVerifier(MetricPtr metric, CostModelPtr cost,
                               double tolerance, CapacityMap capacities)
    : metric_(std::move(metric)),
      cost_(std::move(cost)),
      tolerance_(tolerance),
      capacities_(std::move(capacities)),
      capacitated_(is_capacitated(capacities_)) {
  OMFLP_PERF_COUNT(verifier_checks);
}

void StreamVerifier::fail_check(const std::string& what) {
  if (error_) return;
  error_ = VerificationError{what};
  // A failed verifier keeps only its sticky error: it stops tracking
  // retirements, so its active entries would go stale (and their
  // records may be compacted away before the next checkpoint).
  active_.clear();
  if (obs::tracing()) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kVerifierFlag;
    // The most recently admitted arrival, if any — the request being
    // processed when the invariant broke.
    ev.request = next_expected_ > 0 ? next_expected_ - 1 : kInvalidRequest;
    ev.note = what;
    obs::emit(ev);
  }
}

void StreamVerifier::on_arrival(RequestId id, const Request& request,
                                const SolutionLedger& ledger) {
  if (error_) return;
  if (id != next_expected_) {
    fail_check("arrivals out of order");
    return;
  }
  ++next_expected_;

  // New facilities opened while serving this arrival.
  while (facilities_seen_ < ledger.num_facilities()) {
    const OpenFacilityRecord& f = ledger.facility(facilities_seen_);
    double open_cost = 0.0;
    if (auto error =
            check_facility(*metric_, *cost_, f, tolerance_, open_cost)) {
      fail_check(*error);
      return;
    }
    opening_ += open_cost;
    occupancy_.push_back(0);
    ++facilities_seen_;
  }

  const RequestRecord& rec = ledger.request_record(id);
  if (!rec.active()) {
    fail_check("freshly served request is not active");
    return;
  }
  double connection = 0.0;
  if (auto error = check_record(*metric_, *cost_, ledger, id, request, rec,
                                tolerance_, covered_, distinct_,
                                connection)) {
    fail_check(*error);
    return;
  }
  if (!rec.rejected.empty() && !capacitated_) {
    fail_check("rejected commodity without capacities");
    return;
  }
  // Occupancy re-derived from the served list (independent of the
  // ledger's own counters); a capacitated verifier flags any facility
  // this arrival pushes past its location's capacity.
  for (const FacilityId f : distinct_) {
    ++occupancy_[f];
    if (capacitated_ &&
        occupancy_[f] >
            capacity_at(capacities_, ledger.facility(f).location)) {
      fail_check(message("facility ", f, " over capacity serving request ",
                         id));
      return;
    }
  }
  gross_connection_ += connection;
  active_.add(id) = ActiveEntry{connection, fingerprint(distinct_)};
}

void StreamVerifier::on_retire(RequestId id, std::uint64_t event_index,
                               const SolutionLedger& ledger) {
  if (error_) return;
  const ActiveEntry* entry = active_.find(id);
  if (entry == nullptr) {
    fail_check("retirement of an unknown or already-retired request");
    return;
  }
  const RequestRecord& rec = ledger.request_record(id);
  if (rec.retired_at != event_index) {
    fail_check(message("request ", id, " retired_at ", rec.retired_at,
                       " != runner event ", event_index));
    return;
  }
  distinct_facilities(rec, distinct_);
  if (fingerprint(distinct_) != entry->facilities) {
    fail_check(message("request ", id,
                       " facilities changed while it was active"));
    return;
  }
  retired_connection_ += entry->connection;
  for (const FacilityId f : distinct_) {
    if (f < occupancy_.size() && occupancy_[f] > 0) --occupancy_[f];
  }
  active_.release(id);
}

std::optional<VerificationError> StreamVerifier::finish(
    const SolutionLedger& ledger) {
  if (error_) return error_;
  if (ledger.request_in_flight())
    return fail("ledger left a request in flight");
  if (next_expected_ != ledger.num_requests())
    fail_check("ledger request count differs from arrivals seen");
  else if (facilities_seen_ != ledger.num_facilities())
    fail_check("facilities opened outside any arrival");
  else if (std::abs(opening_ - ledger.opening_cost()) >
           tolerance_ * (1.0 + opening_))
    fail_check("total opening cost mismatch");
  else if (std::abs(gross_connection_ - ledger.connection_cost()) >
           tolerance_ * (1.0 + gross_connection_))
    fail_check("total connection cost mismatch");
  else if (std::abs((gross_connection_ - retired_connection_) -
                    ledger.active_connection_cost()) >
           tolerance_ * (1.0 + gross_connection_))
    fail_check("active connection cost mismatch");
  else if (active_.size() != ledger.num_active_requests())
    fail_check("active request count mismatch");
  return error_;
}

void StreamVerifier::serialize(CkptWriter& writer,
                               const SolutionLedger& ledger) const {
  writer.line("verifier")
      .u(next_expected_)
      .u(facilities_seen_)
      .d(opening_)
      .d(gross_connection_)
      .d(retired_connection_);
  // Canonical form: active requests in ascending id order, each with the
  // distinct facilities re-derived from its still-resident record.
  writer.line("verifier-active").u(active_.size());
  std::vector<FacilityId> distinct;
  active_.for_each([&](RequestId id, const ActiveEntry& entry) {
    distinct_facilities(ledger.request_record(id), distinct);
    writer.u(id).d(entry.connection).u(distinct.size());
    for (const FacilityId f : distinct) writer.u(f);
  });
  writer.line("verifier-error").b(error_.has_value());
  if (error_) writer.bytes(error_->what);
}

void StreamVerifier::restore(CkptReader& reader,
                             std::uint64_t num_requests) {
  reader.expect("verifier");
  const std::uint64_t next_expected = reader.u();
  // Active entries may only name arrivals the snapshot vouches for.
  if (next_expected > num_requests)
    reader.fail("verifier saw more arrivals than the snapshot holds");
  next_expected_ = static_cast<RequestId>(next_expected);
  facilities_seen_ = reader.u();
  opening_ = reader.d();
  gross_connection_ = reader.d();
  retired_connection_ = reader.d();
  reader.expect("verifier-active");
  const std::uint64_t num_active = reader.u();
  std::vector<std::pair<RequestId, ActiveEntry>> entries;
  entries.reserve(capped_reserve(num_active));
  occupancy_.assign(facilities_seen_, 0);
  for (std::uint64_t i = 0; i < num_active; ++i) {
    const auto id = static_cast<RequestId>(reader.u());
    if (id >= next_expected_)
      reader.fail("verifier active entry for a request not yet seen");
    ActiveEntry entry;
    entry.connection = reader.d();
    const std::uint64_t num_connected = reader.u();
    distinct_.clear();
    for (std::uint64_t k = 0; k < num_connected; ++k) {
      const auto f = static_cast<FacilityId>(reader.u());
      if (f >= facilities_seen_)
        reader.fail("verifier active entry references an unknown facility");
      if (!distinct_.empty() && f <= distinct_.back())
        reader.fail("verifier active facilities not sorted and distinct");
      distinct_.push_back(f);
      ++occupancy_[f];
    }
    entry.facilities = fingerprint(distinct_);
    entries.emplace_back(id, entry);
  }
  // The pool takes ids in ascending order; the section's order is free.
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0 && entries[i].first == entries[i - 1].first)
      reader.fail("duplicate verifier active-request id");
    active_.add(entries[i].first) = entries[i].second;
  }
  reader.expect("verifier-error");
  if (reader.b()) error_ = VerificationError{reader.bytes()};
}

}  // namespace omflp
