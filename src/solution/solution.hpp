// SolutionLedger — the authoritative record of an online run.
//
// Online algorithms do not compute costs themselves; they report decisions
// (open facility, assign commodity of the current request to facility) to
// the ledger, which prices them against the instance's cost model and
// metric. The ledger enforces the model's rules:
//   * decisions are irrevocable — facilities never close, assignments
//     never change (the paper's model; algorithms keep any tentative state,
//     like PD-OMFLP's temporarily-open facilities, internal);
//   * a request must be fully covered when its processing finishes;
//   * connection cost is d(m, r) summed once per *distinct* facility the
//     request connects to (the paper's shared-path model). The §1.1
//     alternative (charge per commodity) is available as a policy and used
//     in tests/ablations.
//
// Dynamic streams (instance/event_stream.hpp) extend the record with an
// *active interval*: retire_request() marks an earlier request as
// departed and retroactively removes its connection cost from the active
// tally (facility openings are sunk — decisions stay irrevocable, only
// the accounting of who is still being served changes). active_cost() is
// what competitive ratios against the offline optimum on the *surviving*
// request set are measured on; total_cost() remains the gross cost of
// everything the algorithm ever did.
//
// Record storage is proportional to the resident records, not to the
// stream's lifetime. Records live in an IdSlotPool keyed by RequestId
// (support/id_slot_pool.hpp): reusable slots in chunks that never move,
// behind a paged id->slot map that keeps only the pages still holding a
// resident id. retire_request() queues the id, and release_retired() —
// the stream runner's post-batch compaction — releases every queued
// record. Ids never change. A record's served and rejected lists keep up
// to 4 and 2 entries inside the 112-byte record, so an arrival demanding
// at most 4 commodities allocates nothing for its lists, in a fresh slot
// or a reused one; above that a list takes one heap block, which its
// slot keeps for the next record. A request's distinct facilities are
// not stored: every reader derives them from `served`
// (RequestRecord::for_each_connected). Once the pool holds as many
// slots and pages as a steady state needs, a steady-state arrival
// allocates nothing here. Static runs never release anything: every
// record stays resident and first_record_id() stays 0.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "instance/capacity.hpp"
#include "instance/instance.hpp"
#include "support/id_slot_pool.hpp"
#include "support/inline_list.hpp"

namespace omflp {

class CkptReader;
class CkptWriter;

enum class ConnectionChargePolicy {
  kPerFacility,   // paper default: one shared path per connected facility
  kPerCommodity,  // §1.1 alternative: every served commodity pays the path
};

struct OpenFacilityRecord {
  FacilityId id = kInvalidFacility;
  PointId location = 0;
  CommoditySet config;
  double open_cost = 0.0;
  /// Index of the request being processed when the facility opened.
  RequestId opened_during = 0;
};

/// Facility ids a record stores fit in 32 bits: open_facility() refuses
/// the id kNoServedFacility, which marks "no facility".
inline constexpr std::uint32_t kNoServedFacility = ~std::uint32_t{0};

struct ServedCommodity {
  CommodityId commodity = kInvalidCommodity;
  std::uint32_t facility = kNoServedFacility;

  bool operator==(const ServedCommodity&) const = default;
};

/// retired_at value of a request that never departed.
inline constexpr std::uint64_t kNeverRetired = ~std::uint64_t{0};

/// A request's assignment, in 112 bytes. Its lists keep kInlineEntries
/// (rejected: kInlineRejected) entries inline and move to one heap block
/// only above that: every stream scenario draws at most 4 commodities per
/// request. The distinct facilities the request connects to are derived
/// from `served` on demand rather than kept as a second list.
struct RequestRecord {
  static constexpr std::uint32_t kInlineEntries = 4;
  static constexpr std::uint32_t kInlineRejected = 2;

  Request request;
  /// One entry per served commodity.
  InlineList<ServedCommodity, kInlineEntries> served;
  /// Demanded commodities shed by admission control (capacitated runs
  /// under OverflowPolicy::kReject, or kReassign with nothing feasible).
  /// served + rejected partition the demand set; rejected commodities
  /// pay no connection cost. Always empty on uncapacitated runs.
  InlineList<CommodityId, kInlineRejected> rejected;
  double connection_cost = 0.0;
  /// Stream-event index at which the request departed (kNeverRetired
  /// while active; static runs never retire).
  std::uint64_t retired_at = kNeverRetired;

  bool active() const noexcept { return retired_at == kNeverRetired; }

  /// Calls fn(f) for each distinct facility in `served`, ascending. Each
  /// step rescans `served` for the smallest id above the last one: no
  /// allocation, O(|served| x distinct) time, and the lists are short.
  template <typename Fn>
  void for_each_connected(Fn&& fn) const {
    std::uint32_t lowest = 0;
    for (;;) {
      std::uint32_t f = kNoServedFacility;
      for (const ServedCommodity& sc : served)
        if (sc.facility >= lowest && sc.facility < f) f = sc.facility;
      if (f == kNoServedFacility) return;
      fn(FacilityId{f});
      lowest = f + 1;
    }
  }
  /// Distinct facilities in `served`.
  std::size_t num_connected() const {
    std::size_t count = 0;
    for_each_connected([&](FacilityId) { ++count; });
    return count;
  }
};

static_assert(sizeof(RequestRecord) <= 112,
              "a RequestRecord keeps its lists inline in 112 bytes");

class SolutionLedger {
 public:
  /// `capacities` limits how many distinct active requests each facility
  /// may serve (per-point capacity; null = uncapacitated, the default —
  /// all existing call sites and code paths are bitwise unchanged).
  /// `overflow` picks what assign() does when the target facility is
  /// full: reassign to the nearest feasible facility or reject the
  /// commodity into the rejected ledger lane.
  SolutionLedger(MetricPtr metric, CostModelPtr cost,
                 ConnectionChargePolicy policy =
                     ConnectionChargePolicy::kPerFacility,
                 CapacityMap capacities = nullptr,
                 OverflowPolicy overflow = OverflowPolicy::kReassign);

  /// Start processing the next request. Only one request may be in flight.
  RequestId begin_request(const Request& request);

  /// Irrevocably open a facility; returns its id. Must be called between
  /// begin_request and finish_request (openings are always triggered by
  /// some request in the online model). Facility ids stay below
  /// kNoServedFacility, so records store them in 32 bits.
  FacilityId open_facility(PointId location, const CommoditySet& config);

  /// Record that commodity e of the in-flight request is served by
  /// facility f. f must be open and must offer e. Each demanded commodity
  /// must be assigned exactly once.
  ///
  /// Capacitated runs apply admission control here: if f is full (its
  /// occupancy — distinct active requests connected — has reached its
  /// capacity) and this request is not already connected to it, the
  /// commodity is spilled to the nearest feasible open facility offering
  /// it (ties to the lowest id; a fresh singleton facility at the
  /// request's location as a last resort) under kReassign, or rejected
  /// under kReject. Spills emit kRequestSpill, rejections kRequestReject.
  void assign(CommodityId e, FacilityId f);

  /// Validates coverage of the in-flight request (served + rejected must
  /// partition the demand set) and accrues its connection cost.
  void finish_request();

  // ---- dynamic streams ----------------------------------------------------

  /// Retroactively removes request `id` from the active set: its record is
  /// marked departed at stream-event index `event_index` and its
  /// connection cost leaves the active tally (opening costs are sunk).
  /// The record stays resident, queued for the next release_retired().
  /// Requires no request in flight, a known, still-resident, still-active
  /// id. Gross totals (connection_cost, total_cost) are unchanged.
  void retire_request(RequestId id, std::uint64_t event_index);

  /// Bounded-memory hook for the stream runner: puts the slot of every
  /// request retired since the last call back on the free list, advances
  /// first_record_id() past the released front of the id range, and
  /// returns how many records were released. Aggregate costs and counts
  /// are preserved; still-active records stay resident under their ids.
  /// Requires no request in flight.
  std::size_t release_retired();

  /// Lowest id that may still be resident: every id below it has been
  /// released. 0 unless release_retired() freed the front of the range.
  RequestId first_record_id() const noexcept { return records_.first_id(); }

  /// Record of request `id`; requires a resident id (below
  /// num_requests() and not released).
  const RequestRecord& request_record(RequestId id) const;

  /// Whether request `id`'s record is still resident.
  bool resident(RequestId id) const noexcept {
    return records_.resident(id);
  }

  /// Records currently held: the active requests, the in-flight one and
  /// those retired since the last release_retired(). Equals
  /// num_requests() until something is released.
  std::size_t num_resident_records() const noexcept {
    return records_.size();
  }

  /// Calls fn(id, record) for every resident record in ascending id order.
  template <typename Fn>
  void for_each_resident(Fn&& fn) const {
    records_.for_each(std::forward<Fn>(fn));
  }

  /// Connection cost of the still-active requests only.
  double active_connection_cost() const noexcept {
    return active_connection_cost_;
  }
  /// Opening cost plus active connection cost — the quantity compared
  /// against OPT on the surviving request set.
  double active_cost() const noexcept {
    return opening_cost_ + active_connection_cost_;
  }
  std::size_t num_active_requests() const noexcept { return num_active_; }
  std::size_t num_retired_requests() const noexcept {
    return num_requests() - num_active_ - (in_flight_ != nullptr ? 1 : 0);
  }

  // ---- introspection ------------------------------------------------------

  /// Total requests ever begun, including released ones.
  std::size_t num_requests() const noexcept { return records_.next_id(); }
  std::size_t num_facilities() const noexcept { return facilities_.size(); }
  const std::vector<OpenFacilityRecord>& facilities() const noexcept {
    return facilities_;
  }
  const OpenFacilityRecord& facility(FacilityId f) const;

  double opening_cost() const noexcept { return opening_cost_; }
  double connection_cost() const noexcept { return connection_cost_; }
  double total_cost() const noexcept {
    return opening_cost_ + connection_cost_;
  }

  /// Facilities with |config| == 1 / == |S| (the paper's small/large).
  std::size_t num_small_facilities() const noexcept { return num_small_; }
  std::size_t num_large_facilities() const noexcept { return num_large_; }

  ConnectionChargePolicy policy() const noexcept { return policy_; }
  const MetricSpace& metric() const noexcept { return *metric_; }
  const FacilityCostModel& cost_model() const noexcept { return *cost_; }
  const MetricPtr& metric_ptr() const noexcept { return metric_; }
  const CostModelPtr& cost_ptr() const noexcept { return cost_; }

  bool request_in_flight() const noexcept {
    return in_flight_ != nullptr;
  }

  // ---- capacity / admission control ---------------------------------------

  const CapacityMap& capacities() const noexcept { return capacities_; }
  OverflowPolicy overflow_policy() const noexcept { return overflow_; }
  bool capacitated() const noexcept { return capacitated_; }
  /// Capacity of facility f (the capacity of its location point).
  std::uint64_t facility_capacity(FacilityId f) const;
  /// Distinct active requests currently connected to facility f.
  std::uint64_t occupancy(FacilityId f) const;
  /// Requests finished with at least one rejected commodity.
  std::size_t num_shed_requests() const noexcept { return num_shed_; }
  /// Total commodities rejected across all requests.
  std::size_t num_rejected_commodities() const noexcept {
    return num_rejected_;
  }
  /// Assignments redirected away from a full facility under kReassign.
  std::size_t num_spilled_assignments() const noexcept {
    return num_spilled_;
  }

  // ---- checkpoint/restore (instance/checkpoint_io.hpp) --------------------

  /// Writes every resident record (in id order, each with its id) and
  /// accumulator in canonical form. Requires no request in flight
  /// (checkpoints happen between batches).
  void serialize(CkptWriter& writer) const;
  /// Fills a freshly constructed ledger (same metric, cost model and
  /// policy as at serialization) from the reader. Costs, counters and
  /// record bytes come from the file verbatim — nothing is re-priced, so
  /// a restored ledger is bitwise identical to the serialized one.
  ///
  /// `request_count` is the request count the enclosing snapshot already
  /// vouches for (a session's arrival bitmap); ids may then skip released
  /// records. Without it the ledger must be hole-free and its count is
  /// first_record_id() plus the resident records. A version-1 file
  /// carries no ids: its records take consecutive ids from
  /// first_record_id(). Retired resident records come back queued for
  /// the next release_retired().
  void restore(CkptReader& reader,
               std::optional<std::uint64_t> request_count = std::nullopt);

 private:
  /// Serve e at f for the in-flight record: occupancy bump when f is
  /// newly connected, served entry, trace event (`spilled` picks the
  /// kind and is only true on capacitated redirects).
  void serve_at(CommodityId e, FacilityId f, bool spilled);
  void reject_commodity(CommodityId e);
  RequestRecord& in_flight_record() { return *in_flight_; }

  MetricPtr metric_;
  CostModelPtr cost_;
  ConnectionChargePolicy policy_;
  CapacityMap capacities_;
  OverflowPolicy overflow_;
  bool capacitated_ = false;

  std::vector<OpenFacilityRecord> facilities_;
  /// Distinct active requests connected to each facility; parallel to
  /// facilities_. Maintained unconditionally (cheap), enforced only when
  /// capacitated_.
  std::vector<std::uint64_t> occupancy_;
  /// Every resident record, keyed by request id.
  IdSlotPool<RequestRecord> records_;
  /// Retired since the last release_retired(), in retirement order.
  std::vector<RequestId> retired_;
  /// The in-flight request's record, null between requests. Pool slots
  /// never move, so it stays valid until the record is released.
  RequestRecord* in_flight_ = nullptr;

  double opening_cost_ = 0.0;
  double connection_cost_ = 0.0;
  double active_connection_cost_ = 0.0;
  std::size_t num_active_ = 0;
  std::size_t num_small_ = 0;
  std::size_t num_large_ = 0;
  std::size_t num_shed_ = 0;
  std::size_t num_rejected_ = 0;
  std::size_t num_spilled_ = 0;
};

}  // namespace omflp
