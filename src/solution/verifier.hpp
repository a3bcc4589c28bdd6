// Independent verification of a finished online run.
//
// The ledger already enforces its invariants incrementally; the verifier
// re-derives everything from the raw records with separate code so that a
// bookkeeping bug in the ledger (or an algorithm bypassing it in a novel
// way) cannot hide. Every algorithm test runs the verifier on its output.
//
// Dynamic streams get two verifiers with the same philosophy:
//   * verify_stream — offline, for materialized (uncompacted) runs:
//     re-derives the retirement timeline from the EventStream (explicit
//     departures and lease expiries) and checks every record's active
//     interval and the active/gross cost split against it;
//   * StreamVerifier — incremental, fed by the stream runner as events
//     are processed, so records can be compacted away afterwards without
//     losing verification coverage. Memory follows the active set: one
//     16-byte entry per active request plus 4 bytes per id from the
//     oldest active request on, as the ledger's records.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "instance/capacity.hpp"
#include "instance/event_stream.hpp"
#include "instance/instance.hpp"
#include "solution/solution.hpp"
#include "support/id_slot_pool.hpp"

namespace omflp {

class CkptReader;
class CkptWriter;

struct VerificationError {
  std::string what;
};

/// Checks, against the instance:
///  * the ledger processed exactly the instance's request sequence, in
///    order;
///  * every request's demand set is exactly covered by its assignments,
///    each assignment points at a facility that offers the commodity and
///    was open by the end of that request's processing (irrevocability /
///    causality: facility.opened_during <= request index);
///  * recomputed opening and connection costs match the ledger's totals
///    (within `tolerance` for floating-point accumulation);
///  * facility open costs match the cost model;
///  * capacity feasibility when the instance is capacitated: served +
///    rejected partition each demand set, re-derived facility occupancy
///    never exceeds the location's capacity, and uncapacitated instances
///    admit no rejections at all.
std::optional<VerificationError> verify_solution(const Instance& instance,
                                                 const SolutionLedger& ledger,
                                                 double tolerance = 1e-6);

/// Offline verification of a dynamic run against its EventStream.
/// Checks, beyond the static per-record properties (coverage, causality,
/// facility pricing, connection costs):
///  * the ledger served exactly the stream's arrivals, in order;
///  * every record's retirement matches the independently re-derived
///    timeline — explicit departures and lease expiries at the exact
///    event indices, survivors still active;
///  * the active/gross accounting: connection_cost() sums all records,
///    active_connection_cost() sums the surviving ones;
///  * capacity feasibility when the stream is capacitated: re-derived
///    occupancy (distinct active requests per facility) stays within the
///    location's capacity at every point of the timeline.
/// Requires a ledger that has released no record (every request still
/// resident) and fails on any other; compacted stream runs are verified
/// incrementally by StreamVerifier instead.
std::optional<VerificationError> verify_stream(const EventStream& stream,
                                               const SolutionLedger& ledger,
                                               double tolerance = 1e-6);

/// Incremental verifier for (possibly compacted) stream runs. The stream
/// runner calls on_arrival after each served arrival and on_retire after
/// each retirement, both *before* any compaction, so every record is
/// checked exactly once while still resident; finish() closes the books
/// against the ledger totals. The first failure sticks and short-circuits
/// later checks. Holds one entry per active request plus one 4 KiB id
/// page per 1,024-id range that still holds one (an IdSlotPool, like the
/// ledger's records) and, once that has grown to the active set,
/// allocates nothing per event.
class StreamVerifier {
 public:
  /// `capacities` enables the capacity-feasibility check: the verifier
  /// re-derives each facility's occupancy from the records it sees and
  /// flags any arrival that pushes a facility past its location's
  /// capacity (and any rejection when no capacities are given). Null
  /// keeps the uncapacitated behavior.
  StreamVerifier(MetricPtr metric, CostModelPtr cost,
                 double tolerance = 1e-6, CapacityMap capacities = nullptr);

  /// Arrival `id` (== ledger request id) was just served with `request`.
  void on_arrival(RequestId id, const Request& request,
                  const SolutionLedger& ledger);
  /// Arrival `id` was just retired at stream-event index `event_index`.
  /// Its record is still resident: the facilities it occupied are
  /// re-derived from the served list, checked against the fingerprint
  /// taken at arrival, and released from the occupancy tally.
  void on_retire(RequestId id, std::uint64_t event_index,
                 const SolutionLedger& ledger);
  /// Final totals check; returns the first error found, or nullopt.
  std::optional<VerificationError> finish(const SolutionLedger& ledger);

  const std::optional<VerificationError>& error() const noexcept {
    return error_;
  }

  /// Checkpoint/restore (instance/checkpoint_io.hpp): the verifier's
  /// running totals and, per active request in ascending id order, its
  /// recomputed connection cost and distinct facilities, so a restored
  /// run keeps full verification coverage over the events it replays —
  /// including a sticky error recorded before the snapshot. serialize
  /// reads the facility lists from `ledger`, which must hold every
  /// active record (compaction drops only retired ones). restore fills a
  /// freshly constructed verifier (same metric, cost model and
  /// tolerance); `num_requests` is the arrival count the snapshot vouches
  /// for, and a section claiming more arrivals is refused before any
  /// entry is held.
  void serialize(CkptWriter& writer, const SolutionLedger& ledger) const;
  void restore(CkptReader& reader, std::uint64_t num_requests);

 private:
  /// Recomputed state of one active request.
  struct ActiveEntry {
    /// Recomputed connection cost (independent of the ledger's figure).
    double connection = 0.0;
    /// Fingerprint of the sorted distinct facilities the request
    /// occupies, re-derived and checked when it retires.
    std::uint64_t facilities = 0;
  };

  void fail_check(const std::string& what);

  MetricPtr metric_;
  CostModelPtr cost_;
  double tolerance_;
  CapacityMap capacities_;
  bool capacitated_ = false;

  RequestId next_expected_ = 0;
  std::size_t facilities_seen_ = 0;
  double opening_ = 0.0;
  double gross_connection_ = 0.0;
  double retired_connection_ = 0.0;
  /// Independently re-derived occupancy per facility (parallel to the
  /// first facilities_seen_ facilities).
  std::vector<std::uint64_t> occupancy_;
  /// The active requests' entries, keyed by request id.
  IdSlotPool<ActiveEntry> active_;
  /// Scratch reused by every record check: the demand coverage being
  /// rebuilt and the record's sorted distinct facilities.
  CommoditySet covered_;
  std::vector<FacilityId> distinct_;
  std::optional<VerificationError> error_;
};

}  // namespace omflp
