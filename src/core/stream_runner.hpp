// StreamSession / run_stream — the dynamic counterpart of run_online:
// drives an OnlineAlgorithm over an EventSource's arrival/departure/lease
// timeline into a SolutionLedger with active-interval accounting.
//
// Processing model: events are pulled from the source in batches of
// `batch_size` — the only buffering between a disk-backed trace and the
// algorithm. The session's StreamTimeline (instance/event_stream.hpp, the
// one the validator and the windowed bounder use too) owns the clock, the
// active set and the pending lease expiries: for each event index t it
// first fires the due expiries (arrival + lease <= t, ascending (deadline,
// arrival id)) into the ledger, verifier and algorithm, then checks and
// applies the event, which the session processes:
//   * arrival   — begin_request / serve / finish_request, exactly like
//                 run_online;
//   * departure — ledger.retire_request (retroactive cost re-accounting)
//                 followed by the algorithm's depart() hook (bid rollback
//                 for PD/Fotakis, the frozen no-op otherwise).
// After each batch, the records retired during it are released into the
// ledger's free slots (opt-out via `compact`), so resident *ledger*
// state is O(active set + batch), not O(arrivals): at most the requests
// active when the batch began plus the batch's arrivals are resident.
// peak_resident_records in the stats is the measured high-water mark.
// (The algorithm's own state is outside the runner's control:
// greedy/RAND hold their facilities and nearest-facility rows, PD also
// archives the duals of the requests still active.)
// With `verify` set, a StreamVerifier shadows the run and checks every
// record before it can be released.
//
// StreamSession is the resumable core: one step_batch() call pulls and
// processes exactly one batch, so a driver may interleave many sessions —
// the sharded multi-tenant engine (engine/sharded_engine.hpp) advances one
// batch per tenant per global round. run_stream() is the single-tenant
// convenience wrapper: construct, drain, finish.
//
// Determinism: the result is a pure function of the event sequence and
// the algorithm (kernel chunking keeps it bit-identical across thread
// counts, as for static runs), and — because a session owns all of its
// mutable state — independent of how step_batch() calls are interleaved
// with other sessions.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/online_algorithm.hpp"
#include "instance/capacity.hpp"
#include "instance/event_stream.hpp"
#include "solution/verifier.hpp"
#include "support/assert.hpp"

namespace omflp {

struct StreamRunOptions {
  ConnectionChargePolicy policy = ConnectionChargePolicy::kPerFacility;
  /// Events pulled from the source per batch (and compaction cadence).
  std::size_t batch_size = 8192;
  /// Release the records retired during each batch after it (bounded
  /// memory).
  bool compact = true;
  /// Shadow the run with an incremental StreamVerifier; the first
  /// violation is reported in StreamRunResult::violation.
  bool verify = false;
  /// Per-point facility capacities for the session's ledger (and the
  /// shadow verifier). Null falls back to the source's own capacities
  /// (EventSource::capacities()); both null keeps the run uncapacitated.
  CapacityMap capacities;
  /// What the ledger does with an assignment to a full facility.
  OverflowPolicy overflow = OverflowPolicy::kReassign;
};

struct StreamRunResult {
  explicit StreamRunResult(SolutionLedger result_ledger)
      : ledger(std::move(result_ledger)) {}

  SolutionLedger ledger;

  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;       // explicit departure events
  std::uint64_t lease_expiries = 0;   // retirements fired by leases
  /// High-water mark of simultaneously active requests.
  std::size_t peak_active = 0;
  /// High-water mark of resident ledger records (the bounded-memory
  /// evidence: at most peak_active + batch_size when compacting).
  std::size_t peak_resident_records = 0;
  /// Wall time spent inside step_batch() (excluding source construction
  /// and any scheduling gaps between batches).
  double run_ns = 0.0;
  /// First verification failure (only when options.verify).
  std::optional<VerificationError> violation;

  double events_per_sec() const noexcept {
    return run_ns > 0.0 ? static_cast<double>(events) * 1e9 / run_ns : 0.0;
  }
};

/// A resumable stream run: the state of one (algorithm, source) pair
/// between batches. The constructor resets the algorithm; step_batch()
/// advances one batch; finish() closes the books once the source is
/// exhausted. Throws std::invalid_argument on a malformed event
/// (departure of an unknown / inactive arrival, arrival outside the
/// metric) — the same timeline check EventStream::validate runs.
///
/// The algorithm and source are borrowed and must outlive the session;
/// neither may be shared with another concurrently-stepped session.
class StreamSession {
 public:
  StreamSession(OnlineAlgorithm& algorithm, EventSource& source,
                const StreamRunOptions& options = {});

  /// Restoring constructor (instance/checkpoint_io.hpp): rebuilds the
  /// session from a checkpoint() snapshot. The algorithm must be a fresh
  /// instance constructed exactly as for the original run (same options
  /// and seed) — it is reset() and handed its serialized state — and the
  /// source a fresh source of the *same* stream, which is fast-forwarded
  /// to the snapshot's clock. options must match the snapshot (verify
  /// flag, connection-charge policy and overflow policy are guarded).
  /// The restored session continues bitwise identically to one that
  /// never stopped.
  StreamSession(OnlineAlgorithm& algorithm, EventSource& source,
                const StreamRunOptions& options, CkptReader& reader);

  StreamSession(const StreamSession&) = delete;
  StreamSession& operator=(const StreamSession&) = delete;

  /// Pulls and processes one batch (plus the post-batch compaction);
  /// returns the number of events processed — 0 means the source is
  /// exhausted and the session is ready to finish(). Wall time accrues
  /// into the result's run_ns.
  std::size_t step_batch();

  /// True once step_batch() has observed the end of the source.
  bool exhausted() const noexcept { return exhausted_; }

  /// Events processed so far (the stream clock).
  std::uint64_t events_processed() const noexcept {
    return timeline_.clock();
  }

  const SolutionLedger& ledger() const {
    // finish() moves the result out; reading the husk would silently
    // return a moved-from ledger.
    OMFLP_REQUIRE(!finished_, "StreamSession: ledger after finish");
    return result_.ledger;
  }

  /// Final totals (and the verifier's closing check, when enabled). The
  /// session is spent afterwards; requires exhausted() and may be called
  /// once.
  StreamRunResult finish();

  /// Serializes the complete between-batches state — the stream clock,
  /// active set, pending lease expiries, result statistics, verifier,
  /// ledger and the algorithm's own state — in canonical form (a
  /// checkpoint of a restored session is byte-identical to the one it
  /// was restored from). Call between step_batch() calls, before
  /// finish(). run_ns is serialized for continuity of the stats but is
  /// wall time, the one field excluded from bitwise comparisons.
  void checkpoint(CkptWriter& writer) const;

 private:
  void retire(RequestId id, std::uint64_t event_index);
  void process_event(const StreamEvent& event);

  OnlineAlgorithm& algorithm_;
  EventSource& source_;
  StreamRunOptions options_;

  StreamRunResult result_;
  std::optional<StreamVerifier> verifier_;
  StreamTimeline timeline_;  // after result_: built from its ledger

  std::vector<StreamEvent> batch_;
  bool exhausted_ = false;
  bool finished_ = false;
};

/// Drive `source` through `algorithm` to completion (construct a session,
/// drain it, finish).
StreamRunResult run_stream(OnlineAlgorithm& algorithm, EventSource& source,
                           const StreamRunOptions& options = {});

/// Convenience overload for materialized streams.
StreamRunResult run_stream(OnlineAlgorithm& algorithm,
                           const EventStream& stream,
                           const StreamRunOptions& options = {});

}  // namespace omflp
