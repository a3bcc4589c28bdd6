#include "core/stream_runner.hpp"

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"
#include "support/clock.hpp"

namespace omflp {

namespace {

/// depart / lease_expire retirement marker, emitted before the
/// algorithm's depart() hook so the retirement precedes any bid_rollback
/// it causes in the trace.
void emit_retire(TraceEventKind kind, RequestId id,
                 std::uint64_t stream_event) {
  if (!obs::tracing()) return;
  TraceEvent ev;
  ev.kind = kind;
  ev.request = id;
  ev.stream_event = stream_event;
  obs::emit(ev);
}

/// An explicit option override beats the source's own capacities; both
/// null keeps the run uncapacitated.
CapacityMap session_capacities(EventSource& source,
                               const StreamRunOptions& options) {
  return options.capacities ? options.capacities : source.capacities();
}

/// Validates the source before the ledger is constructed from it, so an
/// incomplete source fails with the stream-level message (not the
/// ledger's null-pointer one).
SolutionLedger make_session_ledger(EventSource& source,
                                   const StreamRunOptions& options) {
  OMFLP_REQUIRE(options.batch_size > 0, "run_stream: batch_size must be "
                                        "positive");
  OMFLP_REQUIRE(source.metric() != nullptr && source.cost() != nullptr,
                "run_stream: incomplete event source");
  return SolutionLedger(source.metric(), source.cost(), options.policy,
                        session_capacities(source, options),
                        options.overflow);
}

StreamTimeline session_timeline(const SolutionLedger& ledger) {
  return StreamTimeline("run_stream", ledger.metric().num_points(),
                        ledger.cost_model().num_commodities());
}

const char* policy_tag(ConnectionChargePolicy policy) {
  return policy == ConnectionChargePolicy::kPerFacility ? "per-facility"
                                                        : "per-commodity";
}

}  // namespace

StreamSession::StreamSession(OnlineAlgorithm& algorithm, EventSource& source,
                             const StreamRunOptions& options)
    : algorithm_(algorithm),
      source_(source),
      options_(options),
      result_(make_session_ledger(source, options)),
      timeline_(session_timeline(result_.ledger)) {
  algorithm_.reset(ProblemContext{source_.metric(), source_.cost()});
  if (options_.verify)
    verifier_.emplace(source_.metric(), source_.cost(), 1e-6,
                      session_capacities(source_, options_));
  batch_.reserve(options_.batch_size);
}

StreamSession::StreamSession(OnlineAlgorithm& algorithm, EventSource& source,
                             const StreamRunOptions& options,
                             CkptReader& reader)
    : algorithm_(algorithm),
      source_(source),
      options_(options),
      result_(make_session_ledger(source, options)),
      timeline_(session_timeline(result_.ledger)) {
  algorithm_.reset(ProblemContext{source_.metric(), source_.cost()});
  batch_.reserve(options_.batch_size);

  reader.expect("session");
  const std::uint64_t clock = reader.u();
  exhausted_ = reader.b();
  if (reader.b() != options_.verify)
    reader.fail("checkpoint verify flag differs from the session options");
  if (reader.tok() != policy_tag(options_.policy))
    reader.fail("checkpoint connection-charge policy mismatch");
  if (reader.tok() != overflow_policy_tag(options_.overflow))
    reader.fail("checkpoint overflow policy mismatch");
  reader.expect("session-stats");
  result_.arrivals = reader.u();
  result_.departures = reader.u();
  result_.lease_expiries = reader.u();
  result_.peak_active = reader.u();
  result_.peak_resident_records = reader.u();
  result_.run_ns = reader.d();

  timeline_.restore(reader, clock);
  const std::uint64_t num_arrived = timeline_.arrivals();
  if (result_.arrivals != num_arrived)
    reader.fail("arrival count disagrees with the active bitmap");

  if (options_.verify) {
    verifier_.emplace(source_.metric(), source_.cost(), 1e-6,
                      session_capacities(source_, options_));
    verifier_->restore(reader, num_arrived);
  }
  SolutionLedger& ledger = result_.ledger;
  ledger.restore(reader, num_arrived);
  if (ledger.num_active_requests() != timeline_.num_active())
    reader.fail("ledger active count disagrees with the session's");
  for (RequestId id = 0; id < num_arrived; ++id) {
    if (timeline_.active(id) &&
        !(ledger.resident(id) && ledger.request_record(id).active()))
      reader.fail("an active request is missing from the ledger");
  }
  // A version-1 snapshot still holds the records retired behind the
  // first active one; a compacting session releases them now, as its
  // last batch boundary would have.
  if (options_.compact) ledger.release_retired();

  reader.expect("algo");
  if (reader.bytes() != algorithm_.name())
    reader.fail("checkpoint belongs to a different algorithm");
  algorithm_.restore_state(reader, num_arrived);

  source_.skip_events(clock);
}

void StreamSession::checkpoint(CkptWriter& writer) const {
  OMFLP_REQUIRE(!finished_, "StreamSession: checkpoint after finish");
  OMFLP_REQUIRE(!result_.ledger.request_in_flight(),
                "StreamSession: checkpoint with a request in flight");
  writer.line("session")
      .u(timeline_.clock())
      .b(exhausted_)
      .b(options_.verify)
      .tok(policy_tag(options_.policy))
      .tok(overflow_policy_tag(options_.overflow));
  writer.line("session-stats")
      .u(result_.arrivals)
      .u(result_.departures)
      .u(result_.lease_expiries)
      .u(result_.peak_active)
      .u(result_.peak_resident_records)
      .d(result_.run_ns);
  timeline_.serialize(writer);
  if (verifier_) verifier_->serialize(writer, result_.ledger);
  result_.ledger.serialize(writer);
  writer.line("algo").bytes(algorithm_.name());
  algorithm_.serialize_state(writer);
}

void StreamSession::retire(RequestId id, std::uint64_t event_index) {
  SolutionLedger& ledger = result_.ledger;
  ledger.retire_request(id, event_index);
  if (verifier_) verifier_->on_retire(id, event_index, ledger);
  // The record survives until the post-batch compaction, so the
  // depart() hook may still read it.
  algorithm_.depart(id, ledger.request_record(id).request, ledger);
}

void StreamSession::process_event(const StreamEvent& event) {
  SolutionLedger& ledger = result_.ledger;
  timeline_.expire_due([this](RequestId id, std::uint64_t deadline) {
    emit_retire(TraceEventKind::kLeaseExpire, id, deadline);
    retire(id, deadline);
    ++result_.lease_expiries;
  });

  // Checked before anything reaches the ledger or the raw-pointer
  // kernels, recorded after the ledger took the arrival: the timeline's
  // bitmap and the ledger's records grow at the same arrival counts, and
  // growing the ledger's first measured 36.4 against 40.5 MB peak RSS
  // replaying a 1M-event churn-uniform trace (seed 10, glibc malloc).
  const std::uint64_t t = timeline_.clock();
  const RequestId id = timeline_.check(event);
  if (event.kind == StreamEvent::Kind::kArrival) {
    ledger.begin_request(event.request);
    algorithm_.serve(event.request, ledger);
    ledger.finish_request();
    OMFLP_PERF_COUNT(requests_served);
    timeline_.apply(event);
    if (verifier_) verifier_->on_arrival(id, event.request, ledger);
    ++result_.arrivals;
  } else {
    timeline_.apply(event);
    emit_retire(TraceEventKind::kDepart, id, t);
    retire(id, t);
    ++result_.departures;
  }

  if (timeline_.num_active() > result_.peak_active)
    result_.peak_active = timeline_.num_active();
  const std::size_t resident = ledger.num_resident_records();
  if (resident > result_.peak_resident_records)
    result_.peak_resident_records = resident;
}

std::size_t StreamSession::step_batch() {
  OMFLP_REQUIRE(!finished_, "StreamSession: step_batch after finish");
  if (exhausted_) return 0;

  const std::uint64_t start_ns = now_ns();
  batch_.clear();
  const std::size_t pulled =
      source_.next_batch(batch_, options_.batch_size);
  if (pulled == 0) {
    exhausted_ = true;
    result_.run_ns += static_cast<double>(now_ns() - start_ns);
    return 0;
  }
  for (const StreamEvent& event : batch_) process_event(event);
  if (options_.compact) result_.ledger.release_retired();
  result_.run_ns += static_cast<double>(now_ns() - start_ns);
  return pulled;
}

StreamRunResult StreamSession::finish() {
  OMFLP_REQUIRE(exhausted_, "StreamSession: finish before exhaustion");
  OMFLP_REQUIRE(!finished_, "StreamSession: finish called twice");
  finished_ = true;
  result_.events = timeline_.clock();
  if (verifier_) result_.violation = verifier_->finish(result_.ledger);
  return std::move(result_);
}

StreamRunResult run_stream(OnlineAlgorithm& algorithm, EventSource& source,
                           const StreamRunOptions& options) {
  StreamSession session(algorithm, source, options);
  while (session.step_batch() != 0) {
  }
  return session.finish();
}

StreamRunResult run_stream(OnlineAlgorithm& algorithm,
                           const EventStream& stream,
                           const StreamRunOptions& options) {
  MaterializedEventSource source(stream);
  return run_stream(algorithm, source, options);
}

}  // namespace omflp
