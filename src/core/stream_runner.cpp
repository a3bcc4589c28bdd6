#include "core/stream_runner.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "instance/checkpoint_io.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

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

}  // namespace

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void bad_event(std::uint64_t t, const std::string& what) {
  throw std::invalid_argument("run_stream: event " + std::to_string(t) +
                              ": " + what);
}

}  // namespace

namespace {

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

}  // namespace

StreamSession::StreamSession(OnlineAlgorithm& algorithm, EventSource& source,
                             const StreamRunOptions& options)
    : algorithm_(algorithm),
      source_(source),
      options_(options),
      result_(make_session_ledger(source, options)) {
  algorithm_.reset(ProblemContext{source_.metric(), source_.cost()});
  if (options_.verify)
    verifier_.emplace(source_.metric(), source_.cost(), 1e-6,
                      session_capacities(source_, options_));
  batch_.reserve(options_.batch_size);
}

namespace {

const char* policy_tag(ConnectionChargePolicy policy) {
  return policy == ConnectionChargePolicy::kPerFacility ? "per-facility"
                                                        : "per-commodity";
}

}  // namespace

StreamSession::StreamSession(OnlineAlgorithm& algorithm, EventSource& source,
                             const StreamRunOptions& options,
                             CkptReader& reader)
    : algorithm_(algorithm),
      source_(source),
      options_(options),
      result_(make_session_ledger(source, options)) {
  algorithm_.reset(ProblemContext{source_.metric(), source_.cost()});
  batch_.reserve(options_.batch_size);

  reader.expect("session");
  clock_ = reader.u();
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

  reader.expect("active");
  const std::uint64_t num_arrived = reader.u();
  num_active_ = reader.u();
  const std::uint64_t num_words = (num_arrived + 63) / 64;
  std::vector<std::uint64_t> words;
  words.reserve(capped_reserve(num_words));
  for (std::uint64_t i = 0; i < num_words; ++i) words.push_back(reader.u());
  // Every declared word was actually present, so num_arrived is bounded
  // by the file's real size — safe to materialize the bitmap now.
  active_.assign(num_arrived, false);
  std::size_t popcount = 0;
  for (std::uint64_t id = 0; id < num_arrived; ++id) {
    if ((words[id >> 6] >> (id & 63)) & 1) {
      active_[id] = true;
      ++popcount;
    }
  }
  if (popcount != num_active_)
    reader.fail("active-request bitmap disagrees with the active count");
  if (result_.arrivals != num_arrived)
    reader.fail("arrival count disagrees with the active bitmap");

  reader.expect("expiries");
  const std::uint64_t num_expiries = reader.u();
  for (std::uint64_t i = 0; i < num_expiries; ++i) {
    reader.expect("expiry");
    const std::uint64_t deadline = reader.u();
    const auto id = static_cast<RequestId>(reader.u());
    if (id >= active_.size()) reader.fail("expiry of an unknown arrival");
    expiries_.emplace(deadline, id);
  }

  if (options_.verify) {
    verifier_.emplace(source_.metric(), source_.cost(), 1e-6,
                      session_capacities(source_, options_));
    verifier_->restore(reader);
  }
  SolutionLedger& ledger = result_.ledger;
  ledger.restore(reader, num_arrived);
  if (ledger.num_active_requests() != num_active_)
    reader.fail("ledger active count disagrees with the session's");
  for (RequestId id = 0; id < num_arrived; ++id) {
    if (active_[id] &&
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

  source_.skip_events(clock_);
}

void StreamSession::checkpoint(CkptWriter& writer) const {
  OMFLP_REQUIRE(!finished_, "StreamSession: checkpoint after finish");
  OMFLP_REQUIRE(!result_.ledger.request_in_flight(),
                "StreamSession: checkpoint with a request in flight");
  writer.line("session")
      .u(clock_)
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
  writer.line("active").u(active_.size()).u(num_active_);
  std::vector<std::uint64_t> words((active_.size() + 63) / 64, 0);
  for (std::size_t id = 0; id < active_.size(); ++id)
    if (active_[id]) words[id >> 6] |= (1ULL << (id & 63));
  for (const std::uint64_t w : words) writer.u(w);
  // Canonical form: the pending expiries sorted ascending — pop order is
  // fully determined by (deadline, id), so heap layout is irrelevant.
  auto heap = expiries_;
  std::vector<Expiry> pending;
  pending.reserve(heap.size());
  while (!heap.empty()) {
    pending.push_back(heap.top());
    heap.pop();
  }
  writer.line("expiries").u(pending.size());
  for (const auto& [deadline, id] : pending)
    writer.line("expiry").u(deadline).u(id);
  if (verifier_) verifier_->serialize(writer, result_.ledger);
  result_.ledger.serialize(writer);
  writer.line("algo").bytes(algorithm_.name());
  algorithm_.serialize_state(writer);
}

void StreamSession::retire(RequestId id, std::uint64_t event_index) {
  SolutionLedger& ledger = result_.ledger;
  ledger.retire_request(id, event_index);
  active_[id] = false;
  --num_active_;
  if (verifier_) verifier_->on_retire(id, event_index, ledger);
  // The record survives until the post-batch compaction, so the
  // depart() hook may still read it.
  algorithm_.depart(id, ledger.request_record(id).request, ledger);
}

void StreamSession::process_event(const StreamEvent& event) {
  SolutionLedger& ledger = result_.ledger;
  const MetricSpace& metric = ledger.metric();
  const FacilityCostModel& cost = ledger.cost_model();

  while (!expiries_.empty() && expiries_.top().first <= clock_) {
    const auto [deadline, id] = expiries_.top();
    expiries_.pop();
    if (!active_[id]) continue;  // departed explicitly before expiry
    emit_retire(TraceEventKind::kLeaseExpire, id, deadline);
    retire(id, deadline);
    ++result_.lease_expiries;
  }

  if (event.kind == StreamEvent::Kind::kArrival) {
    // Same checks as EventStream::validate, with the event index in
    // the message. (begin_request would also reject these, but a
    // programmatically-built source deserves a stream-level error,
    // and nothing malformed may reach the raw-pointer kernels.)
    if (event.request.location >= metric.num_points())
      bad_event(clock_, "arrival location outside the metric space");
    if (event.request.commodities.universe_size() != cost.num_commodities())
      bad_event(clock_, "arrival demand set over the wrong universe");
    if (event.request.commodities.empty())
      bad_event(clock_, "empty demand set");
    const RequestId id = active_.size();
    ledger.begin_request(event.request);
    algorithm_.serve(event.request, ledger);
    ledger.finish_request();
    OMFLP_PERF_COUNT(requests_served);
    active_.push_back(true);
    ++num_active_;
    if (event.lease > 0)
      expiries_.emplace(lease_deadline(clock_, event.lease), id);
    if (verifier_) verifier_->on_arrival(id, event.request, ledger);
    ++result_.arrivals;
  } else {
    if (event.target >= active_.size())
      bad_event(clock_, "departure of an arrival that has not happened");
    if (!active_[event.target])
      bad_event(clock_, "departure of an arrival that is no longer active");
    emit_retire(TraceEventKind::kDepart, event.target, clock_);
    retire(event.target, clock_);
    ++result_.departures;
  }

  ++clock_;
  if (num_active_ > result_.peak_active) result_.peak_active = num_active_;
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
  result_.events = clock_;
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
