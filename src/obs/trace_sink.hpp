// TraceSink — structured decision tracing for the algorithm and ledger
// layers.
//
// The paper's competitive analysis (Theorems 2/4) is about *when* the
// primal-dual algorithm opens a facility: which requests contributed bid
// mass, which constraint went tight, and whether a later deletion rolled
// the decision back. Aggregate counters (src/perf/) cannot answer those
// questions; this sink receives one typed event per decision so a
// surprising ratio can be traced to the openings that caused it.
//
// Contract — identical to PerfScope (src/perf/perf_counters.hpp):
// tracing is off unless a sink is installed on the current thread. The
// emit helper compiles to a thread-local pointer load plus a
// perfectly-predicted branch when no sink is installed (the
// "trace/off" vs "trace/on" BenchSuite pair quantifies the cost);
// OMFLP_TRACE_DISABLE turns every hook into a literal no-op. Scopes nest
// and are strictly per-thread.
//
// Determinism: events are emitted only on the thread stepping a session
// (kernel parallel_for workers never emit), so a single-stream trace is
// byte-identical across OMFLP_THREADS. The ShardedEngine gives each
// tenant its own TraceBuffer and merges in tenant order — stronger than
// per-shard merging, and independent of both --shards and --threads.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "perf/perf_counters.hpp"
#include "support/types.hpp"

namespace omflp {

enum class TraceEventKind : std::uint8_t {
  kFacilityOpen = 0,   // a constraint went tight and a facility opened
  kRequestAssign = 1,  // ledger connected a request to a facility
  kBidRollback = 2,    // a departure withdrew accumulated bid mass
  kDepart = 3,         // explicit deletion retired a request
  kLeaseExpire = 4,    // lease deadline retired a request
  kDualRaise = 5,      // dual variable(s) raised (archive / bound layer)
  kVerifierFlag = 6,   // incremental verifier rejected an invariant
  kRequestReject = 7,  // admission control shed a demanded commodity
  kRequestSpill = 8,   // assignment redirected away from a full facility
};

inline const char* trace_event_kind_name(TraceEventKind kind) noexcept {
  switch (kind) {
    case TraceEventKind::kFacilityOpen: return "facility_open";
    case TraceEventKind::kRequestAssign: return "request_assign";
    case TraceEventKind::kBidRollback: return "bid_rollback";
    case TraceEventKind::kDepart: return "depart";
    case TraceEventKind::kLeaseExpire: return "lease_expire";
    case TraceEventKind::kDualRaise: return "dual_raise";
    case TraceEventKind::kVerifierFlag: return "verifier_flag";
    case TraceEventKind::kRequestReject: return "request_reject";
    case TraceEventKind::kRequestSpill: return "request_spill";
  }
  return "unknown";
}

/// One request's share of the bid mass behind a facility opening.
struct TraceContributor {
  RequestId request = kInvalidRequest;
  double amount = 0.0;
};

/// A single structured decision event. Flat by design: every kind uses a
/// subset of the fields (the tracelog writer serializes a fixed per-kind
/// field list — see src/instance/tracelog_io.hpp for the schema).
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kFacilityOpen;
  /// The request being served/retired when the event fired (the ordinal
  /// the ledger assigned at arrival). kInvalidRequest when n/a.
  RequestId request = kInvalidRequest;
  /// Paper constraint that went tight for facility_open: 1 = connect to
  /// an open nearby facility, 2 = reach a large facility, 3 = jointly
  /// buy a small facility, 4 = jointly buy a large facility. 0 = n/a.
  std::uint8_t constraint = 0;
  CommodityId commodity = kInvalidCommodity;
  FacilityId facility = kInvalidFacility;
  PointId point = kInvalidPoint;
  std::uint64_t config_size = 0;  // |configuration| (1 for small opens)
  std::uint64_t stream_event = 0; // stream clock at emission (retire paths)
  double cost = 0.0;              // opening cost / connect dist / dual mass
  double bid_mass = 0.0;          // accumulated bid sum at decision time
  double tightness = 0.0;         // slack-to-tight value (or coin prob)
  /// Top contributors by withheld bid, largest first, capped at
  /// kMaxTraceContributors; any tail is folded into `residual`.
  std::vector<TraceContributor> contributors;
  double residual = 0.0;
  std::string note;               // verifier_flag message; empty otherwise
};

inline constexpr std::size_t kMaxTraceContributors = 16;

/// Canonicalize a contributor list onto `event`: sort by amount
/// descending (request id ascending on ties — a total, input-order-free
/// order, so traces stay deterministic), keep the top
/// kMaxTraceContributors and fold the tail into event.residual.
inline void set_trace_contributors(TraceEvent& event,
                                   std::vector<TraceContributor> all) {
  std::sort(all.begin(), all.end(),
            [](const TraceContributor& a, const TraceContributor& b) {
              if (a.amount != b.amount) return a.amount > b.amount;
              return a.request < b.request;
            });
  event.residual = 0.0;
  if (all.size() > kMaxTraceContributors) {
    for (std::size_t i = kMaxTraceContributors; i < all.size(); ++i)
      event.residual += all[i].amount;
    all.resize(kMaxTraceContributors);
  }
  event.contributors = std::move(all);
}

/// Receives events from the hooks; implementations must tolerate being
/// called once per decision on the session-stepping thread only.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// The simplest sink: append every event to a vector (tests, the engine's
/// per-tenant buffers, and `omflp explain`'s in-memory replay).
class TraceBuffer final : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override {
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const noexcept { return events_; }
  std::vector<TraceEvent>& events() noexcept { return events_; }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

namespace obs {

/// The thread's active sink; null = tracing disabled (the default).
inline thread_local TraceSink* tl_trace_sink = nullptr;

inline TraceSink* trace_sink() noexcept {
#if defined(OMFLP_TRACE_DISABLE)
  return nullptr;
#else
  return tl_trace_sink;
#endif
}

/// Hot-path guard: true only when someone is listening. Hooks that build
/// a non-trivial TraceEvent (contributor scans) must check this first so
/// the untraced path stays a load-and-branch.
inline bool tracing() noexcept { return trace_sink() != nullptr; }

/// Deliver `event` to the installed sink, if any, and tick the
/// trace_events_emitted perf counter.
inline void emit(const TraceEvent& event) {
  if (TraceSink* sink = trace_sink()) {
    sink->on_event(event);
    OMFLP_PERF_COUNT(trace_events_emitted);
  }
}

}  // namespace obs

/// RAII installer mirroring PerfScope: makes `sink` the current thread's
/// trace sink and restores the previous one on destruction.
class TraceScope {
 public:
  explicit TraceScope(TraceSink& sink) noexcept
      : previous_(obs::tl_trace_sink) {
    obs::tl_trace_sink = &sink;
  }
  ~TraceScope() { obs::tl_trace_sink = previous_; }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceSink* previous_;
};

}  // namespace omflp
