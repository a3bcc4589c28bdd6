// PerfCounters — hot-path work counters for the algorithm layer.
//
// The paper's efficiency claims (§4: RAND "is much more efficient to
// implement" than primal–dual) are statements about per-event work:
// distance lookups, bid evaluations, facility probes, coin flips. This
// sink counts exactly those units so BENCH_*.json files record them next
// to wall times, and so optimization PRs can show *what* got cheaper, not
// just that something did.
//
// Design: counting is off unless a sink is installed on the current
// thread. The hook macro compiles to a thread-local pointer load plus a
// perfectly-predicted branch when no sink is installed — indistinguishable
// from the uninstrumented code in every bench we can measure. For the
// truly paranoid, defining OMFLP_PERF_DISABLE at compile time turns every
// hook into a literal no-op.
//
// Usage:
//
//   PerfCounters counters;
//   {
//     PerfScope scope(counters);           // installs on this thread
//     run_online(algorithm, instance);     // hooks accumulate
//   }                                      // previous sink restored
//   counters.distance_lookups, ...
//
// Scopes nest (the previous sink is restored on destruction) and are
// strictly per-thread: parallel sweep workers never observe another
// thread's scope.
#pragma once

#include <cstdint>

namespace omflp {

struct PerfCounters {
  std::uint64_t distance_lookups = 0;   // DistanceOracle calls, both paths
  std::uint64_t bids_evaluated = 0;     // per-point bid-sum evaluations
  std::uint64_t bids_updated = 0;       // per-point incremental bid writes
  /// Facilities swept into a nearest-facility row (one per row per
  /// opening), or scanned one by one (Fotakis).
  std::uint64_t facilities_probed = 0;
  std::uint64_t coin_flips = 0;         // Bernoulli draws (RAND/Meyerson)
  std::uint64_t verifier_checks = 0;    // verifier records re-derived
  std::uint64_t requests_served = 0;    // serve() calls through run_online
  std::uint64_t facilities_opened = 0;  // ledger facility openings
  std::uint64_t duals_raised = 0;       // bound-layer dual variables raised
  std::uint64_t trace_events_emitted = 0;  // obs-layer trace events sunk
  std::uint64_t requests_shed = 0;      // requests with >=1 rejected item
  std::uint64_t assignments_spilled = 0;  // capacity-redirected assignments

  void reset() noexcept { *this = PerfCounters{}; }

  PerfCounters& operator+=(const PerfCounters& o) noexcept {
    distance_lookups += o.distance_lookups;
    bids_evaluated += o.bids_evaluated;
    bids_updated += o.bids_updated;
    facilities_probed += o.facilities_probed;
    coin_flips += o.coin_flips;
    verifier_checks += o.verifier_checks;
    requests_served += o.requests_served;
    facilities_opened += o.facilities_opened;
    duals_raised += o.duals_raised;
    trace_events_emitted += o.trace_events_emitted;
    requests_shed += o.requests_shed;
    assignments_spilled += o.assignments_spilled;
    return *this;
  }

  bool all_zero() const noexcept {
    return distance_lookups == 0 && bids_evaluated == 0 &&
           bids_updated == 0 && facilities_probed == 0 && coin_flips == 0 &&
           verifier_checks == 0 && requests_served == 0 &&
           facilities_opened == 0 && duals_raised == 0 &&
           trace_events_emitted == 0 && requests_shed == 0 &&
           assignments_spilled == 0;
  }

  /// Visit every (name, value) pair in a fixed order — the single source
  /// of truth for JSON emission and parsing. fn(const char*, uint64_t&).
  template <typename Self, typename Fn>
  static void for_each_field(Self& self, Fn&& fn) {
    fn("distance_lookups", self.distance_lookups);
    fn("bids_evaluated", self.bids_evaluated);
    fn("bids_updated", self.bids_updated);
    fn("facilities_probed", self.facilities_probed);
    fn("coin_flips", self.coin_flips);
    fn("verifier_checks", self.verifier_checks);
    fn("requests_served", self.requests_served);
    fn("facilities_opened", self.facilities_opened);
    fn("duals_raised", self.duals_raised);
    fn("trace_events_emitted", self.trace_events_emitted);
    fn("requests_shed", self.requests_shed);
    fn("assignments_spilled", self.assignments_spilled);
  }
};

namespace perf {

/// The thread's active sink; null = counting disabled (the default).
inline thread_local PerfCounters* tl_sink = nullptr;

inline PerfCounters* thread_sink() noexcept { return tl_sink; }

}  // namespace perf

/// RAII installer: makes `sink` the current thread's active counter sink
/// and restores the previous one (usually none) on destruction.
class PerfScope {
 public:
  explicit PerfScope(PerfCounters& sink) noexcept
      : previous_(perf::tl_sink) {
    perf::tl_sink = &sink;
  }
  ~PerfScope() { perf::tl_sink = previous_; }

  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  PerfCounters* previous_;
};

}  // namespace omflp

/// Hot-path hook: bump `field` of the thread's sink by `amount`, or do
/// nothing when no sink is installed / OMFLP_PERF_DISABLE is defined.
/// Prefer one bulk OMFLP_PERF_ADD over per-iteration OMFLP_PERF_COUNT in
/// tight loops.
#if defined(OMFLP_PERF_DISABLE)
#define OMFLP_PERF_ADD(field, amount) ((void)0)
#else
#define OMFLP_PERF_ADD(field, amount)                                  \
  do {                                                                 \
    if (::omflp::PerfCounters* omflp_perf_sink_ =                      \
            ::omflp::perf::thread_sink())                              \
      omflp_perf_sink_->field +=                                       \
          static_cast<std::uint64_t>(amount);                          \
  } while (0)
#endif
#define OMFLP_PERF_COUNT(field) OMFLP_PERF_ADD(field, 1)
