// Windowed certified lower bounds for dynamic event streams.
//
// A million-event churn trace cannot be bounded in one shot — the dual
// ascent needs the request set in memory — but its timeline decomposes:
// scanning events in order while tracking the true active count (arrivals,
// explicit departures, lease expiries — the timeline semantics of
// instance/event_stream.hpp) splits the stream into disjoint *busy
// windows*, maximal spans between moments where the active set drains to
// empty. A hard cap on arrivals per window (`max_window_arrivals`)
// force-splits busy periods that never drain, so peak memory is
// O(cap · |M|) regardless of stream length.
//
// What the numbers certify — stated precisely, because disjointness alone
// does NOT make per-window bounds sum to a bound on OPT of the union
// (offline facilities are shared across windows):
//
//   * per window w, LB(A_w) ≤ OPT(A_w) where A_w is the window's arrival
//     set as a static instance — each window carries its own verified
//     DualCertificate;
//   * the sum Σ_w LB(A_w) ≤ Σ_w OPT(A_w), the cost of the *windowed
//     re-optimizing adversary*: an offline player who serves each busy
//     window with a fresh optimal solution. This is the natural offline
//     baseline for gross (total) online cost on streams with departures
//     (cf. Online Facility Location with Deletions); when the stream is
//     one busy window the sum degenerates to the exact all-arrivals bound;
//   * the max over any request partition, max_c LB(chunk_c) ≤ OPT(all) —
//     because OPT is monotone under taking subsets of requests —
//     which is how bound_instance_chunked certifies a lower bound on
//     OPT(surviving) for `stream --ratio` brackets without ever running
//     the ascent on more than `max_window_arrivals` requests at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bound/certificate.hpp"
#include "bound/dual_ascent.hpp"
#include "instance/event_stream.hpp"

namespace omflp {

struct WindowBoundOptions {
  /// Busy windows are force-split once they accumulate this many
  /// arrivals (memory cap; also the chunk size of
  /// bound_instance_chunked).
  std::size_t max_window_arrivals = 4096;
  DualAscentOptions ascent;
};

struct WindowBoundRow {
  /// Event index of the window's first arrival.
  std::uint64_t first_event = 0;
  std::size_t arrivals = 0;
  double lower = 0.0;
  /// True when the window was closed by the arrival cap rather than by
  /// the active set draining to empty.
  bool forced_split = false;
};

struct StreamBoundResult {
  /// Σ_w LB(A_w) — certified lower bound on the windowed re-optimizing
  /// adversary's total cost (see file comment for exact semantics).
  double windowed_lower = 0.0;
  std::size_t windows = 0;
  std::size_t forced_splits = 0;
  /// Largest window actually bounded (≤ options.max_window_arrivals).
  std::size_t max_window_arrivals = 0;
  std::uint64_t events = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t duals_raised = 0;
  std::vector<WindowBoundRow> per_window;
};

/// Streams `source` once, bounding each busy window as it closes.
/// Bounded memory: O(max_window_arrivals · |M|) plus the per-arrival
/// activity bitmap. Throws std::invalid_argument on malformed events
/// (the conditions EventStream::validate rejects) and std::logic_error
/// when a window certificate fails verification.
StreamBoundResult bound_stream_windows(EventSource& source,
                                       const WindowBoundOptions& options = {});

struct ChunkedBound {
  /// max_c LB(chunk_c) — certified lower bound on OPT(instance).
  double lower = 0.0;
  std::size_t chunks = 0;
  /// Index of the chunk attaining the max (first on ties).
  std::size_t best_chunk = 0;
  std::uint64_t duals_raised = 0;
};

/// Certified lower bound on OPT of a static instance of any size: the
/// requests are split into ⌈n / max_window_arrivals⌉ balanced contiguous
/// chunks, each chunk is bounded (and verified) separately, and the max
/// composes because OPT is monotone under request subsets. One chunk ⇒
/// the plain dual-ascent bound.
ChunkedBound bound_instance_chunked(const Instance& instance,
                                    const WindowBoundOptions& options = {});

}  // namespace omflp
