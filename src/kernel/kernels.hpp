// Hot-loop kernels — the inner loops of every bid-plane sweep.
//
// All PD-style algorithms in this repo (PD-OMFLP, Fotakis' OFL) spend their
// time in four row operations over a request's archived-bid state:
//
//   accumulate_clipped_bid   row[m] += (v − dist[m])+          (archive)
//   shift_clipped_bid        row[m] −= (v_old−d)+ − (v_new−d)+ (reinvest)
//   min_tightness_over_row   min_m (dist[m] + (cost[m]−bids[m])+ − a)+ / c
//                            with first-index tie-break        (events)
//   argmin_over_row[_where]  nearest-point scans               (classes)
//
// The full-row kernels take raw restrict-qualified pointers into
// contiguous rows (BidPlane rows, DistanceOracle::row()) so compilers can
// auto-vectorize them: no virtual calls, no perf hooks, no aliasing
// hazards in the loop body.
//
// The first three also come as ball kernels, which walk the row's points
// in ascending distance (DistanceOracle::ball()) and stop where nothing
// further can change: a clipped bid (v − d)+ is zero at d ≥ v, and a
// point's tightness time is never below (d − a)+ / c. They touch only the
// points near the request and produce bitwise the full-row result (the
// one exception, a row entry of −0.0 that the skipped `+= 0.0` would turn
// into +0.0, never arises from zero-started rows; PdOmflp's audit and
// checkpoint restore refuse it). PD-OMFLP's incremental mode runs the
// ball kernels on the cached table and the full-row ones beyond it;
// reference mode keeps the full rows as the oracle both are tested
// against.
//
// Callers own the perf counters: the full-row kernels touch |M| points
// per call, the ball kernels report how many they touched, and the caller
// adds that with one bulk OMFLP_PERF_ADD per call.
//
// Every kernel runs on the calling thread. A row is |M| long (the dense
// distance matrix stops at 4,096 points), far too short to pay for
// spawning workers; parallelism lives one level up, across the engine's
// shards. Each row entry sees the same floating-point operations in the
// same order as the historical scalar loop, which keeps reference-mode
// PD runs bit-compatible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace omflp::kernel {

/// row[m] += (v − dist_row[m])+ for m in [0, n).
void accumulate_clipped_bid(double* row, const double* dist_row, double v,
                            std::size_t n);

/// row[m] −= (v_old − dist_row[m])+ − (v_new − dist_row[m])+ — the
/// reinvestment update when a bid's clip value drops from v_old to v_new.
void shift_clipped_bid(double* row, const double* dist_row, double v_old,
                       double v_new, std::size_t n);

/// First index of the minimum of row[0..n). Requires n > 0.
///
/// NaN semantics: a NaN element compares as +inf and can never win the
/// argmin; rows with no finite minimum (all NaN and/or +inf) return
/// index 0. Ties — including ties created by the NaN demotion — resolve
/// to the first index.
std::size_t argmin_over_row(const double* row, std::size_t n);

/// First index of the minimum of row[m] over the m with keys[m] <= limit.
/// Returns n when no index is eligible. A NaN element is never eligible
/// (it cannot beat the +inf running best), so an all-NaN eligible set
/// also returns n.
std::size_t argmin_over_row_where(const double* row,
                                  const std::uint32_t* keys,
                                  std::uint32_t limit,
                                  std::size_t n);

/// A constraint-tightness event over one row: the first index attaining
/// the minimal delta. Default state = "no event" (infinite delta).
struct RowEvent {
  double delta = std::numeric_limits<double>::infinity();
  std::size_t index = static_cast<std::size_t>(-1);
  /// Points whose tightness min_tightness_over_ball evaluated (the
  /// full-row kernel leaves it 0: it evaluates up to all n).
  std::size_t visited = 0;
};

/// min over m of (dist_row[m] + (cost_row[m] − bids_row[m])+ − raised)+ /
/// divisor, with first-index tie-break — the constraint-(3)/(4) event
/// search of the primal–dual scheme. The division is applied per element
/// so results are bit-identical to the historical scalar loop. Requires
/// n > 0.
///
/// Edge semantics: an element whose inputs contain NaN yields a NaN
/// tightness and is skipped — NaN never reports an event (and never
/// reports spurious tightness). A divisor that is not strictly positive
/// (zero, negative, or NaN) defines no tightness time and returns the
/// default "no event" RowEvent; it is never forwarded into the division,
/// where 0/0 would manufacture NaN and a negative divisor would turn
/// positive deltas into winning negative event times.
RowEvent min_tightness_over_row(const double* dist_row,
                                const double* cost_row,
                                const double* bids_row, double raised,
                                double divisor, std::size_t n);

// ---- ball kernels ----------------------------------------------------------
// `ball` lists all n point ids in ascending (dist_row[m], m) order with
// NaN distances last (DistanceOracle::ball() of the row's point); the
// rows are indexed by point id as in the full-row kernels.

/// accumulate_clipped_bid over the ball's prefix with dist_row[m] < v,
/// the only points whose clipped bid is non-zero. Returns how many it
/// updated.
std::size_t accumulate_clipped_bid_ball(double* row, const double* dist_row,
                                        const std::uint16_t* ball, double v,
                                        std::size_t n);

/// shift_clipped_bid over the ball's prefix with dist_row[m] <
/// max(v_old, v_new); beyond it both clipped bids are +0.0 and the shift
/// subtracts +0.0, which leaves every value (−0.0 included) as it is.
/// Returns how many points it updated.
std::size_t shift_clipped_bid_ball(double* row, const double* dist_row,
                                   const std::uint16_t* ball, double v_old,
                                   double v_new, std::size_t n);

/// min_tightness_over_row, walking the ball: returns the same delta bits
/// and index, with the same NaN and divisor semantics. The walk stops at
/// the first point whose lower bound (dist_row[m] − raised)+ / divisor
/// exceeds the best delta so far — every later point has a delta at least
/// that bound, since (cost − bids)+ ≥ 0 and rounded add, subtract, clip
/// and divide are monotone — and breaks delta ties on the lowest index,
/// which the ascending full scan finds first. `visited` reports the
/// points evaluated. Requires n > 0.
RowEvent min_tightness_over_ball(const double* dist_row,
                                 const std::uint16_t* ball,
                                 const double* cost_row,
                                 const double* bids_row, double raised,
                                 double divisor, std::size_t n);

}  // namespace omflp::kernel
