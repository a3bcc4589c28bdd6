// Hot-loop kernels — the branch-free inner loops of every bid-plane sweep.
//
// All PD-style algorithms in this repo (PD-OMFLP, Fotakis' OFL) spend their
// time in four |M|-length row operations over a request's archived-bid
// state:
//
//   accumulate_clipped_bid   row[m] += (v − dist[m])+          (archive)
//   shift_clipped_bid        row[m] −= (v_old−d)+ − (v_new−d)+ (reinvest)
//   min_tightness_over_row   min_m (dist[m] + (cost[m]−bids[m])+ − a)+ / c
//                            with first-index tie-break        (events)
//   argmin_over_row[_where]  nearest-point scans               (classes)
//
// The kernels take raw restrict-qualified pointers into contiguous rows
// (BidPlane rows, DistanceOracle::row()) so compilers can auto-vectorize
// them: no virtual calls, no perf hooks, no aliasing hazards in the loop
// body. Callers are responsible for the perf counters — one bulk
// OMFLP_PERF_ADD per row, which keeps BENCH counter totals identical to
// the historical per-element ticks.
//
// Every kernel runs on the calling thread. A row is |M| long (the dense
// distance matrix stops at 4,096 points), far too short to pay for
// spawning workers; parallelism lives one level up, across the engine's
// shards. Summation order equals the historical scalar loop, which keeps
// reference-mode PD runs bit-compatible.
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

}  // namespace omflp::kernel
