#include "kernel/kernels.hpp"

#include <algorithm>
#include <cmath>

namespace omflp::kernel {

namespace {

// Block size for the early-exit scan in min_tightness_over_row:
// long enough to amortize the per-block check, short enough that a tight
// point near the front of the row is found quickly.
constexpr std::size_t kBlock = 512;

inline double positive_part(double x) noexcept { return x > 0.0 ? x : 0.0; }

// positive_part clamps NaN to 0, which is right for the accumulating
// kernels but disastrous in the event scan: a NaN bid or distance would
// collapse to a zero delta and report spurious tightness. This variant
// propagates NaN (x < 0 is false for NaN) so corrupted elements are
// skipped by the strict-< comparison instead; for every non-NaN input it
// is bit-identical to positive_part.
inline double positive_part_nanprop(double x) noexcept {
  return x < 0.0 ? 0.0 : x;
}

RowEvent min_tightness_span(const double* __restrict dist_row,
                            const double* __restrict cost_row,
                            const double* __restrict bids_row, double raised,
                            double divisor, std::size_t base,
                            std::size_t count) noexcept {
  RowEvent best;
  if (divisor == 1.0) {
    for (std::size_t i = 0; i < count; ++i) {
      const double delta = positive_part_nanprop(
          dist_row[i] + positive_part_nanprop(cost_row[i] - bids_row[i]) -
          raised);
      if (delta < best.delta) {
        best.delta = delta;
        best.index = base + i;
      }
    }
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      const double delta =
          positive_part_nanprop(
              dist_row[i] +
              positive_part_nanprop(cost_row[i] - bids_row[i]) - raised) /
          divisor;
      if (delta < best.delta) {
        best.delta = delta;
        best.index = base + i;
      }
    }
  }
  return best;
}

}  // namespace

// __restrict on the pointer parameters (needed in the definition only)
// tells the compiler row and dist_row never alias, which is the
// precondition for vectorizing the read-modify-write.
void accumulate_clipped_bid(double* __restrict row,
                            const double* __restrict dist_row, double v,
                            std::size_t n) {
  for (std::size_t m = 0; m < n; ++m)
    row[m] += positive_part(v - dist_row[m]);
}

void shift_clipped_bid(double* __restrict row,
                       const double* __restrict dist_row, double v_old,
                       double v_new, std::size_t n) {
  for (std::size_t m = 0; m < n; ++m) {
    const double dm = dist_row[m];
    row[m] -= positive_part(v_old - dm) - positive_part(v_new - dm);
  }
}

std::size_t argmin_over_row(const double* row, std::size_t n) {
  // NaN-robust by construction: the running best starts at +inf and only
  // a strict < replaces it, so a NaN element (never < anything) can never
  // win. A row with no value below +inf keeps index 0, which implements
  // the documented "NaN compares as +inf, ties resolve to the first
  // index" semantics — seeding with row[0] would let a NaN there win the
  // whole argmin silently.
  std::size_t best = 0;
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < n; ++m) {
    if (row[m] < best_value) {
      best_value = row[m];
      best = m;
    }
  }
  return best;
}

std::size_t argmin_over_row_where(const double* row,
                                  const std::uint32_t* keys,
                                  std::uint32_t limit,
                                  std::size_t n) {
  std::size_t best = n;  // "none eligible"
  double best_value = std::numeric_limits<double>::infinity();
  for (std::size_t m = 0; m < n; ++m) {
    // Branch-free select: ineligible entries never beat best_value.
    const bool take = keys[m] <= limit && row[m] < best_value;
    best_value = take ? row[m] : best_value;
    best = take ? m : best;
  }
  return best;
}

RowEvent min_tightness_over_row(const double* dist_row,
                                const double* cost_row,
                                const double* bids_row, double raised,
                                double divisor, std::size_t n) {
  // A non-positive (or NaN) divisor cannot define a tightness time:
  // dividing by 0 manufactures 0/0 = NaN for genuinely tight points, and
  // a negative divisor turns every positive delta into a negative "event
  // time" that wins the scan spuriously. Report "no event" instead.
  if (!(divisor > 0.0)) return RowEvent{};
  // Blocked scan with early exit: a delta of exactly 0 cannot be beaten
  // (deltas are clipped non-negative) and, scanning left to right, the
  // first one found is the first-index tie-break winner.
  RowEvent best;
  for (std::size_t begin = 0; begin < n; begin += kBlock) {
    const std::size_t count = std::min(kBlock, n - begin);
    const RowEvent block =
        min_tightness_span(dist_row + begin, cost_row + begin,
                           bids_row + begin, raised, divisor, begin, count);
    if (block.delta < best.delta) best = block;
    if (best.delta == 0.0) return best;
  }
  return best;
}

std::size_t accumulate_clipped_bid_ball(double* __restrict row,
                                        const double* __restrict dist_row,
                                        const std::uint16_t* ball, double v,
                                        std::size_t n) {
  std::size_t i = 0;
  for (; i < n; ++i) {
    const std::size_t m = ball[i];
    const double dm = dist_row[m];
    if (!(dm < v)) break;
    row[m] += positive_part(v - dm);
  }
  return i;
}

std::size_t shift_clipped_bid_ball(double* __restrict row,
                                   const double* __restrict dist_row,
                                   const std::uint16_t* ball, double v_old,
                                   double v_new, std::size_t n) {
  // fmax drops a NaN operand, whose clipped bid is 0 at every point.
  const double reach = std::fmax(v_old, v_new);
  std::size_t i = 0;
  for (; i < n; ++i) {
    const std::size_t m = ball[i];
    const double dm = dist_row[m];
    if (!(dm < reach)) break;
    row[m] -= positive_part(v_old - dm) - positive_part(v_new - dm);
  }
  return i;
}

RowEvent min_tightness_over_ball(const double* dist_row,
                                 const std::uint16_t* ball,
                                 const double* cost_row,
                                 const double* bids_row, double raised,
                                 double divisor, std::size_t n) {
  if (!(divisor > 0.0)) return RowEvent{};
  // The divisor-1 branch skips the division like min_tightness_span;
  // x / 1.0 == x, so either branch computes the same bits.
  const bool unit = divisor == 1.0;
  RowEvent best;
  std::size_t i = 0;
  for (; i < n; ++i) {
    const std::size_t m = ball[i];
    const double dm = dist_row[m];
    const double floor = positive_part_nanprop(dm - raised);
    if ((unit ? floor : floor / divisor) > best.delta) break;
    const double lifted = positive_part_nanprop(
        dm + positive_part_nanprop(cost_row[m] - bids_row[m]) - raised);
    const double delta = unit ? lifted : lifted / divisor;
    // An infinite delta is no event (the full scan's strict < never
    // takes one), so only finite ties move the index.
    if (delta < best.delta ||
        (delta == best.delta && m < best.index &&
         delta < std::numeric_limits<double>::infinity())) {
      best.delta = delta;
      best.index = m;
    }
  }
  best.visited = i;
  return best;
}

}  // namespace omflp::kernel
