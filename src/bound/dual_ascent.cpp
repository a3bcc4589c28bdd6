#include "bound/dual_ascent.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "kernel/kernels.hpp"
#include "metric/distance_oracle.hpp"
#include "obs/trace_sink.hpp"
#include "perf/perf_counters.hpp"
#include "support/assert.hpp"
#include "support/parallel.hpp"

namespace omflp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

CommoditySet set_from_mask(CommodityId universe, std::uint64_t mask) {
  CommoditySet s(universe);
  while (mask) {
    const int bit = __builtin_ctzll(mask);
    s.add(static_cast<CommodityId>(bit));
    mask &= mask - 1;
  }
  return s;
}

std::vector<double> budgets_at(const FacilityCostModel& cost, PointId m,
                               CommodityId max_exhaustive) {
  const CommodityId s = cost.num_commodities();

  if (const auto weights = cost.additive_weights(m)) {
    if (weights->size() != s)
      throw BoundUnsupportedError(
          "dual_ascent: additive_weights reports the wrong universe size");
    for (double w : *weights)
      if (!(w >= 0.0) || !std::isfinite(w))
        throw BoundUnsupportedError(
            "dual_ascent: additive_weights reports a non-finite or "
            "negative weight");
    return *weights;
  }

  if (cost.cost_by_size(m, 1).has_value()) {
    // Each commodity of a size-k configuration can be charged g(k)/k, so
    // the safe per-commodity budget is the minimum of that over k.
    double best = kInf;
    for (CommodityId k = 1; k <= s; ++k) {
      const auto g = cost.cost_by_size(m, k);
      if (!g || !(*g >= 0.0) || !std::isfinite(*g))
        throw BoundUnsupportedError(
            "dual_ascent: cost_by_size is partial or non-finite");
      best = std::min(best, *g / static_cast<double>(k));
    }
    return std::vector<double>(s, best);
  }

  if (s <= max_exhaustive && s < 30) {
    std::vector<double> w(s, kInf);
    const std::uint64_t num_configs = std::uint64_t{1} << s;
    for (std::uint64_t mask = 1; mask < num_configs; ++mask) {
      const double c = cost.open_cost(m, set_from_mask(s, mask));
      if (!(c >= 0.0) || !std::isfinite(c))
        throw BoundUnsupportedError(
            "dual_ascent: open_cost is non-finite or negative");
      const double share =
          c / static_cast<double>(__builtin_popcountll(mask));
      std::uint64_t bits = mask;
      while (bits) {
        const int e = __builtin_ctzll(bits);
        w[static_cast<std::size_t>(e)] =
            std::min(w[static_cast<std::size_t>(e)], share);
        bits &= bits - 1;
      }
    }
    return w;
  }

  throw BoundUnsupportedError(
      "dual_ascent: cost model is neither additive nor size-only and the "
      "commodity universe is too large to enumerate configurations");
}

/// One (request id, dual slot within the request's demand set) pair of a
/// commodity's request list.
struct DemandRef {
  std::uint32_t request = 0;
  std::uint32_t slot = 0;
};

struct AscentOutcome {
  std::vector<double> freeze;  // per local request, the final dual value
  double objective = 0.0;
  std::size_t tight = 0;
};

/// The per-commodity synchronous ascent. Strictly sequential — the
/// result is a pure function of the inputs, independent of thread count.
AscentOutcome run_commodity_ascent(
    const std::vector<DemandRef>& members,
    const std::vector<const double*>& request_row,
    const std::vector<double>& inv_k, const std::vector<double>& budget,
    std::size_t num_points, std::vector<double>& scratch_scaled,
    const std::vector<double>& zeros) {
  const std::size_t ne = members.size();
  AscentOutcome out;
  out.freeze.assign(ne, 0.0);

  // Fast path: a lone request freezes at the earliest budget exhaustion
  // over all facilities, min_m (d̃(m,r) + w(m)) — exactly the
  // min-tightness kernel with zero archived bids and zero raised amount.
  if (ne == 1) {
    const double* row = request_row[members[0].request];
    const double inv = inv_k[members[0].request];
    for (std::size_t m = 0; m < num_points; ++m)
      scratch_scaled[m] = row[m] * inv;
    const kernel::RowEvent event = kernel::min_tightness_over_row(
        scratch_scaled.data(), budget.data(), zeros.data(), /*raised=*/0.0,
        /*divisor=*/1.0, num_points);
    out.freeze[0] = event.delta;
    out.objective = event.delta;
    out.tight = 1;
    return out;
  }

  // Reach lists: per facility, (d̃, local request) ascending.
  std::vector<std::vector<std::pair<double, std::uint32_t>>> reach(
      num_points);
  for (auto& lst : reach) lst.reserve(ne);
  for (std::uint32_t j = 0; j < ne; ++j) {
    const double* row = request_row[members[j].request];
    const double inv = inv_k[members[j].request];
    for (std::size_t m = 0; m < num_points; ++m)
      reach[m].push_back({row[m] * inv, j});
  }
  for (auto& lst : reach) std::sort(lst.begin(), lst.end());

  struct Fac {
    double load = 0.0;
    double slope = 0.0;
    double last_t = 0.0;
    std::uint64_t gen = 0;
    std::uint32_t cursor = 0;
    bool tight = false;
  };
  std::vector<Fac> fac(num_points);
  std::vector<char> active(ne, 1);
  std::vector<char> counted(ne * num_points, 0);
  std::size_t active_count = ne;

  // (time, facility, generation); min on (time, facility) so simultaneous
  // events resolve in point order for any history. Stale generations are
  // discarded lazily on pop.
  using Event = std::tuple<double, std::uint32_t, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> pq;

  const auto schedule = [&](std::uint32_t m) {
    Fac& f = fac[m];
    auto& lst = reach[m];
    while (f.cursor < lst.size() && !active[lst[f.cursor].second])
      ++f.cursor;
    const double reach_t =
        f.cursor < lst.size() ? lst[f.cursor].first : kInf;
    double tight_t = kInf;
    if (!f.tight && f.slope > 0.0)
      tight_t =
          std::max(f.last_t, f.last_t + (budget[m] - f.load) / f.slope);
    const double t = std::min(reach_t, tight_t);
    if (t < kInf) pq.push({t, m, f.gen});
  };

  const auto freeze_one = [&](std::uint32_t j, double t) {
    active[j] = 0;
    out.freeze[j] = t;
    --active_count;
    const char* counted_row = counted.data() + std::size_t{j} * num_points;
    for (std::uint32_t m = 0; m < num_points; ++m) {
      if (!counted_row[m]) continue;
      counted[std::size_t{j} * num_points + m] = 0;
      Fac& f = fac[m];
      if (f.tight) continue;
      f.load += f.slope * (t - f.last_t);
      f.last_t = t;
      f.slope -= 1.0;
      ++f.gen;
      schedule(m);
    }
  };

  for (std::uint32_t m = 0; m < num_points; ++m) schedule(m);

  while (active_count > 0) {
    OMFLP_REQUIRE(!pq.empty(),
                  "dual_ascent: event queue exhausted with active duals");
    const auto [t, m, gen] = pq.top();
    pq.pop();
    Fac& f = fac[m];
    if (gen != f.gen) continue;
    ++f.gen;  // invalidate any other pending event for m

    if (!f.tight) {
      f.load += f.slope * (t - f.last_t);
      f.last_t = t;
    }

    auto& lst = reach[m];
    while (f.cursor < lst.size() && lst[f.cursor].first <= t) {
      const std::uint32_t j = lst[f.cursor].second;
      ++f.cursor;
      if (!active[j]) continue;
      if (f.tight) {
        // Reaching an exhausted facility caps the dual on contact.
        freeze_one(j, t);
      } else {
        f.slope += 1.0;
        counted[std::size_t{j} * num_points + m] = 1;
      }
    }

    if (!f.tight && f.slope > 0.0) {
      // Freeze marginally early rather than marginally late: an early
      // freeze only shrinks the bound, never the feasible region.
      const double eps = 1e-12 * std::max(1.0, budget[m]);
      if (f.load >= budget[m] - eps) {
        f.tight = true;
        ++out.tight;
        for (std::uint32_t i = 0; i < f.cursor; ++i) {
          const std::uint32_t j = lst[i].second;
          if (active[j]) freeze_one(j, t);
        }
      }
    }

    schedule(m);
  }

  for (std::uint32_t j = 0; j < ne; ++j) out.objective += out.freeze[j];
  return out;
}

}  // namespace

std::vector<double> commodity_budgets(const FacilityCostModel& cost,
                                      PointId m,
                                      const DualAscentOptions& options) {
  return budgets_at(cost, m, options.max_exhaustive_commodities);
}

DualAscentResult dual_ascent_lower_bound(const Instance& instance,
                                         const DualAscentOptions& options) {
  const std::size_t n = instance.num_requests();
  OMFLP_REQUIRE(n > 0, "dual_ascent: empty instance");
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = instance.num_commodities();

  // Distance rows per *distinct* request location (requests cluster on
  // few points in most scenarios), copied out of the metric's shared
  // table so worker threads only touch plain read-only memory.
  const DistanceOracle& table = instance.metric().distances();
  std::vector<std::uint32_t> slot_of_point(points, ~std::uint32_t{0});
  std::vector<const double*> request_row(n, nullptr);
  std::vector<double> rows;
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const PointId loc = instance.request(static_cast<RequestId>(r)).location;
    OMFLP_REQUIRE(loc < points, "dual_ascent: request outside the metric");
    if (slot_of_point[loc] == ~std::uint32_t{0}) {
      slot_of_point[loc] = static_cast<std::uint32_t>(distinct++);
      rows.resize(distinct * points);
      const double* src = table.row(loc);
      std::copy(src, src + points,
                rows.begin() + static_cast<std::ptrdiff_t>(
                                   (distinct - 1) * points));
      OMFLP_PERF_ADD(distance_lookups, points);
    }
  }
  for (std::size_t r = 0; r < n; ++r)
    request_row[r] =
        rows.data() +
        std::size_t{slot_of_point[instance.request(static_cast<RequestId>(r))
                                      .location]} *
            points;

  // Demand bookkeeping: per request the split divisor, per commodity the
  // (request, dual slot) membership list.
  std::vector<double> inv_k(n, 0.0);
  std::vector<std::vector<DemandRef>> members(s);
  for (std::size_t r = 0; r < n; ++r) {
    const Request& request = instance.request(static_cast<RequestId>(r));
    const CommodityId k = request.commodities.count();
    OMFLP_REQUIRE(k > 0, "dual_ascent: empty demand set");
    inv_k[r] = 1.0 / static_cast<double>(k);
    std::uint32_t slot = 0;
    request.commodities.for_each([&](CommodityId e) {
      members[e].push_back({static_cast<std::uint32_t>(r), slot++});
    });
  }
  std::vector<CommodityId> demanded;
  std::uint64_t total_duals = 0;
  for (CommodityId e = 0; e < s; ++e)
    if (!members[e].empty()) {
      demanded.push_back(e);
      total_duals += members[e].size();
    }

  // Largest commodity's (requests × points) footprint gates the event
  // machinery (reach lists + counted bits per facility).
  std::size_t max_ne = 0;
  for (CommodityId e : demanded) max_ne = std::max(max_ne, members[e].size());
  if (max_ne * points > (std::size_t{1} << 24))
    throw BoundUnsupportedError(
        "dual_ascent: instance too large (requests × points); bound it "
        "through windows or chunks instead");

  // Per-commodity budgets w_e(m). Location-invariant models need one
  // derivation; otherwise one per point.
  const bool invariant = instance.cost().location_invariant();
  std::vector<double> budget_at_origin;
  std::vector<double> budget_matrix;  // demanded-major, per point
  if (invariant) {
    budget_at_origin =
        budgets_at(instance.cost(), 0, options.max_exhaustive_commodities);
  } else {
    budget_matrix.resize(demanded.size() * points);
    for (PointId m = 0; m < points; ++m) {
      const std::vector<double> w =
          budgets_at(instance.cost(), m, options.max_exhaustive_commodities);
      for (std::size_t i = 0; i < demanded.size(); ++i)
        budget_matrix[i * points + m] = w[demanded[i]];
    }
  }

  // Across-commodity fan-out into pre-sized slots merged in commodity
  // order — bitwise deterministic for every thread count, because each
  // slot's ascent is sequential.
  std::vector<AscentOutcome> outcomes(demanded.size());
  const std::vector<double> zeros(points, 0.0);
  parallel_for(
      demanded.size(),
      [&](std::size_t i) {
        std::vector<double> budget(points);
        if (invariant)
          std::fill(budget.begin(), budget.end(),
                    budget_at_origin[demanded[i]]);
        else
          std::copy(budget_matrix.begin() +
                        static_cast<std::ptrdiff_t>(i * points),
                    budget_matrix.begin() +
                        static_cast<std::ptrdiff_t>((i + 1) * points),
                    budget.begin());
        std::vector<double> scratch(points);
        outcomes[i] = run_commodity_ascent(members[demanded[i]], request_row,
                                           inv_k, budget, points, scratch,
                                           zeros);
      },
      options.threads);

  // Assemble the certificate.
  DualAscentResult result;
  DualCertificate& cert = result.certificate;
  cert.num_requests = n;
  cert.num_commodities = s;
  cert.num_points = points;
  cert.method = "dual-ascent";
  cert.duals.resize(n);
  for (std::size_t r = 0; r < n; ++r)
    cert.duals[r].assign(
        instance.request(static_cast<RequestId>(r)).commodities.count(),
        0.0);
  double objective = 0.0;
  for (std::size_t i = 0; i < demanded.size(); ++i) {
    const auto& refs = members[demanded[i]];
    for (std::size_t j = 0; j < refs.size(); ++j)
      cert.duals[refs[j].request][refs[j].slot] = outcomes[i].freeze[j];
    objective += outcomes[i].objective;
    result.tight_facilities += outcomes[i].tight;
    // Emitted here, in commodity order after the parallel ascent, so the
    // trace is independent of the thread count. One aggregate raise per
    // commodity: config_size carries the dual count, cost the frozen sum.
    if (obs::tracing()) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kDualRaise;
      ev.request = kInvalidRequest;
      ev.commodity = demanded[i];
      ev.config_size = refs.size();
      ev.cost = outcomes[i].objective;
      obs::emit(ev);
    }
  }
  cert.objective = objective;
  result.lower_bound = objective;
  result.duals_raised = total_duals;
  OMFLP_PERF_ADD(duals_raised, total_duals);

  // Audit slack (the canonical vector of bound/certificate.hpp),
  // assembled with the bid-plane kernels: each (commodity, request) pair
  // is one clipped-bid row accumulation.
  std::vector<double> slack(points, kInf);
  std::vector<double> row(points);
  for (std::size_t i = 0; i < demanded.size(); ++i) {
    const CommodityId e = demanded[i];
    std::fill(row.begin(), row.end(), 0.0);
    for (std::size_t j = 0; j < members[e].size(); ++j) {
      kernel::accumulate_clipped_bid(row.data(),
                                     request_row[members[e][j].request],
                                     outcomes[i].freeze[j], points);
      OMFLP_PERF_ADD(bids_updated, points);
    }
    for (PointId m = 0; m < points; ++m)
      slack[m] =
          std::min(slack[m], instance.cost().singleton_cost(m, e) - row[m]);
  }
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    double dual_sum = 0.0;
    for (double a : cert.duals[r]) dual_sum += a;
    kernel::accumulate_clipped_bid(row.data(), request_row[r], dual_sum,
                                   points);
    OMFLP_PERF_ADD(bids_updated, points);
  }
  for (PointId m = 0; m < points; ++m)
    slack[m] = std::min(slack[m], instance.cost().full_cost(m) - row[m]);
  cert.facility_slack = slack;
  result.min_slack_point =
      static_cast<PointId>(kernel::argmin_over_row(slack.data(), points));

  return result;
}

}  // namespace omflp
