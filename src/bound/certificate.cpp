#include "bound/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <vector>

#include "perf/perf_counters.hpp"
#include "support/assert.hpp"

namespace omflp {

namespace {

/// Relative tolerance: a constraint lhs ≤ rhs is accepted when
/// lhs ≤ rhs + kTolerance·max(1, |rhs|); equalities analogously.
constexpr double kTolerance = 1e-9;

/// The exhaustive path runs when 2^|S| · n · |M| fits this work budget
/// (and |S| ≤ 40); beyond it the structured sufficient conditions do.
constexpr std::uint64_t kMaxExhaustiveWork = std::uint64_t{1} << 27;

/// lhs ≤ rhs up to the relative tolerance.
bool tol_leq(double lhs, double rhs, double tol) {
  return lhs <= rhs + tol * std::max(1.0, std::abs(rhs));
}

/// a == b up to the relative tolerance.
bool tol_eq(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

std::string describe(const char* what, PointId m, double lhs, double rhs) {
  std::ostringstream os;
  os.precision(17);
  os << what << " at point " << m << ": lhs " << lhs << " > rhs " << rhs;
  return os.str();
}

CommoditySet set_from_mask(CommodityId universe, std::uint64_t mask) {
  CommoditySet s(universe);
  while (mask) {
    const int bit = __builtin_ctzll(mask);
    s.add(static_cast<CommodityId>(bit));
    mask &= mask - 1;
  }
  return s;
}

/// Per-request data the checker derives once: location, demanded
/// commodities (ascending, aligned with the certificate's dual rows) and
/// the dual sum A_r.
struct CheckedRequest {
  PointId location = 0;
  std::vector<CommodityId> commodities;
  double dual_sum = 0.0;
};

/// Exhaustive path: constraint (D) for every configuration σ ⊆ S at every
/// point. Requires |S| ≤ 63 (configurations as bitmasks).
std::optional<std::string> check_exhaustive(
    const Instance& instance, const DualCertificate& cert,
    const std::vector<CheckedRequest>& reqs, double tol) {
  const std::size_t n = reqs.size();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = cert.num_commodities;

  std::vector<std::uint64_t> masks(n, 0);
  for (std::size_t r = 0; r < n; ++r)
    for (CommodityId e : reqs[r].commodities)
      masks[r] |= std::uint64_t{1} << e;

  // Distances d(m, r), n per point; recomputed from the metric directly
  // (no DistanceOracle — the checker shares nothing with the bounder).
  std::vector<double> dist(n * points);
  for (std::size_t r = 0; r < n; ++r)
    for (PointId m = 0; m < points; ++m)
      dist[r * points + m] =
          instance.metric().distance(reqs[r].location, m);
  OMFLP_PERF_ADD(distance_lookups, n * points);

  const std::uint64_t num_configs = std::uint64_t{1} << s;
  for (std::uint64_t mask = 1; mask < num_configs; ++mask) {
    const CommoditySet config = set_from_mask(s, mask);
    for (PointId m = 0; m < points; ++m) {
      double lhs = 0.0;
      for (std::size_t r = 0; r < n; ++r) {
        std::uint64_t inter = mask & masks[r];
        if (!inter) continue;
        double sum = 0.0;
        while (inter) {
          const int bit = __builtin_ctzll(inter);
          // Index of commodity `bit` within s_r = number of demanded
          // commodities below it (dual rows are in ascending order).
          const std::uint64_t below =
              masks[r] & ((std::uint64_t{1} << bit) - 1);
          sum += cert.duals[r][static_cast<std::size_t>(
              __builtin_popcountll(below))];
          inter &= inter - 1;
        }
        const double clipped = sum - dist[r * points + m];
        if (clipped > 0.0) lhs += clipped;
      }
      const double rhs = instance.cost().open_cost(m, config);
      OMFLP_PERF_ADD(verifier_checks, 1);
      if (!tol_leq(lhs, rhs, tol))
        return describe(
            ("dual constraint violated for config " + config.to_string())
                .c_str(),
            m, lhs, rhs);
    }
  }
  return std::nullopt;
}

/// Structured path: the split decomposition P_m(e) (see header) checked
/// against spot-verified additive or size-only cost structure.
std::optional<std::string> check_structured(
    const Instance& instance, const DualCertificate& cert,
    const std::vector<CheckedRequest>& reqs, double tol) {
  const std::size_t n = reqs.size();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = cert.num_commodities;
  const FacilityCostModel& cost = instance.cost();

  // Demanded commodities and, per commodity, the requests demanding it
  // (with their dual value and split divisor |s_r|).
  std::vector<std::vector<std::pair<std::size_t, double>>> by_commodity(s);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < reqs[r].commodities.size(); ++i)
      by_commodity[reqs[r].commodities[i]].push_back({r, cert.duals[r][i]});

  // P[m] per demanded commodity, computed one commodity at a time (O(|M|)
  // transient memory). The split uses u_{r,e} = 1/|s_r|.
  std::vector<std::vector<double>> profile;  // indexed by demanded slot
  std::vector<CommodityId> demanded;
  for (CommodityId e = 0; e < s; ++e) {
    if (by_commodity[e].empty()) continue;
    std::vector<double> p(points, 0.0);
    for (const auto& [r, dual] : by_commodity[e]) {
      const double inv_k =
          1.0 / static_cast<double>(reqs[r].commodities.size());
      for (PointId m = 0; m < points; ++m) {
        const double scaled =
            instance.metric().distance(reqs[r].location, m) * inv_k;
        const double clipped = dual - scaled;
        if (clipped > 0.0) p[m] += clipped;
      }
      OMFLP_PERF_ADD(distance_lookups, points);
    }
    profile.push_back(std::move(p));
    demanded.push_back(e);
  }

  const CommoditySet full = CommoditySet::full_set(s);
  for (PointId m = 0; m < points; ++m) {
    // Path A: additive costs f^σ_m = Σ_{e∈σ} w_e(m).
    if (const auto weights = cost.additive_weights(m)) {
      if (weights->size() != s)
        return "additive_weights reports the wrong universe size";
      // Spot-check the additivity claim on concrete configurations:
      // every singleton, the full set, and a half prefix.
      double total = 0.0;
      for (CommodityId e = 0; e < s; ++e) {
        const double w = (*weights)[e];
        if (!(w >= 0.0)) return "additive_weights reports a negative weight";
        total += w;
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_eq(cost.singleton_cost(m, e), w, tol))
          return describe("additive_weights disagrees with singleton cost",
                          m, cost.singleton_cost(m, e), w);
      }
      if (!tol_eq(cost.open_cost(m, full), total, tol))
        return describe("additive_weights disagrees with full cost", m,
                        cost.open_cost(m, full), total);
      CommoditySet prefix(s);
      double prefix_total = 0.0;
      for (CommodityId e = 0; e < (s + 1) / 2; ++e) {
        prefix.add(e);
        prefix_total += (*weights)[e];
      }
      if (!prefix.empty() &&
          !tol_eq(cost.open_cost(m, prefix), prefix_total, tol))
        return describe("additive_weights disagrees with prefix cost", m,
                        cost.open_cost(m, prefix), prefix_total);

      for (std::size_t i = 0; i < demanded.size(); ++i) {
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_leq(profile[i][m], (*weights)[demanded[i]], tol))
          return describe("commodity budget exceeded", m, profile[i][m],
                          (*weights)[demanded[i]]);
      }
      continue;
    }

    // Path B: size-only costs g_m(k).
    if (cost.cost_by_size(m, 1).has_value()) {
      std::vector<double> g(static_cast<std::size_t>(s) + 1, 0.0);
      for (CommodityId k = 1; k <= s; ++k) {
        const auto gk = cost.cost_by_size(m, k);
        if (!gk || !(*gk >= 0.0))
          return "cost_by_size is partial or negative";
        g[k] = *gk;
      }
      // Spot-check the size-only claim against open_cost on prefixes.
      for (CommodityId k : {CommodityId{1}, static_cast<CommodityId>(s / 2),
                            s}) {
        if (k == 0) continue;
        CommoditySet prefix(s);
        for (CommodityId e = 0; e < k; ++e) prefix.add(e);
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_eq(cost.open_cost(m, prefix), g[k], tol))
          return describe("cost_by_size disagrees with open_cost", m,
                          cost.open_cost(m, prefix), g[k]);
      }
      // Suffix minimum: a configuration of size k ≥ j containing only j
      // demanded commodities still has rhs f = g(k), so the top-j profile
      // sum must clear min over k ≥ j (guards non-monotone g).
      std::vector<double> suffix_min(g.size(), 0.0);
      double running = std::numeric_limits<double>::infinity();
      for (std::size_t k = g.size() - 1; k >= 1; --k) {
        running = std::min(running, g[k]);
        suffix_min[k] = running;
      }
      std::vector<double> values;
      values.reserve(demanded.size());
      for (std::size_t i = 0; i < demanded.size(); ++i)
        values.push_back(profile[i][m]);
      std::sort(values.begin(), values.end(), std::greater<double>());
      double top_sum = 0.0;
      for (std::size_t j = 1; j <= values.size(); ++j) {
        top_sum += values[j - 1];
        OMFLP_PERF_ADD(verifier_checks, 1);
        if (!tol_leq(top_sum, suffix_min[j], tol))
          return describe("size-only budget exceeded", m, top_sum,
                          suffix_min[j]);
      }
      continue;
    }

    return "cost model is neither additive nor size-only and the universe "
           "is too large for exhaustive verification; certificate cannot "
           "be verified";
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> verify_certificate(const Instance& instance,
                                              const DualCertificate& cert) {
  const double tol = kTolerance;
  const std::size_t n = instance.num_requests();
  const std::size_t points = instance.metric().num_points();
  const CommodityId s = instance.num_commodities();

  // ---- structural checks ---------------------------------------------------
  if (cert.num_requests != n) return "certificate request count mismatch";
  if (cert.num_commodities != s)
    return "certificate commodity universe mismatch";
  if (cert.num_points != points) return "certificate point count mismatch";
  if (cert.duals.size() != n) return "certificate dual row count mismatch";
  if (cert.facility_slack.size() != points)
    return "certificate slack vector length mismatch";
  if (!std::isfinite(cert.objective)) return "certificate objective not finite";

  const double dual_floor = -tol * std::max(1.0, std::abs(cert.objective));
  std::vector<CheckedRequest> reqs(n);
  double objective = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const Request& request = instance.request(static_cast<RequestId>(r));
    reqs[r].location = request.location;
    reqs[r].commodities = request.commodities.to_vector();
    if (cert.duals[r].size() != reqs[r].commodities.size())
      return "dual row length does not match the request's demand set";
    for (double a : cert.duals[r]) {
      if (!std::isfinite(a)) return "non-finite dual value";
      if (a < dual_floor) return "negative dual value";
      reqs[r].dual_sum += a;
    }
    objective += reqs[r].dual_sum;
  }
  if (!tol_eq(objective, cert.objective, tol))
    return "certificate objective does not equal the dual sum";

  // ---- dual feasibility ----------------------------------------------------
  bool exhaustive = false;
  if (s <= 40) {
    const std::uint64_t configs = std::uint64_t{1} << s;
    const std::uint64_t per_config =
        static_cast<std::uint64_t>(std::max<std::size_t>(n, 1)) *
        static_cast<std::uint64_t>(points);
    exhaustive = configs <= kMaxExhaustiveWork / per_config;
  }
  if (auto violation = exhaustive
                           ? check_exhaustive(instance, cert, reqs, tol)
                           : check_structured(instance, cert, reqs, tol))
    return violation;

  // ---- slack audit ---------------------------------------------------------
  // Recompute the canonical per-point slack (singleton constraints over
  // demanded commodities plus the full-configuration constraint) and
  // require it to match the stored vector: tampering with either side is
  // caught here even when the tampered value stays feasible.
  std::vector<double> slack(points,
                            std::numeric_limits<double>::infinity());
  std::vector<double> row(points);
  std::vector<std::vector<std::pair<std::size_t, double>>> by_commodity(s);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t i = 0; i < reqs[r].commodities.size(); ++i)
      by_commodity[reqs[r].commodities[i]].push_back({r, cert.duals[r][i]});
  for (CommodityId e = 0; e < s; ++e) {
    if (by_commodity[e].empty()) continue;
    std::fill(row.begin(), row.end(), 0.0);
    for (const auto& [r, dual] : by_commodity[e]) {
      for (PointId m = 0; m < points; ++m) {
        const double clipped =
            dual - instance.metric().distance(reqs[r].location, m);
        if (clipped > 0.0) row[m] += clipped;
      }
      OMFLP_PERF_ADD(distance_lookups, points);
    }
    for (PointId m = 0; m < points; ++m)
      slack[m] =
          std::min(slack[m], instance.cost().singleton_cost(m, e) - row[m]);
  }
  std::fill(row.begin(), row.end(), 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (PointId m = 0; m < points; ++m) {
      const double clipped =
          reqs[r].dual_sum -
          instance.metric().distance(reqs[r].location, m);
      if (clipped > 0.0) row[m] += clipped;
    }
    OMFLP_PERF_ADD(distance_lookups, points);
  }
  for (PointId m = 0; m < points; ++m) {
    slack[m] = std::min(slack[m], instance.cost().full_cost(m) - row[m]);
    OMFLP_PERF_ADD(verifier_checks, 1);
    if (slack[m] < -tol * std::max(1.0, std::abs(slack[m])))
      return describe("negative audited slack", m, -slack[m], 0.0);
    if (!tol_eq(slack[m], cert.facility_slack[m], tol))
      return describe("stored facility slack disagrees with recomputation",
                      m, cert.facility_slack[m], slack[m]);
  }

  return std::nullopt;
}

}  // namespace omflp
