// RAND-OMFLP — the paper's randomized algorithm (Algorithm 2, Section 4),
// O(√|S|·log n/log log n)-competitive in expectation.
//
// Meyerson-style: opening costs per configuration are rounded down to
// powers of two ("cost classes", see cost/cost_classes.hpp). When request
// r with demand s_r arrives, the algorithm computes
//   X(r,e) = min{ d(F(e),r), min_i { C^{e}_i + d(C^{e}_i, r) } }
//   X(r)   = Σ_{e∈s_r} X(r,e)
//   Z(r)   = min{ d(F̂,r),  min_i { C^{S}_i + d(C^{S}_i, r) } }
// (the cheapest all-small respectively single-large way to serve r), and
// flips one coin per (configuration, class):
//   small {e}, class i:  Pr = (D^e_{i−1} − D^e_i)/C^{e}_i · X(r,e)/X(r)
//   large  S,  class i:  Pr = (D^S_{i−1} − D^S_i)/C^{S}_i
// building the facility at the nearest point of class ≤ i on success.
//
// Interpretation note (documented deviation): the class distances that
// enter the probabilities are capped at the request's budget,
//   D_i := min( min{Z(r),X(r)}, d(C_i, r) ),  D_0 := min{Z(r),X(r)},
// following the paper's "portion proportional to the improvement for r"
// and Meyerson's original charging scheme. With the cap, the expected
// construction cost charged per request telescopes to at most
// min{Z(r),X(r)} = expected assignment cost — exactly the balance
// Lemma 20 claims. Reading d(C_i, r) as the raw site distance instead
// would flip class-i coins with a state-independent probability on every
// request and over-build without bound on non-uniform instances.
//
// Completion rule (documented deviation): coin flips alone cannot
// guarantee coverage (the very first request might lose every flip), so
// after the draws any still-uncoverable commodity is served by
// deterministically opening the cheapest covering option (the argmin of
// the X / Z expressions, whichever side is cheaper). This is the standard
// de-randomized completion; it only reduces cost relative to re-flipping.
//
// Finally r connects to whichever is cheaper *after* the builds: the
// per-commodity nearest facilities (Σ_e d(F(e),r), shared facilities
// deduplicated by the ledger) or the single nearest large facility.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "cost/cost_classes.hpp"
#include "instance/checkpoint_io.hpp"
#include "metric/distance_oracle.hpp"
#include "support/rng.hpp"

namespace omflp {

struct RandOptions {
  std::uint64_t seed = 1;
  /// Record per-request accounting (expected vs realized costs) for the
  /// Lemma 20 balance tests.
  bool record_accounting = false;
};

/// Per-request accounting exported for analysis when record_accounting.
struct RandAccounting {
  double budget = 0.0;         // min{X(r), Z(r)}
  double x_total = 0.0;        // X(r)
  double z_total = 0.0;        // Z(r)
  double expected_small = 0.0; // Σ p_i · C_i over small coins
  double expected_large = 0.0; // Σ p_i · C_i over large coins
  double realized_open = 0.0;  // opening cost actually paid this request
  double realized_connect = 0.0;
  bool completion_used = false;
};

class RandOmflp final : public OnlineAlgorithm {
 public:
  explicit RandOmflp(RandOptions options = {});

  std::string name() const override;
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  // Deletion policy on dynamic streams: frozen (the inherited no-op
  // depart). RAND-OMFLP keeps no per-request potentials — its state is
  // the opened facilities and the cost classes, both of which survive a
  // departure unchanged — so ledger-level active-interval re-accounting
  // is the whole policy.

  const std::vector<RandAccounting>& accounting() const noexcept {
    return accounting_;
  }

  /// Checkpoint: the opened facilities plus the full RNG state, so the
  /// restored coin-flip sequence continues bitwise. The class indexes
  /// are pure functions of the cost model and rebuilt lazily; the
  /// accounting log is serialized only when record_accounting is on.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  RandOptions options_;
  Rng rng_;
  CostModelPtr cost_;
  MetricPtr metric_;
  std::shared_ptr<const DistanceOracle> dist_;
  CommodityId num_commodities_ = 0;
  std::size_t num_points_ = 0;

  std::vector<std::vector<OpenRecord>> offering_;  // per commodity
  std::vector<OpenRecord> larges_;

  /// Lazily-built class indexes: index 0..|S|-1 for singletons, the last
  /// slot for the full configuration S.
  std::vector<std::unique_ptr<CostClassIndex>> class_index_;
  const CostClassIndex& singleton_classes(CommodityId e);
  const CostClassIndex& full_classes();

  std::vector<RandAccounting> accounting_;

  std::pair<double, FacilityId> nearest_offering(CommodityId e,
                                                 PointId p) const;
  std::pair<double, FacilityId> nearest_large(PointId p) const;

  /// `coin_p` is the Bernoulli probability that opened the facility (1.0
  /// on the deterministic completion path); it lands in the trace event's
  /// tightness field.
  FacilityId open_small(PointId m, CommodityId e, SolutionLedger& ledger,
                        double coin_p);
  FacilityId open_large(PointId m, SolutionLedger& ledger, double coin_p);
};

}  // namespace omflp
