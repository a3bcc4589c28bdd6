// MeyersonOfl — Meyerson's randomized algorithm for classic
// (single-commodity) Online Facility Location [Meyerson, FOCS 2001],
// O(log n/log log n)-competitive in expectation, with power-of-two cost
// classes for non-uniform opening costs, run once per commodity: the
// randomized counterpart of the per-commodity baseline (FotakisOfl).
//
// Every commodity e is an independent OFL instance with opening costs
// f^{{e}}_m, its own coin stream (seeded from the algorithm's seed and e)
// and its own singleton-{e} facilities, created on e's first demand. A
// request is served commodity by commodity in ascending order. One
// commodity's instance is RAND-OMFLP restricted to |S| = 1 (the small and
// large sides coincide), implemented independently for cross-checking.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/nearest_facility.hpp"
#include "core/online_algorithm.hpp"
#include "cost/cost_classes.hpp"
#include "instance/checkpoint_io.hpp"
#include "metric/distance_oracle.hpp"
#include "support/rng.hpp"

namespace omflp {

class MeyersonOfl final : public OnlineAlgorithm {
 public:
  explicit MeyersonOfl(std::uint64_t seed = 1) : seed_(seed) {}

  std::string name() const override { return "PerCommodity[Meyerson]"; }

  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  // Deletion policy: frozen (inherited no-op depart) — Meyerson's
  // algorithm is memoryless beyond its opened facilities.

  /// Checkpoint: per started commodity, its full RNG state, so the
  /// restored coin-flip sequence continues bitwise, and its opened
  /// facilities (the class index is rebuilt deterministically).
  /// restore_state also reads the per-commodity sub-instance layout
  /// (baseline/sub_instance_layout.hpp).
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  /// One commodity's OFL instance.
  struct CommodityState {
    bool started = false;
    Rng rng;
    std::unique_ptr<CostClassIndex> classes;
    NearestFacilityRow facilities;
  };

  CommodityState& start(CommodityId e);

  std::uint64_t seed_;
  MetricPtr metric_;
  CostModelPtr cost_;
  /// Shared with every class index so all sweep the same distance rows.
  std::shared_ptr<const DistanceOracle> dist_;
  std::vector<CommodityState> commodities_;
};

}  // namespace omflp
