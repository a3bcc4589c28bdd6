// MeyersonOfl — Meyerson's randomized algorithm for classic
// (single-commodity) Online Facility Location [Meyerson, FOCS 2001],
// O(log n/log log n)-competitive in expectation, with power-of-two cost
// classes for non-uniform opening costs.
//
// This is RAND-OMFLP restricted to |S| = 1 (the small and large sides
// coincide), implemented independently for cross-checking, and the
// building block of the per-commodity randomized baseline.
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
  explicit MeyersonOfl(std::uint64_t seed = 1) : seed_(seed), rng_(seed) {}

  std::string name() const override { return "Meyerson-OFL"; }

  /// Requires |S| == 1; wrap in PerCommodityAdapter otherwise.
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  // Deletion policy: frozen (inherited no-op depart) — Meyerson's
  // algorithm is memoryless beyond its opened facilities.

  /// Checkpoint: the opened facilities plus the full RNG state, so the
  /// restored coin-flip sequence continues bitwise (the class index is
  /// rebuilt deterministically by reset()).
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  std::uint64_t seed_;
  Rng rng_;
  CostModelPtr cost_;
  /// Shared with classes_ so both sweep the same distance rows.
  std::shared_ptr<const DistanceOracle> dist_;
  std::unique_ptr<CostClassIndex> classes_;

  NearestFacilityRow facilities_;
};

}  // namespace omflp
