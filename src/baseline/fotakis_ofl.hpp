// FotakisOfl — Fotakis' deterministic primal–dual algorithm for classic
// (single-commodity) Online Facility Location [Fotakis, JDA 2007], in the
// potential-based formulation of [Nagarajan–Williamson 2013] that
// Algorithm 1 of the paper generalizes.
//
// This is exactly PD-OMFLP restricted to |S| = 1: constraints (1) and (3)
// only, no large/small distinction. It is implemented independently (not
// by delegation) so the test suite can cross-check the two codebases:
// PD-OMFLP on a single-commodity instance must produce the same facilities,
// assignments and duals as this class.
//
// Use through baseline/per_commodity.hpp to obtain the trivial
// O(|S|·log n)-competitive OMFLP baseline the paper mentions in §1.3.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
#include "instance/checkpoint_io.hpp"
#include "metric/distance_oracle.hpp"

namespace omflp {

class FotakisOfl final : public OnlineAlgorithm {
 public:
  FotakisOfl() = default;

  std::string name() const override { return "Fotakis-OFL"; }

  /// Requires a single-commodity context (|S| == 1); use the
  /// PerCommodityAdapter for multi-commodity instances.
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Deletion policy: bid rollback, the single-commodity restriction of
  /// PD-OMFLP's — the departed request's posted bid min{a_j, d(F, j)} is
  /// shifted out of bids_ and its dual zeroed.
  void depart(RequestId id, const Request& request,
              SolutionLedger& ledger) override;

  double total_dual() const noexcept { return total_dual_; }
  /// Final dual a_r of every request, in arrival order.
  const std::vector<double>& duals() const noexcept { return duals_; }

  /// Checkpoint: facilities, past requests (duals, maintained facility
  /// distances, rollback flags), the posted bid row and the dual totals,
  /// all bitwise (the cost row is rebuilt by reset()).
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  CostModelPtr cost_;
  std::shared_ptr<const DistanceOracle> dist_;
  std::size_t num_points_ = 0;

  std::vector<OpenRecord> facilities_;

  struct PastRequest {
    PointId location = 0;
    double dual = 0.0;                         // zeroed by rollback
    double facility_dist = kInfiniteDistance;  // d(F, j), maintained
    bool departed = false;  // rollback guard: a bid withdraws only once
  };
  std::vector<PastRequest> past_;

  /// bids_[m] = Σ_j (min{a_j, d(F, j)} − d(m, j))+ over past requests.
  std::vector<double> bids_;
  /// f_m for the single-commodity configuration, materialized at reset
  /// (the cost model is immutable per run) so the event scan is a pure
  /// row sweep.
  std::vector<double> cost_row_;

  double total_dual_ = 0.0;
  std::vector<double> duals_;
};

}  // namespace omflp
