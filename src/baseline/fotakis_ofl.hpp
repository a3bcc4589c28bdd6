// FotakisOfl — Fotakis' deterministic primal–dual algorithm for classic
// Online Facility Location [Fotakis, JDA 2007], in the potential-based
// formulation of [Nagarajan–Williamson 2013] that Algorithm 1 of the paper
// generalizes, run once per commodity: the trivial O(|S|·log n)-competitive
// OMFLP baseline of §1.3.
//
// Every commodity e is an independent OFL instance on the same metric with
// opening costs f^{{e}}_m: its own singleton-{e} facilities, bid row and
// archive of the requests that demanded e, created on e's first demand. A
// request is served commodity by commodity in ascending order. Because it
// can neither bundle construction nor share connections, it pays a Θ(|S|)
// factor where requests demand many commodities — exactly the gap
// Theorem 2 formalizes and the benches measure.
//
// One commodity's instance is exactly PD-OMFLP restricted to |S| = 1:
// constraints (1) and (3) only, no large/small distinction. It is
// implemented independently (not by delegation) so the test suite can
// cross-check the two codebases: PD-OMFLP on a single-commodity instance
// must produce the same facilities, assignments and duals as this class.
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

  std::string name() const override { return "PerCommodity[Fotakis]"; }

  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Deletion policy: bid rollback in every commodity the request
  /// demanded, the single-commodity restriction of PD-OMFLP's — the
  /// departed request's posted bid min{a_j, d(F, j)} is shifted out of
  /// that commodity's bids and its dual zeroed.
  void depart(RequestId id, const Request& request,
              SolutionLedger& ledger) override;

  /// Σ of the duals of every request that has not departed.
  double total_dual() const noexcept;
  /// The dual request `id` raised for commodity e: 0 once it departed,
  /// whether or not its archive entry is still held, and 0 when it never
  /// demanded e.
  double dual(RequestId id, CommodityId e) const;
  /// Entries in commodity e's archive: its live requests plus departed
  /// ones not yet erased, which never outnumber the live ones.
  std::size_t archive_size(CommodityId e) const {
    return commodities_.at(e).past.size();
  }

  /// Checkpoint: per started commodity, its facilities, the archive of
  /// live requests (ids, duals, maintained facility distances), the
  /// posted bid row and the dual total, all bitwise (the cost rows are
  /// rebuilt). restore_state also reads the older `past` layout, which
  /// holds departed requests too and drops them, and the per-commodity
  /// sub-instance layout (baseline/sub_instance_layout.hpp).
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  struct PastRequest {
    RequestId id = kInvalidRequest;
    PointId location = 0;
    double dual = 0.0;                         // zeroed by rollback
    double facility_dist = kInfiniteDistance;  // d(F, j), maintained
    bool departed = false;  // rollback guard: a bid withdraws only once
  };

  /// One commodity's OFL instance.
  struct CommodityState {
    bool started = false;
    std::vector<OpenRecord> facilities;
    /// The requests that demanded the commodity, in id order: every live
    /// one, and departed ones until they outnumber the live ones.
    std::vector<PastRequest> past;
    /// Departed entries still in `past`.
    std::size_t departed = 0;
    /// bids[m] = Σ_j (min{a_j, d(F, j)} − d(m, j))+ over past requests.
    std::vector<double> bids;
    /// f^{{e}}_m, materialized when the commodity starts (the cost model
    /// is immutable per run) so the event scan is a pure row sweep.
    std::vector<double> cost_row;
    double total_dual = 0.0;
  };

  CommodityState& start(CommodityId e);
  void serve_commodity(CommodityId e, RequestId id, PointId loc,
                       SolutionLedger& ledger);
  /// One commodity's section; `sub_instance` reads the sub-instance
  /// layout, whose past requests carry no id and whose duals line also
  /// lists every arrival's dual.
  void restore_commodity(CkptReader& reader, CommodityState& c,
                         bool sub_instance, RequestId num_requests);

  MetricPtr metric_;
  CostModelPtr cost_;
  std::shared_ptr<const DistanceOracle> dist_;
  std::size_t num_points_ = 0;
  std::vector<CommodityState> commodities_;
};

}  // namespace omflp
