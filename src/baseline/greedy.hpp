// Greedy strawman baselines.
//
// These are not from the paper; they anchor the benchmark tables from
// below (what "no cleverness" costs) and exercise the ledger from simple
// code paths in tests.
//
//   AlwaysOpen       — open a facility with exactly s_r at the request's
//                      location, every time. Zero connection cost,
//                      unbounded opening cost (Ω(n)-competitive on
//                      repeated identical requests).
//   NearestOrOpen    — per commodity: connect to the nearest facility
//                      offering e if that is cheaper than opening {e} at
//                      the request's location, otherwise open. The classic
//                      "greedy without amortization"; loses on zooming
//                      sequences.
//   RentOrBuy        — NearestOrOpen plus a ski-rental account per
//                      commodity: accumulated connection spending since
//                      the last opening must exceed the local opening cost
//                      before a new facility may open. A folklore
//                      doubling heuristic; included as an ablation of
//                      PD-OMFLP's amortized bidding.
//
// Deletion policy on dynamic streams: all three are frozen (the
// inherited no-op depart). Their state is the opened facilities plus, for
// RentOrBuy, the ski-rental accounts; a departure leaves facilities in
// place by irrevocability, and rent already paid is sunk by the ski-rental
// argument, so ledger-level active-interval re-accounting is the whole
// policy.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/online_algorithm.hpp"
#include "instance/checkpoint_io.hpp"
#include "metric/distance_oracle.hpp"

namespace omflp {

class AlwaysOpen final : public OnlineAlgorithm {
 public:
  std::string name() const override { return "AlwaysOpen"; }
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;

 private:
  CommodityId num_commodities_ = 0;
};

/// The state NearestOrOpen and RentOrBuy share: per commodity, the
/// singleton facilities offering it, scanned for the nearest one.
class SingletonGreedy : public OnlineAlgorithm {
 public:
  void reset(const ProblemContext& context) override;
  /// Checkpoint: the opened-facility index.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 protected:
  CostModelPtr cost_;
  std::shared_ptr<const DistanceOracle> dist_;
  CommodityId num_commodities_ = 0;
  std::vector<std::vector<OpenRecord>> offering_;

  std::pair<double, FacilityId> nearest_offering(CommodityId e,
                                                 PointId p) const;
  /// Open {e} at p, index and trace it, and assign e to it. `bid_mass`
  /// and `tightness` are the trace event's spend and threshold.
  void open_and_assign(CommodityId e, PointId p, SolutionLedger& ledger,
                       double bid_mass, double tightness);
};

class NearestOrOpen final : public SingletonGreedy {
 public:
  std::string name() const override { return "NearestOrOpen"; }
  void serve(const Request& request, SolutionLedger& ledger) override;
};

class RentOrBuy final : public SingletonGreedy {
 public:
  std::string name() const override { return "RentOrBuy"; }
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Checkpoint: the opened-facility index plus the ski-rental accounts.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  std::vector<double> rent_account_;  // per commodity
};

}  // namespace omflp
