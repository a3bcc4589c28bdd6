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

#include <string>
#include <vector>

#include "core/online_algorithm.hpp"
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

class NearestOrOpen final : public OnlineAlgorithm {
 public:
  std::string name() const override { return "NearestOrOpen"; }
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Checkpoint: the opened-facility index (the algorithm's only state).
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 protected:
  CostModelPtr cost_;
  std::unique_ptr<DistanceOracle> dist_;
  CommodityId num_commodities_ = 0;
  struct OpenRecord {
    PointId point = 0;
    FacilityId id = kInvalidFacility;
  };
  std::vector<std::vector<OpenRecord>> offering_;

  std::pair<double, FacilityId> nearest_offering(CommodityId e,
                                                 PointId p) const;
};

class RentOrBuy final : public OnlineAlgorithm {
 public:
  std::string name() const override { return "RentOrBuy"; }
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Checkpoint: the opened-facility index plus the ski-rental accounts.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  CostModelPtr cost_;
  std::unique_ptr<DistanceOracle> dist_;
  CommodityId num_commodities_ = 0;
  struct OpenRecord {
    PointId point = 0;
    FacilityId id = kInvalidFacility;
  };
  std::vector<std::vector<OpenRecord>> offering_;
  std::vector<double> rent_account_;  // per commodity

  std::pair<double, FacilityId> nearest_offering(CommodityId e,
                                                 PointId p) const;
};

}  // namespace omflp
