// PerCommodityAdapter — the trivial OMFLP baseline of §1.3: solve an
// independent Online Facility Location instance per commodity.
//
// The adapter runs one single-commodity sub-algorithm per commodity e on
// the same metric, with the cost restricted to f^{{e}}_m, and mirrors
// every sub-decision into the real ledger (facilities open with singleton
// configuration {e}). With Fotakis' algorithm inside this is the
// O(|S|·log n)-competitive algorithm the paper uses as the departure
// point; on workloads where requests demand many commodities it pays a
// Θ(|S|) factor because it can neither bundle construction nor share
// connections — exactly the gap Theorem 2 formalizes and the benches
// measure.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/online_algorithm.hpp"

namespace omflp {

/// Cost model adapter exposing commodity e of a base model as a
/// single-commodity universe: open_cost(m, {0}) = base.open_cost(m, {e}).
class RestrictedCostModel final : public FacilityCostModel {
 public:
  RestrictedCostModel(CostModelPtr base, CommodityId commodity);

  CommodityId num_commodities() const noexcept override { return 1; }
  double open_cost(PointId m, const CommoditySet& config) const override;
  bool location_invariant() const noexcept override {
    return base_->location_invariant();
  }
  std::string description() const override;

 private:
  CostModelPtr base_;
  CommodityId commodity_;
};

class PerCommodityAdapter final : public OnlineAlgorithm {
 public:
  /// Factory producing the single-commodity sub-algorithm for commodity e
  /// (e is provided so randomized sub-algorithms can derive distinct
  /// seeds).
  using Factory =
      std::function<std::unique_ptr<OnlineAlgorithm>(CommodityId e)>;

  PerCommodityAdapter(Factory factory, std::string label);

  /// Convenience constructors for the two standard baselines.
  static std::unique_ptr<PerCommodityAdapter> fotakis();
  static std::unique_ptr<PerCommodityAdapter> meyerson(std::uint64_t seed);

  std::string name() const override { return label_; }
  void reset(const ProblemContext& context) override;
  void serve(const Request& request, SolutionLedger& ledger) override;
  /// Deletion policy: forward the departure to every per-commodity
  /// sub-algorithm the request touched (translated to the sub-instance's
  /// own request numbering), so a rollback-capable sub-algorithm like
  /// Fotakis' withdraws the departed bids per commodity.
  void depart(RequestId id, const Request& request,
              SolutionLedger& ledger) override;

  /// Checkpoint: recurses into every initialized sub-instance — the
  /// sub-algorithm's own state (via its serialize_state), the sub-ledger
  /// and the id-translation tables — so a restored adapter continues
  /// every per-commodity run bitwise. Sub-instances are re-initialized
  /// through the factory on restore (same derived seeds); each serves a
  /// subset of the requests, so `num_requests` bounds its ids too.
  void serialize_state(CkptWriter& writer) const override;
  void restore_state(CkptReader& reader, RequestId num_requests) override;

 private:
  Factory factory_;
  std::string label_;
  ProblemContext context_;

  struct SubInstance {
    std::unique_ptr<OnlineAlgorithm> algorithm;
    std::unique_ptr<SolutionLedger> ledger;  // the sub-algorithm's view
    std::vector<FacilityId> facility_map;    // sub facility id -> real id
    std::vector<RequestId> real_request;     // sub request id -> real id
    bool initialized = false;
  };
  std::vector<SubInstance> subs_;
  /// sub_ids_[real request id]: (commodity, sub request id) per demanded
  /// commodity — the translation table depart() needs.
  std::vector<std::vector<std::pair<CommodityId, RequestId>>> sub_ids_;

  SubInstance& sub_for(CommodityId e);
};

}  // namespace omflp
