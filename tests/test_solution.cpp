// Tests for the solution ledger's accounting and rule enforcement, and for
// the independent verifier (including that it catches violations the
// ledger itself cannot see).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cost/cost_models.hpp"
#include "instance/checkpoint_io.hpp"
#include "instance/instance.hpp"
#include "metric/line_metric.hpp"
#include "solution/solution.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

struct Fixture {
  MetricPtr metric = LineMetric::uniform_grid(4, 30.0);  // 0,10,20,30
  CostModelPtr cost = std::make_shared<PolynomialCostModel>(4, 1.0);

  Request request(PointId loc, std::initializer_list<CommodityId> es) {
    return Request{loc, CommoditySet(4, es)};
  }
};

TEST(SolutionLedger, HappyPathAccounting) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost);

  ledger.begin_request(fx.request(0, {0, 1}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0, 1}));
  ledger.assign(0, f0);
  ledger.assign(1, f0);
  ledger.finish_request();

  // Opening: sqrt(2); connection: one shared path of length 10.
  EXPECT_NEAR(ledger.opening_cost(), std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 10.0);
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_EQ(ledger.request_record(0).num_connected(), 1u);

  // Second request reuses the facility plus a new singleton.
  ledger.begin_request(fx.request(3, {0, 2}));
  const FacilityId f1 = ledger.open_facility(3, CommoditySet(4, {2}));
  ledger.assign(0, f0);
  ledger.assign(2, f1);
  ledger.finish_request();

  EXPECT_NEAR(ledger.opening_cost(), std::sqrt(2.0) + 1.0, 1e-12);
  // Request 2 connects to f0 (distance 20) and f1 (distance 0).
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 30.0);
  EXPECT_EQ(ledger.num_small_facilities(), 1u);
  EXPECT_EQ(ledger.num_large_facilities(), 0u);
}

TEST(SolutionLedger, SharedPathChargedOncePerFacility) {
  Fixture fx;
  SolutionLedger per_facility(fx.metric, fx.cost,
                              ConnectionChargePolicy::kPerFacility);
  per_facility.begin_request(fx.request(0, {0, 1, 2}));
  const FacilityId f =
      per_facility.open_facility(2, CommoditySet(4, {0, 1, 2}));
  per_facility.assign(0, f);
  per_facility.assign(1, f);
  per_facility.assign(2, f);
  per_facility.finish_request();
  EXPECT_DOUBLE_EQ(per_facility.connection_cost(), 20.0);

  // The §1.1 alternative model charges the path per served commodity.
  SolutionLedger per_commodity(fx.metric, fx.cost,
                               ConnectionChargePolicy::kPerCommodity);
  per_commodity.begin_request(fx.request(0, {0, 1, 2}));
  const FacilityId g =
      per_commodity.open_facility(2, CommoditySet(4, {0, 1, 2}));
  per_commodity.assign(0, g);
  per_commodity.assign(1, g);
  per_commodity.assign(2, g);
  per_commodity.finish_request();
  EXPECT_DOUBLE_EQ(per_commodity.connection_cost(), 60.0);
}

TEST(SolutionLedger, EnforcesProtocol) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost);
  // No facility opening outside a request.
  EXPECT_THROW(ledger.open_facility(0, CommoditySet(4, {0})),
               std::invalid_argument);
  ledger.begin_request(fx.request(0, {0}));
  // No double begin.
  EXPECT_THROW(ledger.begin_request(fx.request(0, {0})),
               std::invalid_argument);
  const FacilityId f = ledger.open_facility(0, CommoditySet(4, {0}));
  // Assigning an undemanded commodity.
  EXPECT_THROW(ledger.assign(1, f), std::invalid_argument);
  // Assigning to a facility that does not offer the commodity.
  const FacilityId g = ledger.open_facility(0, CommoditySet(4, {2}));
  EXPECT_THROW(ledger.assign(0, g), std::invalid_argument);
  ledger.assign(0, f);
  // Double assignment of the same commodity.
  EXPECT_THROW(ledger.assign(0, f), std::invalid_argument);
  ledger.finish_request();
  // Finish without a request in flight.
  EXPECT_THROW(ledger.finish_request(), std::invalid_argument);
}

TEST(SolutionLedger, IncompleteCoverageRejected) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(fx.request(0, {0, 1}));
  const FacilityId f = ledger.open_facility(0, CommoditySet(4, {0}));
  ledger.assign(0, f);
  EXPECT_THROW(ledger.finish_request(), std::invalid_argument);
}

TEST(SolutionLedger, EmptyConfigRejected) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(fx.request(0, {0}));
  EXPECT_THROW(ledger.open_facility(0, CommoditySet(4)),
               std::invalid_argument);
}

TEST(SolutionLedger, LargeFacilityCounted) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(fx.request(0, {0}));
  const FacilityId f = ledger.open_facility(0, CommoditySet::full_set(4));
  ledger.assign(0, f);
  ledger.finish_request();
  EXPECT_EQ(ledger.num_large_facilities(), 1u);
  EXPECT_EQ(ledger.num_small_facilities(), 0u);
}

// ------------------------------------------------------------ verifier ---

Instance tiny_instance(const Fixture& fx) {
  return Instance(fx.metric, fx.cost,
                  {Request{0, CommoditySet(4, {0, 1})},
                   Request{3, CommoditySet(4, {1})}},
                  "tiny");
}

TEST(Verifier, AcceptsValidRun) {
  Fixture fx;
  const Instance inst = tiny_instance(fx);
  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(inst.request(0));
  const FacilityId f = ledger.open_facility(0, CommoditySet(4, {0, 1}));
  ledger.assign(0, f);
  ledger.assign(1, f);
  ledger.finish_request();
  ledger.begin_request(inst.request(1));
  ledger.assign(1, f);
  ledger.finish_request();
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
}

TEST(Verifier, RejectsWrongRequestCount) {
  Fixture fx;
  const Instance inst = tiny_instance(fx);
  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(inst.request(0));
  const FacilityId f = ledger.open_facility(0, CommoditySet(4, {0, 1}));
  ledger.assign(0, f);
  ledger.assign(1, f);
  ledger.finish_request();
  const auto violation = verify_solution(inst, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("requests"), std::string::npos);
}

TEST(Verifier, RejectsSequenceMismatch) {
  Fixture fx;
  const Instance inst = tiny_instance(fx);
  SolutionLedger ledger(fx.metric, fx.cost);
  // Serve different requests than the instance's.
  ledger.begin_request(Request{1, CommoditySet(4, {0})});
  FacilityId f = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f);
  ledger.finish_request();
  ledger.begin_request(Request{1, CommoditySet(4, {0})});
  ledger.assign(0, f);
  ledger.finish_request();
  const auto violation = verify_solution(inst, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("differs"), std::string::npos);
}

TEST(Verifier, RejectsInFlightRequest) {
  Fixture fx;
  const Instance inst = tiny_instance(fx);
  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(inst.request(0));
  EXPECT_TRUE(verify_solution(inst, ledger).has_value());
}

// ----------------------------------------------- capacity / admission ---

CapacityMap uniform_caps(std::size_t points, std::uint64_t cap) {
  return std::make_shared<const std::vector<std::uint64_t>>(points, cap);
}

TEST(CapacitatedLedger, ReassignSpillsToNextNearestFeasible) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 1), OverflowPolicy::kReassign);
  ASSERT_TRUE(ledger.capacitated());

  // Request 0 fills the facility at point 1.
  ledger.begin_request(fx.request(1, {0}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();
  EXPECT_EQ(ledger.occupancy(f0), 1u);
  EXPECT_EQ(ledger.facility_capacity(f0), 1u);

  // Request 1 also wants f0; the open facility at point 2 offering the
  // same commodity is the next-nearest feasible target.
  ledger.begin_request(fx.request(1, {0}));
  const FacilityId f1 = ledger.open_facility(2, CommoditySet(4, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();

  EXPECT_EQ(ledger.num_spilled_assignments(), 1u);
  EXPECT_EQ(ledger.num_shed_requests(), 0u);
  EXPECT_EQ(ledger.occupancy(f0), 1u);
  EXPECT_EQ(ledger.occupancy(f1), 1u);
  // Connection: request 0 paid 0 (at f0); request 1 paid d(1,2) = 10.
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 10.0);
  const RequestRecord& spilled = ledger.request_record(1);
  ASSERT_EQ(spilled.served.size(), 1u);
  EXPECT_EQ(spilled.served[0].facility, f1);
  EXPECT_TRUE(spilled.rejected.empty());
}

TEST(CapacitatedLedger, ReassignOpensSingletonWhenNothingFeasible) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 1), OverflowPolicy::kReassign);
  ledger.begin_request(fx.request(1, {0}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();

  // No other facility exists: the ledger opens a fresh singleton at the
  // request's own location (point 3) and serves there.
  ledger.begin_request(fx.request(3, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();

  EXPECT_EQ(ledger.num_facilities(), 2u);
  EXPECT_EQ(ledger.num_spilled_assignments(), 1u);
  const RequestRecord& rec = ledger.request_record(1);
  ASSERT_EQ(rec.served.size(), 1u);
  EXPECT_EQ(ledger.facility(rec.served[0].facility).location, PointId{3});
  // Served at its own location: no connection cost for request 1.
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 0.0);
}

TEST(CapacitatedLedger, RejectPolicyShedsAtFullFacility) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 1), OverflowPolicy::kReject);
  ledger.begin_request(fx.request(1, {0}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();

  ledger.begin_request(fx.request(2, {0, 1}));
  const FacilityId f1 = ledger.open_facility(2, CommoditySet(4, {1}));
  ledger.assign(0, f0);  // full -> rejected, not served
  ledger.assign(1, f1);
  ledger.finish_request();

  EXPECT_EQ(ledger.num_shed_requests(), 1u);
  EXPECT_EQ(ledger.num_rejected_commodities(), 1u);
  EXPECT_EQ(ledger.num_spilled_assignments(), 0u);
  const RequestRecord& rec = ledger.request_record(1);
  ASSERT_EQ(rec.rejected.size(), 1u);
  EXPECT_EQ(rec.rejected[0], CommodityId{0});
  ASSERT_EQ(rec.served.size(), 1u);
  // The rejected commodity pays no connection cost; only commodity 1 at
  // its own point does (distance 0).
  EXPECT_DOUBLE_EQ(ledger.connection_cost(), 0.0);
  EXPECT_EQ(ledger.occupancy(f0), 1u);
}

TEST(CapacitatedLedger, RetirementReleasesOccupancy) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 1), OverflowPolicy::kReject);
  ledger.begin_request(fx.request(1, {0}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();
  EXPECT_EQ(ledger.occupancy(f0), 1u);

  ledger.retire_request(0, 1);
  EXPECT_EQ(ledger.occupancy(f0), 0u);

  // The freed slot admits the next request without shedding.
  ledger.begin_request(fx.request(1, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();
  EXPECT_EQ(ledger.occupancy(f0), 1u);
  EXPECT_EQ(ledger.num_shed_requests(), 0u);
}

TEST(CapacitatedLedger, SameRequestReusesItsSlot) {
  // A request already connected to a full facility may route more of its
  // own commodities there — occupancy counts distinct requests, not
  // assignments.
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 1), OverflowPolicy::kReject);
  ledger.begin_request(fx.request(1, {0, 1}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0, 1}));
  ledger.assign(0, f0);
  ledger.assign(1, f0);
  ledger.finish_request();
  EXPECT_EQ(ledger.occupancy(f0), 1u);
  EXPECT_EQ(ledger.num_rejected_commodities(), 0u);
}

TEST(CapacitatedLedger, ZeroCapacityLocationShedsEvenUnderReassign) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 0), OverflowPolicy::kReassign);
  ledger.begin_request(fx.request(1, {0}));
  const FacilityId f0 = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f0);
  ledger.finish_request();

  EXPECT_EQ(ledger.num_shed_requests(), 1u);
  EXPECT_EQ(ledger.num_rejected_commodities(), 1u);
  EXPECT_EQ(ledger.occupancy(f0), 0u);
  EXPECT_TRUE(ledger.request_record(0).served.empty());
}

TEST(CapacitatedLedger, InfiniteCapacityBehavesUncapacitated) {
  Fixture fx;
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, kUncapacitated),
                        OverflowPolicy::kReject);
  // Every entry infinite -> the map does not count as capacitated.
  EXPECT_FALSE(ledger.capacitated());
  ledger.begin_request(fx.request(0, {0}));
  const FacilityId f = ledger.open_facility(0, CommoditySet(4, {0}));
  for (int i = 0; i < 3; ++i) {
    if (i > 0) ledger.begin_request(fx.request(0, {0}));
    ledger.assign(0, f);
    ledger.finish_request();
  }
  EXPECT_EQ(ledger.num_shed_requests(), 0u);
  EXPECT_EQ(ledger.occupancy(f), 3u);
}

TEST(CapacitatedVerifier, FlagsHandTamperedOverCapacityLedger) {
  // The ledger is built uncapacitated (so it happily over-subscribes);
  // the instance carries tight capacities. The static verifier must
  // re-derive occupancy and reject — this is the "hand-tampered ledger"
  // path the ledger's own bookkeeping cannot see.
  Fixture fx;
  Instance inst(fx.metric, fx.cost,
                {Request{1, CommoditySet(4, {0})},
                 Request{1, CommoditySet(4, {0})}},
                "tampered");
  inst.set_capacities(uniform_caps(4, 1));

  SolutionLedger ledger(fx.metric, fx.cost);
  ledger.begin_request(inst.request(0));
  const FacilityId f = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f);
  ledger.finish_request();
  ledger.begin_request(inst.request(1));
  ledger.assign(0, f);
  ledger.finish_request();

  const auto violation = verify_solution(inst, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("capacity"), std::string::npos);
}

TEST(CapacitatedVerifier, RejectsShedOnUncapacitatedInstance) {
  Fixture fx;
  const Instance inst = Instance(fx.metric, fx.cost,
                                 {Request{1, CommoditySet(4, {0})},
                                  Request{1, CommoditySet(4, {0})}},
                                 "uncapped");
  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility,
                        uniform_caps(4, 1), OverflowPolicy::kReject);
  ledger.begin_request(inst.request(0));
  const FacilityId f = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f);
  ledger.finish_request();
  ledger.begin_request(inst.request(1));
  ledger.assign(0, f);  // rejected by the capacitated ledger
  ledger.finish_request();

  // Verified against the *uncapacitated* instance, the rejection itself
  // is the violation.
  const auto violation = verify_solution(inst, ledger);
  ASSERT_TRUE(violation.has_value());
  EXPECT_NE(violation->what.find("uncapacitated"), std::string::npos);
}

TEST(CapacitatedVerifier, AcceptsCapacityFeasibleRun) {
  Fixture fx;
  Instance inst(fx.metric, fx.cost,
                {Request{1, CommoditySet(4, {0})},
                 Request{1, CommoditySet(4, {0})}},
                "feasible");
  const CapacityMap caps = uniform_caps(4, 1);
  inst.set_capacities(caps);

  SolutionLedger ledger(fx.metric, fx.cost,
                        ConnectionChargePolicy::kPerFacility, caps,
                        OverflowPolicy::kReject);
  ledger.begin_request(inst.request(0));
  const FacilityId f = ledger.open_facility(1, CommoditySet(4, {0}));
  ledger.assign(0, f);
  ledger.finish_request();
  ledger.begin_request(inst.request(1));
  ledger.assign(0, f);  // shed
  ledger.finish_request();

  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
}

// ------------------------------------------------ record list storage ---

std::string serialized(const SolutionLedger& ledger) {
  std::ostringstream os;
  CkptWriter writer(os);
  ledger.serialize(writer);
  writer.finish();
  return os.str();
}

// Records with |s_r| = 1..8 at |S| = 8 put every list on both sides of its
// inline limit: served holds 4 entries inline, rejected 2.
// serialize -> restore -> serialize is byte-identical and the restored
// lists equal the originals, uncapacitated and under kReject (where the
// commodities whose facility sits at a zero-capacity point are shed).
TEST(SolutionLedger, RecordListsRoundTripAcrossTheInlineLimit) {
  constexpr CommodityId kUniverse = 8;
  const MetricPtr metric = LineMetric::uniform_grid(16, 15.0);
  const CostModelPtr cost =
      std::make_shared<PolynomialCostModel>(kUniverse, 1.0);
  auto caps = std::make_shared<std::vector<std::uint64_t>>(16, 8);
  for (PointId p = 4; p < 8; ++p) (*caps)[p] = 0;

  for (const bool capacitated : {false, true}) {
    SCOPED_TRACE(capacitated ? "kReject" : "uncapacitated");
    const CapacityMap map = capacitated ? CapacityMap(caps) : nullptr;
    SolutionLedger ledger(metric, cost, ConnectionChargePolicy::kPerFacility,
                          map, OverflowPolicy::kReject);
    std::vector<FacilityId> singleton;
    for (CommodityId size = 1; size <= kUniverse; ++size) {
      CommoditySet demand(kUniverse);
      for (CommodityId e = 0; e < size; ++e) demand.add(e);
      ledger.begin_request(Request{8 + size % 8, demand});
      // Commodity e's singleton sits at point e.
      while (singleton.size() < kUniverse)
        singleton.push_back(ledger.open_facility(
            static_cast<PointId>(singleton.size()),
            CommoditySet::singleton(kUniverse,
                                    static_cast<CommodityId>(
                                        singleton.size()))));
      for (CommodityId e = size; e-- > 0;) ledger.assign(e, singleton[e]);
      ledger.finish_request();
    }
    ledger.retire_request(2, 20);
    ledger.retire_request(6, 21);

    const RequestRecord& widest = ledger.request_record(kUniverse - 1);
    if (capacitated) {
      EXPECT_EQ(widest.served.size(), 4u);
      EXPECT_EQ(widest.rejected.size(), 4u);
    } else {
      EXPECT_EQ(widest.served.size(), 8u);
      EXPECT_EQ(widest.num_connected(), 8u);
    }

    const std::string bytes = serialized(ledger);
    std::istringstream is(bytes);
    CkptReader reader(is);
    SolutionLedger restored(metric, cost,
                            ConnectionChargePolicy::kPerFacility, map,
                            OverflowPolicy::kReject);
    restored.restore(reader);
    reader.finish();
    EXPECT_EQ(serialized(restored), bytes);

    ASSERT_EQ(restored.num_requests(), ledger.num_requests());
    for (RequestId id = 0; id < ledger.num_requests(); ++id) {
      SCOPED_TRACE(id);
      const RequestRecord& a = ledger.request_record(id);
      const RequestRecord& b = restored.request_record(id);
      EXPECT_EQ(a.served, b.served);
      EXPECT_EQ(a.rejected, b.rejected);
      EXPECT_EQ(a.retired_at, b.retired_at);
    }
    for (FacilityId f = 0; f < ledger.num_facilities(); ++f)
      EXPECT_EQ(restored.occupancy(f), ledger.occupancy(f));
  }
}

}  // namespace
}  // namespace omflp
