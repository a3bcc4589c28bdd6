// PD-OMFLP (Algorithm 1) tests: hand-derived event traces on small
// scenarios, the Theorem-2 game behaviour, equivalence of the reference
// and incremental bid accumulators, equivalence with Fotakis' OFL at
// |S| = 1, Corollary 8's primal-dual accounting, the prediction
// ablation, the nearest-facility tables (equidistant ties, nested
// seen-union configurations), the still-bidding lists under churn, and
// the archive keeping only the requests that have not departed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baseline/fotakis_ofl.hpp"
#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "instance/adversarial.hpp"
#include "instance/generators.hpp"
#include "metric/line_metric.hpp"
#include "scenario/stream_registry.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

Instance random_line_instance(std::uint64_t seed, std::size_t points,
                              std::size_t requests, CommodityId s,
                              CommodityId max_demand) {
  Rng rng(seed);
  std::vector<double> positions;
  positions.reserve(points);
  for (std::size_t i = 0; i < points; ++i)
    positions.push_back(rng.uniform(0.0, 37.3));
  auto metric = std::make_shared<LineMetric>(std::move(positions));
  auto cost = std::make_shared<PolynomialCostModel>(s, 1.0, 1.37);
  std::vector<Request> reqs;
  reqs.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    Request r;
    r.location = static_cast<PointId>(rng.uniform_index(points));
    const CommodityId size =
        static_cast<CommodityId>(1 + rng.uniform_index(max_demand));
    r.commodities = sample_demand_set(s, size, 0.0, rng);
    reqs.push_back(std::move(r));
  }
  return Instance(std::move(metric), std::move(cost), std::move(reqs),
                  "random-line");
}

// ------------------------------------------------- hand-derived traces ---

TEST(PdOmflp, SingleRequestPrefersLargeWhenBundlingIsCheap) {
  // One request demanding both commodities of S = {0,1} at a single point
  // with g(k) = sqrt(k). Raising both duals at rate 1, constraint (4)
  // becomes tight at Δ = sqrt(2)/2 < 1 = the constraint-(3) time, so the
  // algorithm opens one large facility for sqrt(2) instead of two
  // singletons for 2.
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = std::make_shared<PolynomialCostModel>(2, 1.0);
  Instance inst(metric, cost, {Request{0, CommoditySet::full_set(2)}});

  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_EQ(ledger.num_large_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), std::sqrt(2.0), 1e-9);
  // Both duals froze at the event time sqrt(2)/2.
  const std::vector<PdDualRecord> records = pd.dual_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_NEAR(records[0].duals[0], std::sqrt(2.0) / 2.0, 1e-9);
  EXPECT_NEAR(records[0].duals[1], std::sqrt(2.0) / 2.0, 1e-9);
}

TEST(PdOmflp, SingleRequestPrefersSingletonsWhenLinear) {
  // Linear costs (x = 2): bundling gives no discount, constraint (3)
  // fires first for each commodity (Δ = 1 each vs Δ4 = 2/2 = 1 — the tie
  // goes to (4) by the pseudocode's line order... with g(k) = k the large
  // facility costs exactly the two singletons, so either outcome costs 2.
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = std::make_shared<PolynomialCostModel>(2, 2.0);
  Instance inst(metric, cost, {Request{0, CommoditySet::full_set(2)}});
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_NEAR(ledger.total_cost(), 2.0, 1e-9);
}

TEST(PdOmflp, ConnectsToExistingFacilityWhenCloser) {
  // Points at 0 and 0.5; request 1 at 0 opens a singleton there (cost 1);
  // request 2 at 0.5 connects to it (Δ1 = 0.5 < 1 = opening anew).
  auto metric = std::make_shared<LineMetric>(std::vector<double>{0.0, 0.5});
  auto cost = std::make_shared<PolynomialCostModel>(1, 2.0);
  Instance inst(metric, cost,
                {Request{0, CommoditySet::full_set(1)},
                 Request{1, CommoditySet::full_set(1)}});
  PdOmflp pd{PdOptions{.record_trace = true}};
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 1.5, 1e-9);
  // Trace: request 0 fires (3)-or-(4) at the point, request 1 connects.
  ASSERT_EQ(pd.trace().size(), 2u);
  EXPECT_EQ(pd.trace()[1].request, 1u);
  const int c = pd.trace()[1].constraint;
  EXPECT_TRUE(c == 1 || c == 2) << "got constraint " << c;
}

TEST(PdOmflp, Theorem2GameSmallsThenOneLarge) {
  // |S| = 64, cost ⌈k/8⌉: the proof sketch in §2 predicts exactly this
  // run: 7 singleton facilities (cost 1 each), then at the 8th distinct
  // commodity the accumulated large-side bids make constraint (4) tie
  // with (3) and the algorithm switches to one large facility (cost 8).
  Rng rng(4);
  Theorem2Config cfg;
  cfg.num_commodities = 64;
  const Instance inst = make_theorem2_instance(cfg, rng);
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_small_facilities(), 7u);
  EXPECT_EQ(ledger.num_large_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 7.0 + 8.0, 1e-9);
  // Ratio 15 ≈ 2·√|S|: consistent with both Theorem 2 (≥ √|S|/16) and
  // Theorem 4 (≤ 15·√|S|·H_n).
}

TEST(PdOmflp, PredictionOffNeverOpensLarge) {
  Rng rng(4);
  Theorem2Config cfg;
  cfg.num_commodities = 64;
  const Instance inst = make_theorem2_instance(cfg, rng);
  PdOmflp pd{PdOptions{.prediction = PdOptions::Prediction::kOff}};
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_EQ(ledger.num_small_facilities(), 8u);
  EXPECT_EQ(ledger.num_large_facilities(), 0u);
  EXPECT_NEAR(ledger.total_cost(), 8.0, 1e-9);
}

TEST(PdOmflp, FreeRideOnExistingLargeFacility) {
  // After a large facility exists at the request's own point, constraint
  // (2) fires at Δ = 0 and later requests are served free of charge.
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = std::make_shared<PolynomialCostModel>(4, 0.0);  // constant 1
  std::vector<Request> reqs(5, Request{0, CommoditySet::full_set(4)});
  Instance inst(metric, cost, std::move(reqs));
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  // x = 0 makes the large facility cost 1 = singleton cost; the first
  // request opens it (constraint 4 at Δ = 1/4), everyone else rides.
  EXPECT_EQ(ledger.num_facilities(), 1u);
  EXPECT_NEAR(ledger.total_cost(), 1.0, 1e-9);
}

// ------------------------------------------------------- equivalences ----

class PdEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdEquivalence, ReferenceAndIncrementalBidsAgree) {
  const Instance inst =
      random_line_instance(GetParam(), 12, 40, 6, 4);

  PdOmflp reference{PdOptions{.bid_mode = PdOptions::BidMode::kReference}};
  PdOmflp incremental{
      PdOptions{.bid_mode = PdOptions::BidMode::kIncremental}};
  const SolutionLedger lr = run_online(reference, inst);
  const SolutionLedger li = run_online(incremental, inst);

  EXPECT_FALSE(verify_solution(inst, lr).has_value());
  EXPECT_FALSE(verify_solution(inst, li).has_value());
  ASSERT_EQ(lr.num_facilities(), li.num_facilities());
  for (FacilityId f = 0; f < lr.num_facilities(); ++f) {
    EXPECT_EQ(lr.facility(f).location, li.facility(f).location);
    EXPECT_TRUE(lr.facility(f).config == li.facility(f).config);
  }
  EXPECT_NEAR(lr.total_cost(), li.total_cost(), 1e-7);
  const std::vector<PdDualRecord> records_r = reference.dual_records();
  const std::vector<PdDualRecord> records_i = incremental.dual_records();
  ASSERT_EQ(records_r.size(), records_i.size());
  for (std::size_t i = 0; i < records_r.size(); ++i) {
    const auto& a = records_r[i].duals;
    const auto& b = records_i[i].duals;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_NEAR(a[j], b[j], 1e-7);
  }
}

TEST_P(PdEquivalence, SingleCommodityMatchesFotakisOfl) {
  const Instance inst = random_line_instance(GetParam() ^ 0xabcdef, 10, 50,
                                             /*s=*/1, /*max_demand=*/1);
  PdOmflp pd;
  FotakisOfl fotakis;
  const SolutionLedger lp = run_online(pd, inst);
  const SolutionLedger lf = run_online(fotakis, inst);
  EXPECT_FALSE(verify_solution(inst, lp).has_value());
  EXPECT_FALSE(verify_solution(inst, lf).has_value());
  ASSERT_EQ(lp.num_facilities(), lf.num_facilities());
  for (FacilityId f = 0; f < lp.num_facilities(); ++f)
    EXPECT_EQ(lp.facility(f).location, lf.facility(f).location);
  EXPECT_NEAR(lp.total_cost(), lf.total_cost(), 1e-7);
  EXPECT_NEAR(pd.total_dual(), fotakis.total_dual(), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------- dual-side invariants --

class PdInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdInvariants, Corollary8CostBoundedByThreeTimesDuals) {
  const Instance inst = random_line_instance(GetParam() * 7 + 1, 10, 50, 5, 3);
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  EXPECT_LE(ledger.total_cost(), 3.0 * pd.total_dual() + 1e-7);
  EXPECT_GT(pd.total_dual(), 0.0);
}

TEST_P(PdInvariants, DualsAreNonNegativeAndPerRequest) {
  const Instance inst = random_line_instance(GetParam() * 13 + 2, 8, 30, 4, 4);
  PdOmflp pd;
  (void)run_online(pd, inst);
  const std::vector<PdDualRecord> records = pd.dual_records();
  ASSERT_EQ(records.size(), inst.num_requests());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& rec = records[i];
    EXPECT_EQ(rec.commodities.size(),
              inst.request(i).commodities.count());
    for (double a : rec.duals) EXPECT_GE(a, 0.0);
  }
}

TEST_P(PdInvariants, SeenUnionVariantProducesValidSolutions) {
  const Instance inst = random_line_instance(GetParam() * 17 + 3, 10, 40, 6, 3);
  PdOmflp pd{
      PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion}};
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  // Seen-union large facilities are never larger than S and never smaller
  // than a request's demand at open time.
  for (const auto& f : ledger.facilities())
    EXPECT_LE(f.config.count(), inst.num_commodities());
}

TEST_P(PdInvariants, SeenUnionNeverCostsMoreOpeningThanFullS) {
  // Not a theorem — but per-instance the seen-union variant's large
  // facilities are subsets of S, so each individual large opening is at
  // most as expensive (monotone costs). Check the bookkeeping holds.
  const Instance inst = random_line_instance(GetParam() * 29 + 5, 8, 30, 5, 3);
  PdOmflp seen{
      PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion}};
  const SolutionLedger ledger = run_online(seen, inst);
  for (const auto& f : ledger.facilities()) {
    if (f.config.count() > 1) {
      EXPECT_LE(f.open_cost, inst.cost().full_cost(f.location) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdInvariants,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------------ auditing ---

class PdAudit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PdAudit, InternalStateConsistentAfterEveryRun) {
  // audit_state() recomputes the maintained nearest-facility distances
  // and the incremental bid sums from first principles, and checks the
  // constraint (3)/(4) invariants Σ bids ≤ f at every point — across all
  // option combinations.
  const Instance inst = random_line_instance(GetParam() * 53 + 9, 10, 40,
                                             5, 3);
  const PdOptions configs[] = {
      PdOptions{},
      PdOptions{.bid_mode = PdOptions::BidMode::kReference},
      PdOptions{.prediction = PdOptions::Prediction::kOff},
      PdOptions{.large_config = PdOptions::LargeConfig::kSeenUnion},
  };
  for (const PdOptions& options : configs) {
    PdOmflp pd{options};
    (void)run_online(pd, inst);
    const auto issue = pd.audit_state();
    EXPECT_FALSE(issue.has_value())
        << pd.name() << ": " << (issue ? *issue : "");
  }
}

TEST_P(PdAudit, AuditAlsoCleanMidSequence) {
  const Instance inst = random_line_instance(GetParam() * 71 + 4, 8, 24,
                                             4, 3);
  PdOmflp pd;
  SolutionLedger ledger(inst.metric_ptr(), inst.cost_ptr());
  pd.reset(ProblemContext{inst.metric_ptr(), inst.cost_ptr()});
  for (const Request& r : inst.requests()) {
    ledger.begin_request(r);
    pd.serve(r, ledger);
    ledger.finish_request();
    const auto issue = pd.audit_state();
    ASSERT_FALSE(issue.has_value()) << (issue ? *issue : "");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdAudit, ::testing::Values(1, 2, 3, 4));

// ------------------------------------------------ nearest-facility tables --

/// The facilities request `r` of `ledger` was served by, per commodity.
std::vector<FacilityId> served_by(const SolutionLedger& ledger, RequestId r) {
  std::vector<FacilityId> out;
  for (const ServedCommodity& sc : ledger.request_record(r).served)
    out.push_back(sc.facility);
  return out;
}

TEST(PdNearestTables, EquidistantSmallFacilitiesKeepTheLowestId) {
  // Line points A = 0, B = 10, C = 5; f({e}) = 8, f(S) = 16. The requests
  // at A and B each open a singleton {0} at their own point (constraint
  // (3) at Δ = 8 beats connecting at 10). The request at C is 5 from both:
  // constraint (1) fires at Δ = 5 and must pick facility 0, the one a
  // scan in opening order finds first.
  auto metric =
      std::make_shared<LineMetric>(std::vector<double>{0.0, 10.0, 5.0});
  auto cost = std::make_shared<PolynomialCostModel>(2, 2.0, 8.0);
  const CommoditySet e0 = CommoditySet::singleton(2, 0);
  Instance inst(metric, cost, {Request{0, e0}, Request{1, e0}, Request{2, e0}});
  PdOptions options;
  options.record_trace = true;
  PdOmflp pd{options};
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  ASSERT_EQ(ledger.num_facilities(), 2u);
  EXPECT_EQ(ledger.facility(0).location, 0u);
  EXPECT_EQ(ledger.facility(1).location, 1u);
  ASSERT_EQ(pd.trace().size(), 3u);
  EXPECT_EQ(pd.trace()[2].constraint, 1);
  EXPECT_EQ(served_by(ledger, 2), std::vector<FacilityId>{0});
  const auto issue = pd.audit_state();
  EXPECT_FALSE(issue.has_value()) << *issue;
}

TEST(PdNearestTables, EquidistantLargeFacilitiesKeepTheLowestId) {
  // Same line, every configuration costs 8 (x = 0). Requests demanding
  // S = {0,1} at A and B each open a large facility at their own point
  // (constraint (4) at Δ = 4). At C both are 5 away: constraint (2) fires
  // at Δ = 2.5 and must connect to facility 0.
  auto metric =
      std::make_shared<LineMetric>(std::vector<double>{0.0, 10.0, 5.0});
  auto cost = std::make_shared<PolynomialCostModel>(2, 0.0, 8.0);
  const CommoditySet s = CommoditySet::full_set(2);
  Instance inst(metric, cost, {Request{0, s}, Request{1, s}, Request{2, s}});
  PdOptions options;
  options.record_trace = true;
  PdOmflp pd{options};
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  ASSERT_EQ(ledger.num_large_facilities(), 2u);
  ASSERT_EQ(ledger.num_facilities(), 2u);
  ASSERT_EQ(pd.trace().size(), 3u);
  EXPECT_EQ(pd.trace()[2].constraint, 2);
  EXPECT_EQ(pd.trace()[2].point, 0u);
  EXPECT_EQ(served_by(ledger, 2), (std::vector<FacilityId>{0, 0}));
  const auto issue = pd.audit_state();
  EXPECT_FALSE(issue.has_value()) << *issue;
}

TEST(PdNearestTables, SeenUnionSkipsAnOlderSmallerLarge) {
  // Line points A = 0, B = 10, C = 4; every configuration costs 8. Under
  // kSeenUnion the request {0} at A opens a "large" facility with config
  // {0} (constraint (4) ties (3) at Δ = 8 and wins the tie), and the
  // request {0,1} at B opens one with config {0,1} (constraint (4) at
  // Δ = 4). The request {0,1} at C is 4 from A and 6 from B. Only B's
  // facility covers its demand, so constraint (2) fires at Δ = 3 against
  // B; the older {0} facility, though closer, must be skipped.
  auto metric =
      std::make_shared<LineMetric>(std::vector<double>{0.0, 10.0, 4.0});
  auto cost = std::make_shared<PolynomialCostModel>(2, 0.0, 8.0);
  const CommoditySet s = CommoditySet::full_set(2);
  Instance inst(metric, cost,
                {Request{0, CommoditySet::singleton(2, 0)}, Request{1, s},
                 Request{2, s}});
  PdOptions options;
  options.large_config = PdOptions::LargeConfig::kSeenUnion;
  options.record_trace = true;
  PdOmflp pd{options};
  const SolutionLedger ledger = run_online(pd, inst);
  EXPECT_FALSE(verify_solution(inst, ledger).has_value());
  ASSERT_EQ(ledger.num_facilities(), 2u);
  EXPECT_TRUE(ledger.facility(0).config == CommoditySet::singleton(2, 0));
  EXPECT_TRUE(ledger.facility(1).config == s);
  ASSERT_EQ(pd.trace().size(), 3u);
  EXPECT_EQ(pd.trace()[0].constraint, 4);
  EXPECT_EQ(pd.trace()[1].constraint, 4);
  EXPECT_EQ(pd.trace()[2].constraint, 2);
  EXPECT_EQ(pd.trace()[2].point, 1u);
  EXPECT_EQ(served_by(ledger, 2), (std::vector<FacilityId>{1, 1}));
  const auto issue = pd.audit_state();
  EXPECT_FALSE(issue.has_value()) << *issue;
}

// ------------------------------------------------ still-bidding lists ----

/// Runs PD over a churn stream, auditing after every batch, and returns
/// the final totals.
std::tuple<double, double, std::size_t, double> audited_churn_run(
    const EventStream& stream, const PdOptions& options) {
  PdOmflp pd{options};
  MaterializedEventSource source(stream);
  StreamRunOptions run_options;
  run_options.batch_size = 32;
  run_options.verify = true;
  StreamSession session(pd, source, run_options);
  while (session.step_batch() != 0) {
    const auto issue = pd.audit_state();
    EXPECT_FALSE(issue.has_value()) << pd.name() << ": " << *issue;
    if (issue) break;
  }
  const StreamRunResult result = session.finish();
  EXPECT_FALSE(result.violation.has_value());
  EXPECT_GT(result.departures, 0u);
  return {result.ledger.total_cost(), result.ledger.active_cost(),
          result.ledger.num_facilities(), pd.total_dual()};
}

TEST(PdStillBidding, ChurnAuditCleanAndBidModesBitwiseEqual) {
  // Rollback leaves tombstones in the still-bidding lists until they are
  // compacted; frozen keeps every bidder. Either way the audit (tables
  // against fresh scans, lists against the archive, incremental rows
  // against recomputation) holds after every batch, and reference and
  // incremental bid modes make the same decisions bit for bit.
  const EventStream stream = default_stream_scenario_registry().make(
      "churn-uniform", /*seed=*/11,
      {{"events", 640}, {"points", 24}, {"commodities", 6}, {"churn", 0.5}});
  for (const auto policy : {PdOptions::DeletionPolicy::kFrozen,
                            PdOptions::DeletionPolicy::kRollback}) {
    for (const auto config : {PdOptions::LargeConfig::kFullS,
                              PdOptions::LargeConfig::kSeenUnion}) {
      PdOptions options;
      options.large_config = config;
      options.deletion_policy = policy;
      const auto incremental = audited_churn_run(stream, options);
      options.bid_mode = PdOptions::BidMode::kReference;
      const auto reference = audited_churn_run(stream, options);
      EXPECT_EQ(incremental, reference);  // bitwise
    }
  }
}

// ------------------------------------------------- archive under churn ---

struct ArchiveRun {
  std::vector<PdTraceEvent> trace;
  double total_cost = 0.0;
  std::size_t high_water = 0;  // most archived requests at a batch boundary
  std::size_t arrivals = 0;
  std::size_t peak_active = 0;
};

/// PD over `stream` in 64-event batches. Every batch boundary checks the
/// archive against the ledger: under kRollback it holds exactly the
/// active requests and audit_state() is clean, under kFrozen it holds
/// every arrival.
ArchiveRun archive_run(const EventStream& stream, PdOptions options) {
  options.record_trace = true;
  PdOmflp pd{options};
  MaterializedEventSource source(stream);
  StreamRunOptions run_options;
  run_options.batch_size = 64;
  StreamSession session(pd, source, run_options);
  const bool rollback =
      options.deletion_policy == PdOptions::DeletionPolicy::kRollback;
  ArchiveRun run;
  while (session.step_batch() != 0) {
    run.high_water = std::max(run.high_water, pd.num_archived());
    const SolutionLedger& ledger = session.ledger();
    EXPECT_EQ(pd.num_archived(), rollback ? ledger.num_active_requests()
                                          : ledger.num_requests());
    if (!rollback) continue;
    const auto issue = pd.audit_state();
    EXPECT_FALSE(issue.has_value()) << pd.name() << ": " << *issue;
    if (issue) break;
  }
  const StreamRunResult result = session.finish();
  EXPECT_FALSE(result.violation.has_value());
  run.trace = pd.trace();
  run.total_cost = result.ledger.total_cost();
  run.arrivals = result.arrivals;
  run.peak_active = result.peak_active;
  return run;
}

TEST(PdArchive, HoldsOnlyTheRequestsThatHaveNotDeparted) {
  // Every lease-poisson arrival leaves again and the active set stays
  // near the mean lease, so under kRollback the archive must follow the
  // active set, reusing departed requests' slots, with the tables, lists
  // and bid rows auditing clean and both bid modes making the same
  // decisions bit for bit. Under kFrozen every arrival keeps bidding.
  const EventStream stream = default_stream_scenario_registry().make(
      "lease-poisson", /*seed=*/20, {{"events", 51200}});

  const ArchiveRun incremental = archive_run(stream, PdOptions{});
  EXPECT_EQ(incremental.arrivals, 51200u);
  EXPECT_LE(incremental.high_water, incremental.peak_active + 1);
  EXPECT_GT(incremental.high_water, 0u);

  // Same decisions, event for event. The raised amounts agree to
  // rounding: reference mode sums each bid row afresh, incremental mode
  // has added and shifted it over the whole stream.
  const ArchiveRun reference = archive_run(
      stream, PdOptions{.bid_mode = PdOptions::BidMode::kReference});
  EXPECT_EQ(reference.high_water, incremental.high_water);
  EXPECT_EQ(reference.total_cost, incremental.total_cost);  // bitwise
  ASSERT_EQ(reference.trace.size(), incremental.trace.size());
  for (std::size_t i = 0; i < reference.trace.size(); ++i) {
    const PdTraceEvent& r = reference.trace[i];
    const PdTraceEvent& c = incremental.trace[i];
    ASSERT_TRUE(r.request == c.request && r.constraint == c.constraint &&
                r.commodity == c.commodity && r.point == c.point)
        << "trace event " << i;
    ASSERT_NEAR(r.raised, c.raised, 1e-9 * (1.0 + r.raised))
        << "trace event " << i;
  }

  const ArchiveRun frozen = archive_run(
      stream,
      PdOptions{.deletion_policy = PdOptions::DeletionPolicy::kFrozen});
  EXPECT_EQ(frozen.high_water, frozen.arrivals);
}

// --------------------------------------------------------- regression ----

TEST(PdOmflp, ServeBeforeResetThrows) {
  PdOmflp pd;
  auto metric = std::make_shared<SinglePointMetric>();
  auto cost = std::make_shared<PolynomialCostModel>(2, 1.0);
  SolutionLedger ledger(metric, cost);
  ledger.begin_request(Request{0, CommoditySet::full_set(2)});
  EXPECT_THROW(pd.serve(Request{0, CommoditySet::full_set(2)}, ledger),
               std::logic_error);
}

TEST(PdOmflp, NameReflectsOptions) {
  EXPECT_EQ(PdOmflp{}.name(), "PD-OMFLP");
  EXPECT_NE(PdOmflp{PdOptions{.bid_mode = PdOptions::BidMode::kReference}}
                .name()
                .find("reference"),
            std::string::npos);
  EXPECT_NE(PdOmflp{PdOptions{.prediction = PdOptions::Prediction::kOff}}
                .name()
                .find("no-prediction"),
            std::string::npos);
}

TEST(PdOmflp, ResetClearsState) {
  const Instance a = random_line_instance(1, 8, 20, 4, 3);
  const Instance b = random_line_instance(1, 8, 20, 4, 3);
  PdOmflp pd;
  const SolutionLedger first = run_online(pd, a);
  const SolutionLedger second = run_online(pd, b);  // run_online resets
  EXPECT_NEAR(first.total_cost(), second.total_cost(), 1e-9);
}

}  // namespace
}  // namespace omflp
