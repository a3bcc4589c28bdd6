// Tests for the perf telemetry subsystem: PerfCounters semantics, the
// counter hooks through the algorithm roster, BenchSuite runs, the
// BENCH_*.json write/read round-trip, the exact counter gate of
// compare_reports, and the lock-free LatencyHistogram backing the
// serving engine's percentiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/online_algorithm.hpp"
#include "perf/bench_compare.hpp"
#include "perf/bench_suite.hpp"
#include "perf/latency_histogram.hpp"
#include "perf/perf_counters.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/sweep.hpp"
#include "solution/verifier.hpp"

namespace omflp {
namespace {

Instance small_instance() {
  return default_scenario_registry().make(
      "uniform-line", /*seed=*/3,
      {{"points", 8}, {"requests", 16}, {"commodities", 4}});
}

// ------------------------------------------------------------- counters ---

TEST(PerfCounters, NoSinkMeansNothingCounted) {
  ASSERT_EQ(perf::thread_sink(), nullptr);
  auto algorithm = default_algorithm_registry().make("pd");
  (void)run_online(*algorithm, small_instance());
  // Nothing observable: the only claim testable here is that running
  // without a scope neither crashes nor leaves a sink behind.
  EXPECT_EQ(perf::thread_sink(), nullptr);
}

TEST(PerfCounters, ScopeInstallsAndRestores) {
  PerfCounters outer_counters;
  {
    PerfScope outer(outer_counters);
    EXPECT_EQ(perf::thread_sink(), &outer_counters);
    {
      PerfCounters inner_counters;
      PerfScope inner(inner_counters);
      EXPECT_EQ(perf::thread_sink(), &inner_counters);
      OMFLP_PERF_COUNT(coin_flips);
      EXPECT_EQ(inner_counters.coin_flips, 1u);
      EXPECT_EQ(outer_counters.coin_flips, 0u);
    }
    EXPECT_EQ(perf::thread_sink(), &outer_counters);
    OMFLP_PERF_ADD(coin_flips, 2);
    EXPECT_EQ(outer_counters.coin_flips, 2u);
  }
  EXPECT_EQ(perf::thread_sink(), nullptr);
}

TEST(PerfCounters, AggregationAndReset) {
  PerfCounters a;
  a.distance_lookups = 3;
  a.coin_flips = 1;
  PerfCounters b;
  b.distance_lookups = 4;
  b.verifier_checks = 2;
  a += b;
  EXPECT_EQ(a.distance_lookups, 7u);
  EXPECT_EQ(a.coin_flips, 1u);
  EXPECT_EQ(a.verifier_checks, 2u);
  EXPECT_FALSE(a.all_zero());
  a.reset();
  EXPECT_TRUE(a.all_zero());
}

TEST(PerfCounters, PdRunCountsItsWorkUnits) {
  const Instance instance = small_instance();
  auto pd = default_algorithm_registry().make("pd");
  PerfCounters counters;
  {
    PerfScope scope(counters);
    (void)run_online(*pd, instance);
  }
  EXPECT_GT(counters.distance_lookups, 0u);
  EXPECT_GT(counters.bids_evaluated, 0u);
  EXPECT_GT(counters.bids_updated, 0u);  // incremental mode maintains rows
  EXPECT_GT(counters.facilities_opened, 0u);
  EXPECT_EQ(counters.requests_served, instance.num_requests());
  EXPECT_EQ(counters.coin_flips, 0u);  // deterministic algorithm
}

TEST(PerfCounters, RandRunFlipsCoinsButEvaluatesNoBids) {
  const Instance instance = small_instance();
  auto rand = default_algorithm_registry().make("rand", /*seed=*/5);
  PerfCounters counters;
  {
    PerfScope scope(counters);
    (void)run_online(*rand, instance);
  }
  EXPECT_GT(counters.coin_flips, 0u);
  EXPECT_GT(counters.distance_lookups, 0u);
  // The §4 efficiency contrast, as a counter identity: RAND maintains no
  // bid structures at all.
  EXPECT_EQ(counters.bids_evaluated, 0u);
  EXPECT_EQ(counters.bids_updated, 0u);
}

TEST(PerfCounters, CountsAreDeterministicAcrossRuns) {
  const Instance instance = small_instance();
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (const std::string& name : registry.names()) {
    PerfCounters first, second;
    {
      auto algorithm = registry.make(name, 9);
      PerfScope scope(first);
      (void)run_online(*algorithm, instance);
    }
    {
      auto algorithm = registry.make(name, 9);
      PerfScope scope(second);
      (void)run_online(*algorithm, instance);
    }
    // Field-by-field equality via the visitor on both structs.
    std::vector<std::uint64_t> lhs, rhs;
    PerfCounters::for_each_field(
        first, [&](const char*, std::uint64_t v) { lhs.push_back(v); });
    PerfCounters::for_each_field(
        second, [&](const char*, std::uint64_t v) { rhs.push_back(v); });
    EXPECT_EQ(lhs, rhs) << name;
  }
}

TEST(PerfCounters, VerifierChecksCountRecords) {
  const Instance instance = small_instance();
  auto pd = default_algorithm_registry().make("pd");
  const SolutionLedger ledger = run_online(*pd, instance);
  PerfCounters counters;
  {
    PerfScope scope(counters);
    ASSERT_FALSE(verify_solution(instance, ledger).has_value());
  }
  EXPECT_EQ(counters.verifier_checks,
            ledger.num_facilities() + instance.num_requests());
}

// ----------------------------------------------------------- bench suite ---

TEST(BenchSuite, RejectsBadCases) {
  BenchSuite suite("t");
  EXPECT_THROW(suite.add(BenchCase{"", 1, [] {}}), std::invalid_argument);
  EXPECT_THROW(suite.add(BenchCase{"x", 1, nullptr}),
               std::invalid_argument);
  suite.add(BenchCase{"x", 1, [] {}});
  EXPECT_THROW(suite.add(BenchCase{"x", 1, [] {}}), std::invalid_argument);
}

TEST(BenchSuite, RunProducesSaneReport) {
  BenchSuite suite("tiny");
  int timed_calls = 0, instrumented_calls = 0;
  suite.add(BenchCase{"counting", 10, [&] {
                        PerfCounters* sink = perf::thread_sink();
                        if (sink) sink->coin_flips += 4;
                        ++(sink ? instrumented_calls : timed_calls);
                      }});
  const BenchReport report = suite.run();
  // One timed pass with counting off, one instrumented pass.
  EXPECT_EQ(timed_calls, 1);
  EXPECT_EQ(instrumented_calls, 1);
  ASSERT_EQ(report.cases.size(), 1u);
  const BenchCaseResult& c = report.cases[0];
  EXPECT_EQ(c.name, "counting");
  EXPECT_EQ(c.trials, 1u);
  EXPECT_GT(c.ns_per_op, 0.0);
  EXPECT_EQ(c.ns_per_op_mean, c.ns_per_op);
  EXPECT_EQ(c.ns_per_op_min, c.ns_per_op);
  EXPECT_EQ(c.ns_per_op_max, c.ns_per_op);
  EXPECT_GT(c.requests_per_sec, 0.0);
  EXPECT_EQ(c.counters.coin_flips, 4u);  // exactly one instrumented pass
  EXPECT_EQ(report.schema_version, kBenchSchemaVersion);
  EXPECT_FALSE(report.git_sha.empty());
  EXPECT_NE(report.find("counting"), nullptr);
  EXPECT_EQ(report.find("absent"), nullptr);
}

TEST(BenchSuite, DefaultSuiteCoversTheFullRoster) {
  const BenchSuite suite = default_bench_suite();
  const std::vector<std::string> cases = suite.case_names();
  for (const std::string& algorithm :
       default_algorithm_registry().names()) {
    const std::string expected = "algo/" + algorithm + "/uniform-line";
    EXPECT_NE(std::find(cases.begin(), cases.end(), expected), cases.end())
        << "missing case " << expected;
  }
  // The stream, tracing and engine cases ride along.
  for (const char* name : {"stream/churn-pd", "trace/on", "serve/mixed-pd"}) {
    EXPECT_NE(std::find(cases.begin(), cases.end(), name), cases.end())
        << "missing case " << name;
  }
}

// ------------------------------------------------------- json round trip ---

BenchReport tiny_report() {
  BenchSuite suite("roundtrip \"quoted\"");
  suite.add(BenchCase{"case/one", 7, [] {
                        PerfCounters* sink = perf::thread_sink();
                        if (sink) {
                          sink->distance_lookups += 11;
                          sink->verifier_checks += 2;
                        }
                      }});
  suite.add(BenchCase{"case/two", 3, [] {}});
  return suite.run();
}

TEST(BenchJson, WriteReadRoundTrip) {
  const BenchReport written = tiny_report();
  std::ostringstream os;
  written.write_json(os);

  std::istringstream is(os.str());
  const BenchReport read = read_bench_report(is);

  EXPECT_EQ(read.schema_version, written.schema_version);
  EXPECT_EQ(read.suite, written.suite);
  EXPECT_EQ(read.git_sha, written.git_sha);
  EXPECT_EQ(read.build_type, written.build_type);
  EXPECT_EQ(read.compiler, written.compiler);
  EXPECT_EQ(read.build_flags, written.build_flags);
  EXPECT_EQ(read.trials, written.trials);
  EXPECT_EQ(read.warmup, written.warmup);
  ASSERT_EQ(read.cases.size(), written.cases.size());
  for (std::size_t i = 0; i < read.cases.size(); ++i) {
    EXPECT_EQ(read.cases[i].name, written.cases[i].name);
    EXPECT_EQ(read.cases[i].requests_per_op,
              written.cases[i].requests_per_op);
    // 17 significant digits in the writer: doubles round-trip exactly.
    EXPECT_EQ(read.cases[i].ns_per_op, written.cases[i].ns_per_op);
    EXPECT_EQ(read.cases[i].requests_per_sec,
              written.cases[i].requests_per_sec);
    std::vector<std::uint64_t> lhs, rhs;
    PerfCounters::for_each_field(
        read.cases[i].counters,
        [&](const char*, std::uint64_t v) { lhs.push_back(v); });
    PerfCounters::for_each_field(
        written.cases[i].counters,
        [&](const char*, std::uint64_t v) { rhs.push_back(v); });
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(BenchJson, RejectsMalformedAndWrongSchema) {
  {
    std::istringstream is("{\"schema_version\": 999}");
    EXPECT_THROW((void)read_bench_report(is), std::runtime_error);
  }
  {
    std::istringstream is("{not json");
    EXPECT_THROW((void)read_bench_report(is), std::runtime_error);
  }
  {
    std::istringstream is("{\"schema_version\": 1}");  // missing fields
    EXPECT_THROW((void)read_bench_report(is), std::runtime_error);
  }
}

std::string tiny_report_json(const BenchReport& report) {
  std::ostringstream os;
  report.write_json(os);
  return os.str();
}

TEST(BenchJson, CounterTotalsRoundTripExactly) {
  BenchReport report = tiny_report();
  // 2^53 + 1 is the first integer a double cannot hold.
  report.cases[0].counters.distance_lookups = (std::uint64_t{1} << 53) + 1;
  report.cases[0].counters.bids_evaluated =
      std::numeric_limits<std::uint64_t>::max();
  std::istringstream is(tiny_report_json(report));
  const BenchReport read = read_bench_report(is);
  EXPECT_EQ(read.cases[0].counters.distance_lookups,
            (std::uint64_t{1} << 53) + 1);
  EXPECT_EQ(read.cases[0].counters.bids_evaluated,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(BenchJson, RejectsNonIntegerAndOutOfRangeCounts) {
  const std::string json = tiny_report_json(tiny_report());
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = json;
    const auto at = out.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) out.replace(at, from.size(), to);
    return out;
  };
  for (const std::string& bad : {
           replaced("\"requests_per_op\": 7", "\"requests_per_op\": 1e300"),
           replaced("\"requests_per_op\": 7", "\"requests_per_op\": 7.5"),
           replaced("\"schema_version\": 1", "\"schema_version\": 1.5"),
           replaced("\"schema_version\": 1", "\"schema_version\": 1e0"),
           replaced("\"schema_version\": 1",
                    "\"schema_version\": 4294967297"),
           replaced("\"distance_lookups\": 11",
                    "\"distance_lookups\": 18446744073709551616"),
           replaced("\"distance_lookups\": 11",
                    "\"distance_lookups\": -11"),
       }) {
    std::istringstream is(bad);
    EXPECT_THROW((void)read_bench_report(is), std::runtime_error) << bad;
  }
}

TEST(BenchJson, ReadsOptionalLatencyAndCounterSubsets) {
  BenchReport report = tiny_report();
  report.cases[0].latency.count = 3;
  report.cases[0].latency.total_ns = 300.0;
  report.cases[0].latency.max_ns = 150.0;
  std::string json = tiny_report_json(report);
  ASSERT_NE(json.find("\"latency\": {"), std::string::npos);
  // A report from an older build: fewer counters, one this build does
  // not know.
  const std::string from = "\"distance_lookups\": 11, ";
  const auto at = json.find(from);
  ASSERT_NE(at, std::string::npos);
  json.replace(at, from.size(), "\"retired_counter\": 4, ");
  std::istringstream is(json);
  const BenchReport read = read_bench_report(is);
  ASSERT_EQ(read.cases.size(), 2u);
  EXPECT_EQ(read.cases[0].counters.distance_lookups, 0u);
  EXPECT_EQ(read.cases[0].counters.verifier_checks, 2u);
  EXPECT_EQ(read.cases[0].ns_per_op, report.cases[0].ns_per_op);
}

// --------------------------------------------------------------- compare ---

BenchReport synthetic_report(double ns_one, double ns_two) {
  BenchReport report;
  report.suite = "synthetic";
  report.git_sha = "deadbeef";
  report.build_type = "Release";
  report.compiler = "test";
  report.build_flags = "";
  report.trials = 1;
  BenchCaseResult one;
  one.name = "one";
  one.ns_per_op = ns_one;
  one.counters.distance_lookups = 100;
  one.counters.bids_evaluated = 40;
  report.cases.push_back(one);
  BenchCaseResult two;
  two.name = "two";
  two.ns_per_op = ns_two;
  two.counters.coin_flips = 7;
  report.cases.push_back(two);
  return report;
}

std::string table_of(const CompareReport& comparison) {
  std::ostringstream os;
  comparison.write_table(os);
  return os.str();
}

TEST(Compare, IdenticalReportsPass) {
  const BenchReport report = synthetic_report(1000.0, 1000.0);
  const CompareReport comparison = compare_reports(report, report);
  ASSERT_EQ(comparison.deltas.size(), 2u);
  EXPECT_EQ(comparison.deltas[0].status, CaseDelta::Status::kSame);
  EXPECT_EQ(comparison.deltas[1].status, CaseDelta::Status::kSame);
  EXPECT_TRUE(comparison.passed());
  EXPECT_NE(table_of(comparison).find("ok: all 2 case(s)"),
            std::string::npos);
}

TEST(Compare, OneCounterOffByOneFailsAndIsNamed) {
  const BenchReport old_report = synthetic_report(1000.0, 1000.0);
  BenchReport new_report = old_report;
  ++new_report.cases[1].counters.coin_flips;
  const CompareReport comparison = compare_reports(old_report, new_report);
  EXPECT_FALSE(comparison.passed());
  EXPECT_EQ(comparison.failures, 1u);
  EXPECT_EQ(comparison.deltas[0].status, CaseDelta::Status::kSame);
  const CaseDelta& changed = comparison.deltas[1];
  EXPECT_EQ(changed.status, CaseDelta::Status::kChanged);
  ASSERT_EQ(changed.changed.size(), 1u);
  EXPECT_EQ(changed.changed[0].counter, "coin_flips");
  EXPECT_EQ(changed.changed[0].old_value, 7u);
  EXPECT_EQ(changed.changed[0].new_value, 8u);
  const std::string table = table_of(comparison);
  EXPECT_NE(table.find("| two "), std::string::npos) << table;
  EXPECT_NE(table.find("| coin_flips "), std::string::npos) << table;
  EXPECT_NE(table.find("FAIL: 1 of 2"), std::string::npos) << table;
}

TEST(Compare, RequestsPerOpIsPartOfTheGate) {
  const BenchReport old_report = synthetic_report(1000.0, 1000.0);
  BenchReport new_report = old_report;
  new_report.cases[0].requests_per_op = 2;
  const CompareReport comparison = compare_reports(old_report, new_report);
  EXPECT_FALSE(comparison.passed());
  ASSERT_EQ(comparison.deltas[0].changed.size(), 1u);
  EXPECT_EQ(comparison.deltas[0].changed[0].counter, "requests_per_op");
}

TEST(Compare, CaseInOnlyOneReportFails) {
  const BenchReport full = synthetic_report(1000.0, 1000.0);
  BenchReport partial = full;
  partial.cases.pop_back();  // "two" exists only in `full`

  const CompareReport dropped = compare_reports(full, partial);
  EXPECT_FALSE(dropped.passed());
  ASSERT_EQ(dropped.deltas.size(), 2u);
  EXPECT_EQ(dropped.deltas[1].status, CaseDelta::Status::kOnlyOld);
  EXPECT_NE(table_of(dropped).find("only in old"), std::string::npos);

  const CompareReport added = compare_reports(partial, full);
  EXPECT_FALSE(added.passed());
  ASSERT_EQ(added.deltas.size(), 2u);
  EXPECT_EQ(added.deltas[1].status, CaseDelta::Status::kOnlyNew);
  EXPECT_NE(table_of(added).find("only in new"), std::string::npos);
}

TEST(Compare, WallTimeAloneNeverFails) {
  const CompareReport comparison =
      compare_reports(synthetic_report(1000.0, 1000.0),
                      synthetic_report(5000.0, 10.0));
  EXPECT_TRUE(comparison.passed());
  EXPECT_EQ(comparison.failures, 0u);
  EXPECT_EQ(comparison.deltas[0].old_ns_per_op, 1000.0);
  EXPECT_EQ(comparison.deltas[0].new_ns_per_op, 5000.0);
}

// ------------------------------------------------------ latency histogram ---

TEST(LatencyHistogram, BucketIndexIsMonotoneWithBoundedRelativeError) {
  int previous = -1;
  for (std::uint64_t value = 0; value < 4096; ++value) {
    const int bucket = LatencyHistogram::bucket_index(value);
    EXPECT_GE(bucket, previous) << value;
    previous = bucket;
    if (value >= 8) {
      const double representative = LatencyHistogram::bucket_value(bucket);
      EXPECT_NEAR(representative, static_cast<double>(value),
                  0.125 * static_cast<double>(value))
          << value;
    }
  }
  // Huge values stay in range instead of indexing past the last bucket.
  EXPECT_LT(LatencyHistogram::bucket_index(~std::uint64_t{0}),
            LatencyHistogram::kNumBuckets);
}

TEST(LatencyHistogram, QuantilesTrackAKnownDistribution) {
  LatencyHistogram histogram;
  for (int i = 0; i < 90; ++i) histogram.record_ns(1000.0);
  for (int i = 0; i < 10; ++i) histogram.record_ns(1e6);
  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.p50_ns, 1000.0, 0.13 * 1000.0);
  EXPECT_NEAR(snap.p95_ns, 1e6, 0.13 * 1e6);
  EXPECT_NEAR(snap.p99_ns, 1e6, 0.13 * 1e6);
  EXPECT_DOUBLE_EQ(snap.max_ns, 1e6);
  EXPECT_NEAR(snap.mean_ns(), (90 * 1000.0 + 10 * 1e6) / 100.0, 1.0);
  EXPECT_LE(snap.p50_ns, snap.p95_ns);
  EXPECT_LE(snap.p95_ns, snap.p99_ns);
}

TEST(LatencyHistogram, EmptySnapshotIsAllZero) {
  LatencyHistogram histogram;
  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.p50_ns, 0.0);
  EXPECT_EQ(snap.max_ns, 0.0);
  EXPECT_EQ(snap.mean_ns(), 0.0);
}

TEST(LatencyHistogram, ConcurrentRecordingLosesNothing) {
  LatencyHistogram histogram;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  {
    std::vector<std::jthread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      workers.emplace_back([&histogram, t] {
        for (int i = 0; i < kPerThread; ++i)
          histogram.record_ns(static_cast<double>(100 + t));
      });
  }
  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(LatencyHistogram, RecordClampsNonFiniteAndOutOfRangeValues) {
  // double -> uint64_t casts are UB for NaN, negative and >= 2^63 inputs
  // (timer glitches, wall-clock steps); record_ns must clamp them all.
  LatencyHistogram histogram;
  histogram.record_ns(std::nan(""));
  histogram.record_ns(-42.0);
  histogram.record_ns(-std::numeric_limits<double>::infinity());
  histogram.record_ns(std::numeric_limits<double>::infinity());
  histogram.record_ns(1e30);
  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 5u);
  // NaN / negatives saturate to 0, oversized values to 2^63 - 1.
  constexpr double kTop =
      static_cast<double>((std::uint64_t{1} << 63) - 1);
  EXPECT_DOUBLE_EQ(snap.max_ns, kTop);
  EXPECT_EQ(snap.p50_ns, 0.0);
}

TEST(LatencyHistogram, QuantileTargetsAreExactIntegers) {
  // p99.9 of exactly 1000 samples must pick rank ceil(0.999*1000) = 999,
  // not rank 1000: with 999 fast samples and one slow outlier the p999
  // still reports the fast value. The old float-ceil hack (+0.9999999)
  // overshot to rank 1000 here and returned the outlier.
  LatencyHistogram histogram;
  for (int i = 0; i < 999; ++i) histogram.record_ns(1000.0);
  histogram.record_ns(1e6);
  const LatencySnapshot snap = histogram.snapshot();
  ASSERT_EQ(snap.count, 1000u);
  EXPECT_NEAR(snap.p999_ns, 1000.0, 0.13 * 1000.0);
  EXPECT_DOUBLE_EQ(snap.max_ns, 1e6);

  // And the rank-1 floor: p50 of two samples is the smaller one
  // (ceil(0.5 * 2) = 1).
  LatencyHistogram two;
  two.record_ns(100.0);
  two.record_ns(1e6);
  const LatencySnapshot pair = two.snapshot();
  EXPECT_NEAR(pair.p50_ns, 100.0, 0.13 * 100.0);
}

TEST(LatencyHistogram, DeltaSnapshotsFlagTheCumulativeMax) {
  LatencyHistogram histogram;
  histogram.record_ns(5000.0);
  const LatencySnapshot cumulative = histogram.snapshot();
  EXPECT_FALSE(cumulative.max_is_cumulative);
  EXPECT_NE(cumulative.to_json().find("\"max_ns\":"), std::string::npos);

  LatencyBaseline baseline;
  const LatencySnapshot delta = histogram.snapshot_delta(baseline);
  EXPECT_TRUE(delta.max_is_cumulative);
  const std::string json = delta.to_json();
  EXPECT_NE(json.find("\"max_ns_cum\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"max_ns\":"), std::string::npos) << json;

  // A second interval with no new samples: counts are per-interval (0)
  // but the max keeps reporting the lifetime extremum.
  const LatencySnapshot idle = histogram.snapshot_delta(baseline);
  EXPECT_EQ(idle.count, 0u);
  EXPECT_DOUBLE_EQ(idle.max_ns, 5000.0);
}

TEST(LatencyHistogram, QuantilesNeverExceedTheObservedMax) {
  // Regression: quantiles reported the bucket midpoint, so one 16 ns
  // sample (bucket [16, 18), midpoint 17) read p50 = p999 = 17 above
  // max 16, in both the cumulative and the interval snapshot.
  LatencyHistogram histogram;
  histogram.record_ns(16.0);
  const LatencySnapshot snap = histogram.snapshot();
  EXPECT_DOUBLE_EQ(snap.max_ns, 16.0);
  EXPECT_DOUBLE_EQ(snap.p50_ns, 16.0);
  EXPECT_DOUBLE_EQ(snap.p999_ns, 16.0);
  LatencyBaseline baseline;
  const LatencySnapshot delta = histogram.snapshot_delta(baseline);
  EXPECT_DOUBLE_EQ(delta.p50_ns, 16.0);
  EXPECT_DOUBLE_EQ(delta.p999_ns, 16.0);
}

TEST(LatencyHistogram, QuantilesAreOrderedBelowTheMax) {
  // Property: p50 <= p95 <= p99 <= p999 <= max over random sample sets,
  // for the cumulative snapshot and for every interval snapshot.
  std::mt19937_64 rng(20201);
  for (int trial = 0; trial < 200; ++trial) {
    LatencyHistogram histogram;
    LatencyBaseline baseline;
    const int intervals = 1 + static_cast<int>(rng() % 3);
    for (int interval = 0; interval < intervals; ++interval) {
      const int samples = 1 + static_cast<int>(rng() % 64);
      const int octaves = 1 + static_cast<int>(rng() % 40);
      for (int i = 0; i < samples; ++i)
        histogram.record_ns(static_cast<double>(
            rng() % (std::uint64_t{1} << octaves)));
      const LatencySnapshot delta = histogram.snapshot_delta(baseline);
      for (const LatencySnapshot& snap : {delta, histogram.snapshot()}) {
        EXPECT_LE(snap.p50_ns, snap.p95_ns) << trial;
        EXPECT_LE(snap.p95_ns, snap.p99_ns) << trial;
        EXPECT_LE(snap.p99_ns, snap.p999_ns) << trial;
        EXPECT_LE(snap.p999_ns, snap.max_ns) << trial;
      }
    }
  }
}

// ---------------------------------------------------------- sweep timing ---

TEST(SweepTiming, CellsCarryWallTimeAndThroughput) {
  SweepOptions options;
  options.scenarios = {"theorem2"};
  options.algorithms = {"pd", "greedy"};
  options.seeds = 3;
  options.threads = 1;
  const SweepResult result = run_sweep(options);
  for (const SweepCell& cell : result.cells()) {
    EXPECT_EQ(cell.wall_ms.count(), 3u);
    EXPECT_EQ(cell.requests_per_sec.count(), 3u);
    EXPECT_GE(cell.wall_ms.min(), 0.0);
    EXPECT_GT(cell.requests_per_sec.min(), 0.0);
  }
  std::ostringstream csv;
  result.write_csv(csv);
  EXPECT_NE(csv.str().find("wall_ms_mean"), std::string::npos);
  EXPECT_NE(csv.str().find("requests_per_sec_mean"), std::string::npos);
  std::ostringstream json;
  result.write_json(json);
  EXPECT_NE(json.str().find("\"wall_ms_mean\""), std::string::npos);
  EXPECT_NE(json.str().find("\"requests_per_sec_mean\""),
            std::string::npos);
}

}  // namespace
}  // namespace omflp
