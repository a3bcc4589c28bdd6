// Sharded serving engine tests: the workload-mix registry, engine
// construction errors, verifier-clean multi-tenant runs, and — the core
// guarantee — differential bitwise identity: the engine's per-tenant
// ledgers must equal K sequential run_stream runs of the same tenants,
// across shard counts 1/2/K and OMFLP_THREADS 1 vs 4.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "obs/metrics_sampler.hpp"
#include "perf/perf_counters.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/stream_registry.hpp"

namespace omflp {
namespace {

/// The reference: one tenant, served by a plain sequential run_stream
/// with the same derived seeds and options the engine uses.
StreamRunResult sequential_reference(const TenantSpec& spec,
                                     const EngineOptions& options) {
  const EventStream stream = default_stream_scenario_registry().make(
      spec.scenario, spec.seed, spec.overrides);
  auto algorithm = default_algorithm_registry().make(
      spec.algorithm, derive_algorithm_seed(spec.seed));
  StreamRunOptions run_options;
  run_options.batch_size = options.batch_size;
  run_options.verify = options.verify;
  return run_stream(*algorithm, stream, run_options);
}

/// The resident records of `ledger` in ascending id order.
std::vector<std::pair<RequestId, const RequestRecord*>> resident_records(
    const SolutionLedger& ledger) {
  std::vector<std::pair<RequestId, const RequestRecord*>> records;
  ledger.for_each_resident([&](RequestId id, const RequestRecord& record) {
    records.emplace_back(id, &record);
  });
  return records;
}

/// Bitwise comparison of everything observable about two runs of the
/// same tenant: costs, counts, facility records and resident request
/// records. EXPECT_EQ on doubles is exact equality — the contract is
/// bitwise, not approximate.
void expect_bitwise_identical(const StreamRunResult& actual,
                              const StreamRunResult& expected,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(actual.events, expected.events);
  EXPECT_EQ(actual.arrivals, expected.arrivals);
  EXPECT_EQ(actual.departures, expected.departures);
  EXPECT_EQ(actual.lease_expiries, expected.lease_expiries);
  EXPECT_EQ(actual.peak_active, expected.peak_active);
  EXPECT_EQ(actual.peak_resident_records, expected.peak_resident_records);

  const SolutionLedger& a = actual.ledger;
  const SolutionLedger& b = expected.ledger;
  EXPECT_EQ(a.total_cost(), b.total_cost());
  EXPECT_EQ(a.opening_cost(), b.opening_cost());
  EXPECT_EQ(a.connection_cost(), b.connection_cost());
  EXPECT_EQ(a.active_cost(), b.active_cost());
  EXPECT_EQ(a.num_requests(), b.num_requests());
  EXPECT_EQ(a.num_active_requests(), b.num_active_requests());
  EXPECT_EQ(a.first_record_id(), b.first_record_id());

  ASSERT_EQ(a.num_facilities(), b.num_facilities());
  for (std::size_t f = 0; f < a.num_facilities(); ++f) {
    const OpenFacilityRecord& fa = a.facilities()[f];
    const OpenFacilityRecord& fb = b.facilities()[f];
    EXPECT_EQ(fa.location, fb.location);
    EXPECT_EQ(fa.open_cost, fb.open_cost);
    EXPECT_EQ(fa.opened_during, fb.opened_during);
    EXPECT_TRUE(fa.config == fb.config);
  }

  const auto records_a = resident_records(a);
  const auto records_b = resident_records(b);
  ASSERT_EQ(records_a.size(), records_b.size());
  for (std::size_t r = 0; r < records_a.size(); ++r) {
    const auto& [id_a, ra] = records_a[r];
    const auto& [id_b, rb] = records_b[r];
    EXPECT_EQ(id_a, id_b);
    EXPECT_EQ(ra->connection_cost, rb->connection_cost);
    EXPECT_EQ(ra->retired_at, rb->retired_at);
  }
}

std::vector<TenantSpec> small_mixed_tenants(std::size_t count,
                                            const std::string& algorithm) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", count, /*seed=*/7, /*size_scale=*/0.25);
  for (TenantSpec& spec : specs) spec.algorithm = algorithm;
  return specs;
}

// ------------------------------------------------------------------ mixes ---

TEST(WorkloadMix, RegistryListsBuiltInsAndRejectsUnknowns) {
  const WorkloadMixRegistry& mixes = default_workload_mix_registry();
  EXPECT_GE(mixes.size(), 3u);
  EXPECT_TRUE(mixes.contains("mixed"));
  EXPECT_TRUE(mixes.contains("churn-heavy"));
  EXPECT_TRUE(mixes.contains("lease-heavy"));
  EXPECT_THROW((void)mixes.spec("no-such-mix"), std::invalid_argument);
  EXPECT_THROW((void)mixes.tenants("no-such-mix", 4, 1),
               std::invalid_argument);
  EXPECT_THROW((void)mixes.tenants("mixed", 0, 1), std::invalid_argument);
  EXPECT_THROW((void)mixes.tenants("mixed", 4, 1, /*size_scale=*/0.0),
               std::invalid_argument);
}

TEST(WorkloadMix, TenantExpansionIsDeterministicAndZipfSkewed) {
  const WorkloadMixRegistry& mixes = default_workload_mix_registry();
  const std::vector<TenantSpec> a = mixes.tenants("mixed", 12, 5);
  const std::vector<TenantSpec> b = mixes.tenants("mixed", 12, 5);
  ASSERT_EQ(a.size(), 12u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].scenario, b[i].scenario);
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].overrides, b[i].overrides);
  }
  const std::vector<TenantSpec> c = mixes.tenants("mixed", 12, 6);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].seed != c[i].seed) any_difference = true;
  EXPECT_TRUE(any_difference);

  // Zipf hotness: within one scenario family (same size_param base),
  // an earlier tenant is never smaller than a later one.
  std::map<std::string, std::pair<std::size_t, double>> last_by_scenario;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto size_it = a[i].overrides.find(
        a[i].scenario == "adversarial-churn" ? "phases" : "events");
    ASSERT_NE(size_it, a[i].overrides.end()) << a[i].name;
    const auto previous = last_by_scenario.find(a[i].scenario);
    if (previous != last_by_scenario.end())
      EXPECT_GE(previous->second.second, size_it->second) << a[i].name;
    last_by_scenario[a[i].scenario] = {i, size_it->second};
  }
}

TEST(WorkloadMix, SizeScaleShrinksWorkloads) {
  const WorkloadMixRegistry& mixes = default_workload_mix_registry();
  const std::vector<TenantSpec> full = mixes.tenants("churn-heavy", 4, 3);
  const std::vector<TenantSpec> tiny =
      mixes.tenants("churn-heavy", 4, 3, /*size_scale=*/0.125);
  ASSERT_EQ(full.size(), tiny.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].scenario, tiny[i].scenario);
    EXPECT_LE(tiny[i].overrides.at("events"),
              full[i].overrides.at("events"));
  }
}

// ----------------------------------------------------------- construction ---

TEST(ShardedEngine, ConstructionRejectsBadSpecs) {
  EXPECT_THROW(ShardedEngine({}, {}), std::invalid_argument);

  TenantSpec unknown_scenario;
  unknown_scenario.name = "t0";
  unknown_scenario.scenario = "no-such-stream";
  EXPECT_THROW(ShardedEngine({unknown_scenario}, {}),
               std::invalid_argument);

  TenantSpec unknown_algorithm;
  unknown_algorithm.name = "t0";
  unknown_algorithm.scenario = "churn-uniform";
  unknown_algorithm.algorithm = "no-such-algorithm";
  EXPECT_THROW(ShardedEngine({unknown_algorithm}, {}),
               std::invalid_argument);

  TenantSpec ok;
  ok.name = "t0";
  ok.scenario = "churn-uniform";
  ok.overrides = {{"events", 64}};
  EngineOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(ShardedEngine({ok}, zero_batch), std::invalid_argument);
}

// ----------------------------------------------------------- differential ---

TEST(ShardedEngine, MatchesSequentialRunsBitwiseAcrossShardCounts) {
  const std::size_t kTenants = 6;
  EngineOptions base;
  base.batch_size = 256;  // several rounds per tenant
  base.verify = true;

  const std::vector<TenantSpec> specs =
      small_mixed_tenants(kTenants, "pd");
  std::vector<StreamRunResult> reference;
  reference.reserve(kTenants);
  for (const TenantSpec& spec : specs)
    reference.push_back(sequential_reference(spec, base));

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   kTenants}) {
    EngineOptions options = base;
    options.shards = shards;
    const ShardedEngine engine(specs, options);
    const EngineResult result = engine.run();
    EXPECT_EQ(result.shards, shards);
    EXPECT_EQ(result.first_violation(), nullptr);
    ASSERT_EQ(result.tenants.size(), kTenants);
    for (std::size_t i = 0; i < kTenants; ++i)
      expect_bitwise_identical(
          result.tenants[i].run, reference[i],
          "shards=" + std::to_string(shards) + " tenant " + specs[i].name);
  }
}

TEST(ShardedEngine, MatchesSequentialRunsBitwiseAcrossThreadCounts) {
  const std::size_t kTenants = 5;
  EngineOptions base;
  base.batch_size = 512;
  base.verify = true;
  base.shards = 2;

  const std::vector<TenantSpec> specs =
      small_mixed_tenants(kTenants, "pd");
  std::vector<StreamRunResult> reference;
  for (const TenantSpec& spec : specs)
    reference.push_back(sequential_reference(spec, base));

  for (const char* threads : {"1", "4"}) {
    ::setenv("OMFLP_THREADS", threads, 1);
    const ShardedEngine engine(specs, base);
    const EngineResult result = engine.run();
    ::unsetenv("OMFLP_THREADS");
    EXPECT_EQ(result.first_violation(), nullptr);
    ASSERT_EQ(result.tenants.size(), kTenants);
    for (std::size_t i = 0; i < kTenants; ++i)
      expect_bitwise_identical(result.tenants[i].run, reference[i],
                               std::string("threads=") + threads +
                                   " tenant " + specs[i].name);
  }
}

TEST(ShardedEngine, VerifierOffDoesNotChangeResults) {
  const std::vector<TenantSpec> specs = small_mixed_tenants(3, "greedy");
  EngineOptions verified;
  verified.batch_size = 256;
  verified.verify = true;
  EngineOptions unverified = verified;
  unverified.verify = false;

  const EngineResult a = ShardedEngine(specs, verified).run();
  const EngineResult b = ShardedEngine(specs, unverified).run();
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].run.ledger.total_cost(),
              b.tenants[i].run.ledger.total_cost());
    EXPECT_EQ(a.tenants[i].run.ledger.active_cost(),
              b.tenants[i].run.ledger.active_cost());
  }
  EXPECT_EQ(a.aggregate_gross_cost, b.aggregate_gross_cost);
  EXPECT_EQ(a.aggregate_active_cost, b.aggregate_active_cost);
}

// Admission control under a uniform per-tenant capacity: the per-tenant
// shed/spill tables and the aggregates must be bitwise identical across
// shard counts and OMFLP_THREADS — shedding is part of the determinism
// contract, not a best-effort statistic.
TEST(ShardedEngine, CapacityShedTablesAreBitwiseAcrossShardsAndThreads) {
  const std::size_t kTenants = 4;
  EngineOptions base;
  base.batch_size = 256;
  base.verify = true;
  base.capacity = 1;  // one distinct active request per facility
  base.overflow = OverflowPolicy::kReject;
  base.shards = 1;

  const std::vector<TenantSpec> specs =
      small_mixed_tenants(kTenants, "pd");
  const EngineResult reference = ShardedEngine(specs, base).run();
  EXPECT_EQ(reference.first_violation(), nullptr);
  // Capacity 1 under reject has to actually shed, or this test is
  // vacuous.
  EXPECT_GT(reference.aggregate_shed_requests, 0u);
  std::uint64_t shed_sum = 0;
  std::uint64_t spill_sum = 0;
  for (const TenantResult& tenant : reference.tenants) {
    shed_sum += tenant.run.ledger.num_shed_requests();
    spill_sum += tenant.run.ledger.num_spilled_assignments();
  }
  EXPECT_EQ(reference.aggregate_shed_requests, shed_sum);
  EXPECT_EQ(reference.aggregate_spilled_assignments, spill_sum);

  for (const std::size_t shards : {std::size_t{2}, kTenants}) {
    for (const char* threads : {"1", "4"}) {
      EngineOptions options = base;
      options.shards = shards;
      ::setenv("OMFLP_THREADS", threads, 1);
      const EngineResult result = ShardedEngine(specs, options).run();
      ::unsetenv("OMFLP_THREADS");
      EXPECT_EQ(result.first_violation(), nullptr);
      ASSERT_EQ(result.tenants.size(), kTenants);
      EXPECT_EQ(result.aggregate_shed_requests,
                reference.aggregate_shed_requests);
      EXPECT_EQ(result.aggregate_spilled_assignments,
                reference.aggregate_spilled_assignments);
      for (std::size_t i = 0; i < kTenants; ++i) {
        const std::string label = "shards=" + std::to_string(shards) +
                                  " threads=" + threads + " tenant " +
                                  specs[i].name;
        SCOPED_TRACE(label);
        const SolutionLedger& got = result.tenants[i].run.ledger;
        const SolutionLedger& want = reference.tenants[i].run.ledger;
        EXPECT_EQ(got.num_shed_requests(), want.num_shed_requests());
        EXPECT_EQ(got.num_spilled_assignments(),
                  want.num_spilled_assignments());
        EXPECT_EQ(got.num_rejected_commodities(),
                  want.num_rejected_commodities());
        expect_bitwise_identical(result.tenants[i].run,
                                 reference.tenants[i].run, label);
      }
    }
  }
}

// -------------------------------------------------------------- aggregates ---

TEST(ShardedEngine, AggregatesAndStatsAreConsistent) {
  const std::vector<TenantSpec> specs = small_mixed_tenants(4, "greedy");
  EngineOptions options;
  options.batch_size = 128;
  const ShardedEngine engine(specs, options);
  EXPECT_EQ(engine.tenants().size(), 4u);
  EXPECT_GT(engine.total_events(), 0u);

  // Counters are collected only when the caller is already counting
  // (the bench suite's instrumented pass); plain runs stay hook-free.
  PerfCounters outer;
  std::optional<EngineResult> counted;
  {
    PerfScope scope(outer);
    counted.emplace(engine.run());
  }
  const EngineResult& result = *counted;
  EXPECT_EQ(result.total_events, engine.total_events());
  EXPECT_GT(result.rounds, 1u);
  EXPECT_GT(result.wall_ns, 0.0);
  EXPECT_GT(result.events_per_sec(), 0.0);
  // All real batches are timed (zero-event exhaustion probes are not);
  // the longest tenant alone contributes rounds - 1 of them.
  EXPECT_GE(result.batch_latency.count, result.rounds - 1);
  EXPECT_GT(result.batch_latency.p50_ns, 0.0);
  EXPECT_LE(result.batch_latency.p50_ns, result.batch_latency.p95_ns);
  EXPECT_LE(result.batch_latency.p95_ns, result.batch_latency.p99_ns);
  // The engine's merged work counters match the sequential sum.
  EXPECT_EQ(result.counters.requests_served,
            [&] {
              std::uint64_t arrivals = 0;
              for (const TenantResult& tenant : result.tenants)
                arrivals += tenant.run.arrivals;
              return arrivals;
            }());
  // Without an outer sink the engine must not count at all.
  const EngineResult uncounted = engine.run();
  EXPECT_TRUE(uncounted.counters.all_zero());

  double gross = 0.0;
  double active = 0.0;
  for (const TenantResult& tenant : result.tenants) {
    gross += tenant.run.ledger.total_cost();
    active += tenant.run.ledger.active_cost();
  }
  EXPECT_EQ(result.aggregate_gross_cost, gross);
  EXPECT_EQ(result.aggregate_active_cost, active);
}

// The engine-level form of the bounded-memory regression in test_stream:
// after every round, the sampler's resident records summed over all
// shards stay within the active requests plus one batch per tenant.
TEST(ShardedEngine, SampledResidentRecordsStayWithinActivePlusBatches) {
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "churn-heavy", /*count=*/4, /*seed=*/9);
  for (TenantSpec& spec : specs) {
    spec.algorithm = "greedy";
    spec.overrides["events"] = 4096;
  }
  std::ostringstream os;
  MetricsSampler sampler(os, MetricsSampler::Format::kJsonl);
  EngineOptions options;
  options.batch_size = 64;
  options.shards = 2;
  options.sampler = &sampler;
  const EngineResult result = ShardedEngine(specs, options).run();
  EXPECT_EQ(result.first_violation(), nullptr);

  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find("\"" + key + "\":");
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    return std::stoull(line.substr(at + key.size() + 3));
  };
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> rounds;
  std::istringstream is(os.str());
  for (std::string line; std::getline(is, line);) {
    auto& [resident, active] = rounds[field(line, "round")];
    resident += field(line, "resident_records");
    active += field(line, "active_requests");
  }
  ASSERT_EQ(rounds.size(), result.rounds);
  for (const auto& [round, totals] : rounds) {
    EXPECT_LE(totals.first,
              totals.second + specs.size() * options.batch_size)
        << "round " << round;
  }
}

TEST(ShardedEngine, SixteenMixedTenantsVerifierClean) {
  // The acceptance shape: >= 16 heterogeneous tenants, verifier on,
  // every ledger clean. Scaled down for test time; `omflp serve` and CI
  // run the full size.
  std::vector<TenantSpec> specs = default_workload_mix_registry().tenants(
      "mixed", 16, /*seed=*/1, /*size_scale=*/0.125);
  for (TenantSpec& spec : specs) spec.algorithm = "greedy";
  EngineOptions options;
  options.batch_size = 256;
  const EngineResult result = ShardedEngine(std::move(specs), options).run();
  EXPECT_EQ(result.tenants.size(), 16u);
  EXPECT_EQ(result.first_violation(), nullptr);
  std::size_t scenarios_seen = 0;
  std::map<std::string, std::size_t> by_scenario;
  for (const TenantResult& tenant : result.tenants)
    ++by_scenario[tenant.scenario];
  scenarios_seen = by_scenario.size();
  EXPECT_GE(scenarios_seen, 3u);  // genuinely heterogeneous
}

}  // namespace
}  // namespace omflp
