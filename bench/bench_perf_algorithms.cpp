// Engineering benchmark (google-benchmark): end-to-end serve throughput
// of every algorithm, the reference-vs-incremental PD bid accumulators,
// and the offline solvers.
//
// Not a paper figure — this backs the §4 remark that the randomized
// algorithm "is much more efficient to implement" with numbers, and
// quantifies what the incremental bid maintenance buys PD.
#include <benchmark/benchmark.h>

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"
#include "cost/cost_models.hpp"
#include "instance/generators.hpp"
#include "offline/local_search.hpp"
#include "offline/single_point.hpp"

namespace {

using namespace omflp;

Instance bench_instance(std::size_t n, std::size_t points, CommodityId s) {
  Rng rng(n * 131 + points * 17 + s);
  UniformLineConfig cfg;
  cfg.num_points = points;
  cfg.num_requests = n;
  cfg.num_commodities = s;
  cfg.max_demand = std::min<CommodityId>(5, s);
  return make_uniform_line(
      cfg, std::make_shared<PolynomialCostModel>(s, 1.0, 2.0), rng);
}

void run_algorithm(benchmark::State& state, OnlineAlgorithm& algorithm,
                   const Instance& instance) {
  for (auto _ : state) {
    const SolutionLedger ledger = run_online(algorithm, instance);
    benchmark::DoNotOptimize(ledger.total_cost());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              instance.num_requests()));
}

void BM_PdIncremental(benchmark::State& state) {
  const Instance inst = bench_instance(state.range(0), state.range(1), 16);
  PdOmflp pd{PdOptions{.bid_mode = PdOptions::BidMode::kIncremental}};
  run_algorithm(state, pd, inst);
}
BENCHMARK(BM_PdIncremental)
    ->Args({128, 32})
    ->Args({256, 32})
    ->Args({256, 128})
    ->Unit(benchmark::kMillisecond);

void BM_PdReference(benchmark::State& state) {
  const Instance inst = bench_instance(state.range(0), state.range(1), 16);
  PdOmflp pd{PdOptions{.bid_mode = PdOptions::BidMode::kReference}};
  run_algorithm(state, pd, inst);
}
BENCHMARK(BM_PdReference)
    ->Args({128, 32})
    ->Args({256, 32})
    ->Args({256, 128})
    ->Unit(benchmark::kMillisecond);

void BM_Rand(benchmark::State& state) {
  const Instance inst = bench_instance(state.range(0), state.range(1), 16);
  RandOmflp rand{RandOptions{.seed = 1}};
  run_algorithm(state, rand, inst);
}
BENCHMARK(BM_Rand)
    ->Args({128, 32})
    ->Args({256, 32})
    ->Args({256, 128})
    ->Unit(benchmark::kMillisecond);

void BM_PerCommodityFotakis(benchmark::State& state) {
  const Instance inst = bench_instance(state.range(0), state.range(1), 16);
  FotakisOfl fotakis;
  run_algorithm(state, fotakis, inst);
}
BENCHMARK(BM_PerCommodityFotakis)
    ->Args({256, 32})
    ->Unit(benchmark::kMillisecond);

void BM_GreedyNearestOrOpen(benchmark::State& state) {
  const Instance inst = bench_instance(state.range(0), state.range(1), 16);
  NearestOrOpen greedy;
  run_algorithm(state, greedy, inst);
}
BENCHMARK(BM_GreedyNearestOrOpen)
    ->Args({256, 32})
    ->Unit(benchmark::kMillisecond);

void BM_PdScalingInS(benchmark::State& state) {
  const Instance inst =
      bench_instance(256, 32, static_cast<CommodityId>(state.range(0)));
  PdOmflp pd;
  run_algorithm(state, pd, inst);
}
BENCHMARK(BM_PdScalingInS)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_RandScalingInS(benchmark::State& state) {
  const Instance inst =
      bench_instance(256, 32, static_cast<CommodityId>(state.range(0)));
  RandOmflp rand{RandOptions{.seed = 1}};
  run_algorithm(state, rand, inst);
}
BENCHMARK(BM_RandScalingInS)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_LocalSearchSolver(benchmark::State& state) {
  const Instance inst = bench_instance(state.range(0), 16, 8);
  for (auto _ : state) {
    const OfflineSolution sol = solve_local_search(inst);
    benchmark::DoNotOptimize(sol.cost);
  }
}
BENCHMARK(BM_LocalSearchSolver)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SinglePointExactDp(benchmark::State& state) {
  const CommodityId s = static_cast<CommodityId>(state.range(0));
  PolynomialCostModel cost(s, 1.0);
  const CommoditySet target = CommoditySet::full_set(s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(single_point_cover_cost(cost, 0, target));
  }
}
BENCHMARK(BM_SinglePointExactDp)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
