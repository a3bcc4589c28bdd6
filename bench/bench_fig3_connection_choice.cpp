// Figure 3 — the connection choice between small facilities and a single
// large facility.
//
// The paper's figure shows a request with three commodities choosing the
// cheaper of (a) three separate paths to three small facilities and (b)
// one shared path to a large facility. We realize the figure as a live
// scenario: a priming sequence forces the algorithms to open three small
// facilities at distance d_small from the probe location and one large
// facility at distance d_large, then a probe request demands all three
// commodities and we watch what it connects to.
//
// The scenario's cost model (registered as "figure3" in the scenario
// registry) is engineered to pin facilities exactly where the figure
// wants them (singletons near-free at the small sites, the full bundle
// near-free only at the large site, everything else prohibitive). That
// deliberately violates subadditivity/Condition 1 — the paper's WLOG
// merging argument is exactly what we must suppress to hold the figure's
// configuration in place; the probe's *choice* mechanics (PD's
// constraints (1) vs (2), RAND's X(r) vs Z(r)) do not depend on those
// assumptions.
//
// Expected shape: the shared path wins exactly while
// d_large < 3·d_small = the sum of the separate paths; the crossover sits
// at d_large/d_small = 3 for both algorithms.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "solution/verifier.hpp"
#include "support/table.hpp"

namespace {

using namespace omflp;

std::string choice_name(std::size_t connected) {
  return connected == 1 ? "one large (shared path)" : "separate smalls";
}

}  // namespace

int main() {
  using namespace omflp::bench;
  print_bench_header(
      "Figure 3 — shared path vs separate paths",
      "Figure 3, Section 4.1; PD constraints (1)/(2), RAND's X vs Z",
      "both algorithms switch from the large facility to the three small "
      "ones when d_large exceeds 3*d_small");

  const ScenarioRegistry& scenarios = default_scenario_registry();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();
  const double d_small = 1.0;
  TableWriter table({"d_large", "3*d_small", "PD probe connects to",
                     "PD probe conn cost", "RAND majority choice",
                     "RAND large fraction"});
  for (const double d_large :
       {0.5, 1.0, 2.0, 2.9, 2.999, 3.001, 3.5, 5.0, 10.0}) {
    const Instance inst = scenarios.make(
        "figure3", /*seed=*/1,
        {{"d_small", d_small}, {"d_large", d_large}});

    auto pd = algorithms.make("pd");
    const SolutionLedger pd_ledger = run_online(*pd, inst);
    if (const auto v = verify_solution(inst, pd_ledger)) {
      std::cerr << "PD produced invalid solution: " << v->what << "\n";
      return 1;
    }
    const RequestRecord& pd_probe =
        pd_ledger.request_record(pd_ledger.num_requests() - 1);

    int rand_large = 0;
    const int seeds = 20;
    for (int seed = 0; seed < seeds; ++seed) {
      auto rand =
          algorithms.make("rand", static_cast<std::uint64_t>(seed + 1));
      const SolutionLedger rl = run_online(*rand, inst);
      if (rl.request_record(rl.num_requests() - 1).num_connected() == 1)
        ++rand_large;
    }

    table.begin_row()
        .add(d_large)
        .add(3.0 * d_small)
        .add(choice_name(pd_probe.num_connected()))
        .add(pd_probe.connection_cost)
        .add(rand_large > seeds / 2 ? "one large (shared path)"
                                    : "separate smalls")
        .add(static_cast<double>(rand_large) / seeds);
  }
  table.write_markdown(std::cout);
  std::cout << "\nCrossover at d_large = 3*d_small = 3: one shared path of "
               "length 3 costs the same as three separate unit paths.\n";
  return 0;
}
