// Service placement — the paper's §1 motivation, end to end.
//
// A provider operates a network (weighted graph); clients appear at nodes
// over time and request bundles of services (commodities). Instantiating
// a service bundle in one VM costs less than separate VMs (sqrt-in-size
// opening cost), and a client talking to one node that hosts several of
// its services pays for a single network path.
//
// This example builds the network, streams Zipf-popular client requests,
// runs the full algorithm roster and prints a comparison table plus the
// deployment PD-OMFLP chose.
//
//   $ ./examples/service_placement [seed]
#include <cstdlib>
#include <iostream>

#include "omflp.hpp"

int main(int argc, char** argv) {
  using namespace omflp;
  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // ---- the scenario -------------------------------------------------------
  constexpr CommodityId kServices = 12;  // |S|
  Rng rng(seed);
  ServiceNetworkConfig config;
  config.num_nodes = 30;
  config.num_requests = 150;
  config.num_commodities = kServices;
  config.min_demand = 1;
  config.max_demand = 5;
  config.commodity_popularity_exponent = 0.9;  // some services are hot
  config.node_popularity_exponent = 0.7;       // some regions are busy

  // Opening cost: 6·sqrt(#services) per VM — bundling is worthwhile.
  auto cost = std::make_shared<PolynomialCostModel>(kServices, 1.0, 6.0);
  const Instance instance = make_service_network(config, cost, rng);
  std::cout << "Scenario: " << instance.name() << " on "
            << instance.metric().description() << ", cost "
            << instance.cost().description() << "\n\n";

  // ---- one offline reference ---------------------------------------------
  const OptEstimate opt = estimate_opt(instance);
  std::cout << "Offline reference (" << opt.method
            << (opt.exact ? ", exact" : ", upper bound") << "): " << opt.cost
            << "\n\n";

  // ---- the roster ---------------------------------------------------------
  struct Entry {
    std::string label;
    std::unique_ptr<OnlineAlgorithm> algorithm;
  };
  std::vector<Entry> roster;
  roster.push_back({"PD-OMFLP (Algorithm 1)", std::make_unique<PdOmflp>()});
  roster.push_back({"RAND-OMFLP (Algorithm 2)",
                    std::make_unique<RandOmflp>(RandOptions{.seed = seed})});
  roster.push_back(
      {"PD without prediction",
       std::make_unique<PdOmflp>(
           PdOptions{.prediction = PdOptions::Prediction::kOff})});
  roster.push_back(
      {"per-service Fotakis (trivial baseline)",
       std::make_unique<FotakisOfl>()});
  roster.push_back({"greedy nearest-or-open",
                    std::make_unique<NearestOrOpen>()});

  TableWriter table({"algorithm", "total", "opening", "connection",
                     "facilities", "large", "vs offline"});
  for (Entry& entry : roster) {
    const SolutionLedger ledger = run_online(*entry.algorithm, instance);
    if (const auto violation = verify_solution(instance, ledger)) {
      std::cerr << entry.label << ": INVALID (" << violation->what << ")\n";
      return 1;
    }
    table.begin_row()
        .add(entry.label)
        .add(ledger.total_cost())
        .add(ledger.opening_cost())
        .add(ledger.connection_cost())
        .add(ledger.num_facilities())
        .add(ledger.num_large_facilities())
        .add(ledger.total_cost() / opt.cost);
  }
  table.write_markdown(std::cout);

  // ---- PD's deployment, in provider terms ---------------------------------
  PdOmflp pd;
  const SolutionLedger ledger = run_online(pd, instance);
  std::cout << "\nPD-OMFLP's deployment plan (" << ledger.num_facilities()
            << " VM placements):\n";
  for (const OpenFacilityRecord& f : ledger.facilities()) {
    std::cout << "  node " << f.location << ": "
              << (f.config.is_full() ? "FULL service stack"
                                     : "services " + f.config.to_string())
              << "  (setup cost " << f.open_cost << ")\n";
  }
  return 0;
}
