// Quickstart — the smallest complete use of the library.
//
// Build a metric space and a cost model, stream a handful of requests
// through PD-OMFLP, and inspect the priced, verified solution.
//
//   $ ./examples/quickstart
#include <iostream>

#include "omflp.hpp"

int main() {
  using namespace omflp;

  // A line metric with four candidate locations and |S| = 3 commodities
  // whose opening cost is sqrt-in-size (bundling pays off).
  auto metric = LineMetric::uniform_grid(/*n=*/4, /*length=*/30.0);
  auto cost = std::make_shared<PolynomialCostModel>(/*|S|=*/3,
                                                    /*x=*/1.0,
                                                    /*scale=*/5.0);

  std::vector<Request> requests = {
      {0, CommoditySet(3, {0})},       // commodity 0 at the left end
      {1, CommoditySet(3, {0, 1})},    // a bundle nearby
      {3, CommoditySet(3, {2})},       // commodity 2 at the right end
      {2, CommoditySet(3, {0, 1, 2})}, // everything, inland
      {1, CommoditySet(3, {1, 2})},
  };
  Instance instance(metric, cost, requests, "quickstart");

  // Run the paper's deterministic algorithm online.
  PdOmflp algorithm;
  const SolutionLedger ledger = run_online(algorithm, instance);

  // Always verify before trusting numbers.
  if (const auto violation = verify_solution(instance, ledger)) {
    std::cerr << "invalid solution: " << violation->what << "\n";
    return 1;
  }

  std::cout << "Algorithm: " << algorithm.name() << "\n";
  std::cout << "Total cost: " << ledger.total_cost() << " (opening "
            << ledger.opening_cost() << " + connection "
            << ledger.connection_cost() << ")\n\n";

  std::cout << "Facilities opened (irrevocably):\n";
  for (const OpenFacilityRecord& f : ledger.facilities()) {
    const auto& line = dynamic_cast<const LineMetric&>(instance.metric());
    std::cout << "  facility #" << f.id << " at x="
              << line.position(f.location) << " offering "
              << f.config.to_string() << " for " << f.open_cost
              << " (opened while serving request " << f.opened_during
              << ")\n";
  }

  std::cout << "\nPer-request assignments:\n";
  for (std::size_t i = 0; i < ledger.num_requests(); ++i) {
    const RequestRecord& rec = ledger.request_record(i);
    std::cout << "  request " << i << " demanding "
              << rec.request.commodities.to_string() << " connects to "
              << rec.num_connected() << " facility(ies), paying "
              << rec.connection_cost << "\n";
  }

  // Compare against the offline optimum (exact for this tiny instance).
  const OptEstimate opt = estimate_opt(instance);
  std::cout << "\nOffline OPT (" << opt.method << "): " << opt.cost
            << "  →  competitive ratio " << ledger.total_cost() / opt.cost
            << "\n";
  return 0;
}
