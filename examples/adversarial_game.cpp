// The Theorem 2 adversarial game, played move by move.
//
// Prints the Figure 1 view of a run: the adversary reveals one uniformly
// random commodity of its hidden set S' per round; the online algorithm
// reacts (connect / open small / open large); we track how many
// commodities the algorithm has covered ("predicted") and what it has
// paid, then compare the final cost against OPT = 1 and the bounds.
//
//   $ ./examples/adversarial_game [|S|] [seed] [pd|rand|noPred|perCommodity]
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "omflp.hpp"

int main(int argc, char** argv) {
  using namespace omflp;
  const CommodityId s =
      argc > 1 ? static_cast<CommodityId>(std::atoi(argv[1])) : 64;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;
  const std::string which = argc > 3 ? argv[3] : "pd";

  std::unique_ptr<OnlineAlgorithm> algorithm;
  if (which == "rand") {
    algorithm = std::make_unique<RandOmflp>(RandOptions{.seed = seed});
  } else if (which == "noPred") {
    algorithm = std::make_unique<PdOmflp>(
        PdOptions{.prediction = PdOptions::Prediction::kOff});
  } else if (which == "perCommodity") {
    algorithm = std::make_unique<FotakisOfl>();
  } else {
    algorithm = std::make_unique<PdOmflp>();
  }

  Rng rng(seed);
  Theorem2Config config;
  config.num_commodities = s;
  const Instance instance = make_theorem2_instance(config, rng);
  std::cout << "Theorem 2 game: |S| = " << s << ", hidden |S'| = "
            << theorem2_sequence_length(s) << ", cost g(|σ|) = ⌈|σ|/√|S|⌉, "
            << "OPT = 1 exactly.\nAlgorithm: " << algorithm->name()
            << "\n\n";

  // Drive the run manually so we can narrate between rounds.
  SolutionLedger ledger(instance.metric_ptr(), instance.cost_ptr());
  algorithm->reset(
      ProblemContext{instance.metric_ptr(), instance.cost_ptr()});

  TableWriter table({"round", "requested commodity", "ALG action",
                     "covered |⋃configs|", "cumulative cost"});
  CommoditySet covered(s);
  std::size_t known_facilities = 0;
  for (RequestId i = 0; i < instance.num_requests(); ++i) {
    const Request& request = instance.request(i);
    ledger.begin_request(request);
    algorithm->serve(request, ledger);
    ledger.finish_request();

    std::string action = "connect to existing";
    while (known_facilities < ledger.num_facilities()) {
      const OpenFacilityRecord& f = ledger.facility(known_facilities);
      covered |= f.config;
      action = f.config.is_full()
                   ? "open LARGE (all |S| commodities)"
                   : (f.config.count() == 1 ? "open small facility"
                                            : "open facility " +
                                                  f.config.to_string());
      ++known_facilities;
    }
    table.begin_row()
        .add(static_cast<long long>(i + 1))
        .add(static_cast<long long>(request.commodities.first()))
        .add(action)
        .add(static_cast<long long>(covered.count()))
        .add(ledger.total_cost());
  }
  table.write_markdown(std::cout);

  if (const auto violation = verify_solution(instance, ledger)) {
    std::cerr << "\ninvalid run: " << violation->what << "\n";
    return 1;
  }

  std::cout << "\nFinal: ALG = " << ledger.total_cost()
            << ", OPT = 1, ratio = " << ledger.total_cost() << "\n";
  std::cout << "Theorem 2 lower bound √|S|/16 = " << theorem2_bound(s)
            << "; Theorem 4 budget 15·√|S|·H_n = "
            << theorem4_bound(s, instance.num_requests()) << "\n";
  return 0;
}
