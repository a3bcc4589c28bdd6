#include "scenario/algorithm_registry.hpp"

#include "baseline/fotakis_ofl.hpp"
#include "baseline/greedy.hpp"
#include "baseline/meyerson_ofl.hpp"
#include "core/pd_omflp.hpp"
#include "core/rand_omflp.hpp"

namespace omflp {

std::unique_ptr<OnlineAlgorithm> AlgorithmRegistry::make(
    const std::string& name, std::uint64_t seed) const {
  return spec(name).make(seed);
}

const AlgorithmRegistry& default_algorithm_registry() {
  static const AlgorithmRegistry registry = [] {
    AlgorithmRegistry r;
    r.add({.name = "pd",
           .description = "PD-OMFLP, the paper's deterministic primal-dual "
                          "Algorithm 1 (Theorem 4)",
           .make = [](std::uint64_t) { return std::make_unique<PdOmflp>(); }});
    r.add({.name = "pd-nopred",
           .description = "PD-OMFLP with prediction disabled (the §2 "
                          "Omega(|S|) ablation)",
           .make = [](std::uint64_t) {
             return std::make_unique<PdOmflp>(
                 PdOptions{.prediction = PdOptions::Prediction::kOff});
           }});
    r.add({.name = "pd-seenunion",
           .description = "PD-OMFLP opening large facilities with the union "
                          "of commodities seen so far (§5 variant)",
           .make = [](std::uint64_t) {
             return std::make_unique<PdOmflp>(PdOptions{
                 .large_config = PdOptions::LargeConfig::kSeenUnion});
           }});
    r.add({.name = "rand",
           .description = "RAND-OMFLP, the paper's randomized Algorithm 2 "
                          "(Theorem 19)",
           .randomized = true,
           .make = [](std::uint64_t seed) {
             return std::make_unique<RandOmflp>(RandOptions{.seed = seed});
           }});
    r.add({.name = "fotakis",
           .description = "per-commodity product of Fotakis' deterministic "
                          "OFL (the §1.3 O(|S| log n) baseline)",
           .make = [](std::uint64_t) {
             return std::make_unique<FotakisOfl>();
           }});
    r.add({.name = "meyerson",
           .description = "per-commodity product of Meyerson's randomized "
                          "OFL",
           .randomized = true,
           .make = [](std::uint64_t seed) {
             return std::make_unique<MeyersonOfl>(seed);
           }});
    r.add({.name = "greedy",
           .description = "NearestOrOpen: connect if cheaper than opening, "
                          "no amortization",
           .make = [](std::uint64_t) {
             return std::make_unique<NearestOrOpen>();
           }});
    r.add({.name = "rentbuy",
           .description = "RentOrBuy: NearestOrOpen with a ski-rental "
                          "account per commodity",
           .make = [](std::uint64_t) {
             return std::make_unique<RentOrBuy>();
           }});
    r.add({.name = "alwaysopen",
           .description = "open a facility with exactly the demand set at "
                          "every request (strawman)",
           .make = [](std::uint64_t) {
             return std::make_unique<AlwaysOpen>();
           }});
    return r;
  }();
  return registry;
}

}  // namespace omflp
