// The core every registry shares (scenarios, stream scenarios, workload
// mixes, algorithms, bound methods) plus small naming helpers.
#pragma once

#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace omflp {

/// "a, b, c" — for unknown-name error messages listing the known names.
inline std::string join_names(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << names[i];
  }
  return os.str();
}

/// The words a registry's errors use for itself and its entries.
struct RegistryNouns {
  std::string owner;   // prefixes add()'s errors: "StreamScenarioRegistry"
  std::string entry;   // add()'s noun: "scenario"
  std::string lookup;  // spec()'s noun: "stream scenario"
  std::string plural;  // spec()'s list noun: "stream scenarios"
};

/// A name-keyed roster of specs: the map and the lookups every registry
/// shares. Spec has a `name`; when it also has a `make` factory, add()
/// refuses a spec without one. Registries derive from it and add their
/// own make() and any extra add-time checks.
template <typename Spec>
class Registry {
 public:
  explicit Registry(RegistryNouns nouns) : nouns_(std::move(nouns)) {}

  /// Registers a spec; throws std::invalid_argument on an empty or
  /// duplicate name or a missing factory.
  void add(Spec spec) {
    if (spec.name.empty())
      throw std::invalid_argument(nouns_.owner + ": empty " + nouns_.entry +
                                  " name");
    if constexpr (requires(const Spec& s) { static_cast<bool>(s.make); }) {
      if (!spec.make)
        throw std::invalid_argument(nouns_.owner + ": " + nouns_.entry +
                                    " '" + spec.name + "' has no factory");
    }
    std::string name = spec.name;
    if (!specs_.emplace(name, std::move(spec)).second)
      throw std::invalid_argument(nouns_.owner + ": duplicate " +
                                  nouns_.entry + " '" + name + "'");
  }

  bool contains(const std::string& name) const {
    return specs_.count(name) != 0;
  }
  /// Throws std::invalid_argument listing the known names when absent.
  const Spec& spec(const std::string& name) const {
    const auto it = specs_.find(name);
    if (it == specs_.end())
      throw std::invalid_argument("unknown " + nouns_.lookup + " '" + name +
                                  "'; known " + nouns_.plural + ": " +
                                  join_names(names()));
    return it->second;
  }
  /// All registered names, sorted.
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(specs_.size());
    for (const auto& [name, _] : specs_) out.push_back(name);
    return out;
  }
  std::size_t size() const noexcept { return specs_.size(); }

 private:
  RegistryNouns nouns_;
  std::map<std::string, Spec> specs_;
};

/// Decorrelate an algorithm's coin stream from the workload seed.
///
/// Scenario factories construct `Rng(seed)` directly, and RandOmflp does
/// the same with its option seed — handing both the identical value would
/// replay the generator's exact draw sequence inside the algorithm,
/// correlating coins with the input. Deriving the coin seed through one
/// SplitMix64 step (distinct increment) keeps runs deterministic in the
/// user-facing seed while separating the two streams.
inline std::uint64_t derive_algorithm_seed(
    std::uint64_t workload_seed) noexcept {
  std::uint64_t z = (workload_seed + 0x632be59bd9b4e019ULL) *
                    0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace omflp
