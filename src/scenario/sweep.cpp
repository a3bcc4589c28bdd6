#include "scenario/sweep.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "analysis/competitive.hpp"
#include "scenario/registry_util.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace omflp {

SweepResult::SweepResult(std::vector<std::string> scenarios,
                         std::vector<std::string> algorithms,
                         std::size_t seeds, std::vector<SweepCell> cells)
    : scenarios_(std::move(scenarios)),
      algorithms_(std::move(algorithms)),
      seeds_(seeds),
      cells_(std::move(cells)) {}

const SweepCell& SweepResult::cell(const std::string& scenario,
                                   const std::string& algorithm) const {
  for (const SweepCell& c : cells_)
    if (c.scenario == scenario && c.algorithm == algorithm) return c;
  throw std::invalid_argument("SweepResult: no cell (" + scenario + ", " +
                              algorithm + ")");
}

void SweepResult::write_csv(std::ostream& os) const {
  TableWriter table({"scenario", "algorithm", "seeds", "ratio_mean",
                     "ratio_ci95", "ratio_min", "ratio_max", "cost_mean",
                     "opening_mean", "connection_mean", "facilities_mean",
                     "wall_ms_mean", "requests_per_sec_mean", "opt_exact",
                     "lower_mean", "certified_ratio_mean",
                     "certified_ratio_max", "gap_mean", "lower_certified"});
  table.set_precision(6);
  for (const SweepCell& c : cells_) {
    table.begin_row()
        .add(c.scenario)
        .add(c.algorithm)
        .add(c.ratio.count())
        .add(c.ratio.mean())
        .add(c.ratio.ci95_halfwidth())
        .add(c.ratio.min())
        .add(c.ratio.max())
        .add(c.total_cost.mean())
        .add(c.opening_cost.mean())
        .add(c.connection_cost.mean())
        .add(c.facilities.mean())
        .add(c.wall_ms.mean())
        .add(c.requests_per_sec.mean())
        .add(c.opt_exact)
        .add(c.lower.count() ? c.lower.mean() : 0.0)
        .add(c.certified_ratio.count() ? c.certified_ratio.mean() : 0.0)
        .add(c.certified_ratio.count() ? c.certified_ratio.max() : 0.0)
        .add(c.gap.count() ? c.gap.mean() : 0.0)
        .add(c.lower_certified);
  }
  table.write_csv(os);
}

void SweepResult::write_json(std::ostream& os) const {
  os.precision(17);
  os << "[\n";
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const SweepCell& c = cells_[i];
    os << "  {\"scenario\": " << json_quoted(c.scenario)
       << ", \"algorithm\": " << json_quoted(c.algorithm)
       << ", \"seeds\": " << c.ratio.count()
       << ", \"ratio_mean\": " << c.ratio.mean()
       << ", \"ratio_ci95\": " << c.ratio.ci95_halfwidth()
       << ", \"ratio_min\": " << c.ratio.min()
       << ", \"ratio_max\": " << c.ratio.max()
       << ", \"cost_mean\": " << c.total_cost.mean()
       << ", \"opening_mean\": " << c.opening_cost.mean()
       << ", \"connection_mean\": " << c.connection_cost.mean()
       << ", \"facilities_mean\": " << c.facilities.mean()
       << ", \"wall_ms_mean\": " << c.wall_ms.mean()
       << ", \"wall_ms_max\": " << c.wall_ms.max()
       << ", \"requests_per_sec_mean\": " << c.requests_per_sec.mean()
       << ", \"opt_exact\": " << c.opt_exact
       << ", \"lower_mean\": " << (c.lower.count() ? c.lower.mean() : 0.0)
       << ", \"certified_ratio_mean\": "
       << (c.certified_ratio.count() ? c.certified_ratio.mean() : 0.0)
       << ", \"certified_ratio_max\": "
       << (c.certified_ratio.count() ? c.certified_ratio.max() : 0.0)
       << ", \"gap_mean\": " << (c.gap.count() ? c.gap.mean() : 0.0)
       << ", \"lower_certified\": " << c.lower_certified << "}"
       << (i + 1 < cells_.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

namespace {

/// One (scenario, seed, algorithm) measurement, collected by the workers.
struct TrialRow {
  double ratio = 0.0;
  double total = 0.0;
  double opening = 0.0;
  double connection = 0.0;
  double facilities = 0.0;
  double wall_ms = 0.0;
  double requests_per_sec = 0.0;
  bool opt_exact = false;
  double lower = 0.0;
  double certified_ratio = 0.0;
  double gap = 0.0;
  bool lower_certified = false;
};

}  // namespace

SweepResult run_sweep(const SweepOptions& options,
                      const ScenarioRegistry& scenarios,
                      const AlgorithmRegistry& algorithms) {
  std::vector<std::string> scenario_names =
      options.scenarios.empty() ? scenarios.names() : options.scenarios;
  std::vector<std::string> algorithm_names =
      options.algorithms.empty() ? algorithms.names() : options.algorithms;
  if (options.seeds == 0)
    throw std::invalid_argument("run_sweep: seeds must be positive");
  // Resolve every name up front so a typo fails before any work runs.
  for (const std::string& name : scenario_names) (void)scenarios.spec(name);
  for (const std::string& name : algorithm_names) (void)algorithms.spec(name);
  // Overrides apply leniently per scenario (heterogeneous sweeps), but a
  // key declared by *no* selected scenario is always a typo — fail fast
  // instead of silently sweeping at the defaults.
  for (const auto& [key, _] : options.overrides) {
    bool declared = false;
    for (const std::string& name : scenario_names) {
      for (const ScenarioParam& param : scenarios.spec(name).params)
        if (param.name == key) {
          declared = true;
          break;
        }
      if (declared) break;
    }
    if (!declared)
      throw std::invalid_argument(
          "run_sweep: override '" + key +
          "' is not declared by any selected scenario");
  }

  const std::size_t num_scenarios = scenario_names.size();
  const std::size_t num_algorithms = algorithm_names.size();
  const std::size_t num_seeds = options.seeds;

  // results[(scenario, seed)][algorithm]: each parallel unit owns one
  // disjoint slot, so collection needs no synchronization and the outcome
  // is independent of scheduling.
  std::vector<std::vector<TrialRow>> results(
      num_scenarios * num_seeds, std::vector<TrialRow>(num_algorithms));

  parallel_for(
      num_scenarios * num_seeds,
      [&](std::size_t unit) {
        const std::size_t scenario_index = unit / num_seeds;
        const std::size_t seed_index = unit % num_seeds;
        const std::uint64_t seed = options.seed_base + seed_index;
        const Instance instance = scenarios.make_lenient(
            scenario_names[scenario_index], seed, options.overrides);
        const OptEstimate opt = estimate_opt(instance, options.opt);
        for (std::size_t a = 0; a < num_algorithms; ++a) {
          auto algorithm = algorithms.make(algorithm_names[a],
                                           derive_algorithm_seed(seed));
          const RatioResult measured =
              measure_ratio(*algorithm, instance, opt);
          TrialRow& row = results[unit][a];
          row.ratio = measured.ratio;
          row.total = measured.algorithm_cost;
          row.opening = measured.opening_cost;
          row.connection = measured.connection_cost;
          row.facilities =
              static_cast<double>(measured.facilities_opened);
          row.wall_ms = measured.run_ns / 1e6;
          // run_ns is clock-quantized; clamp so trivial runs do not
          // divide by zero.
          row.requests_per_sec =
              static_cast<double>(instance.num_requests()) * 1e9 /
              std::max(measured.run_ns, 1.0);
          row.opt_exact = measured.opt_exact;
          row.lower_certified = measured.opt_lower_certified;
          if (measured.opt_lower_certified) {
            row.lower = measured.opt_lower;
            row.certified_ratio = measured.certified_ratio;
            row.gap = measured.opt_cost > 0.0
                          ? (measured.opt_cost - measured.opt_lower) /
                                measured.opt_cost
                          : 0.0;
          }
        }
      },
      options.threads);

  // Reduce in (scenario, algorithm, seed) order — deterministic summaries.
  std::vector<SweepCell> cells;
  cells.reserve(num_scenarios * num_algorithms);
  for (std::size_t s = 0; s < num_scenarios; ++s) {
    for (std::size_t a = 0; a < num_algorithms; ++a) {
      SweepCell cell;
      cell.scenario = scenario_names[s];
      cell.algorithm = algorithm_names[a];
      for (std::size_t k = 0; k < num_seeds; ++k) {
        const TrialRow& row = results[s * num_seeds + k][a];
        cell.ratio.add(row.ratio);
        cell.total_cost.add(row.total);
        cell.opening_cost.add(row.opening);
        cell.connection_cost.add(row.connection);
        cell.facilities.add(row.facilities);
        cell.wall_ms.add(row.wall_ms);
        cell.requests_per_sec.add(row.requests_per_sec);
        if (row.opt_exact) ++cell.opt_exact;
        if (row.lower_certified) {
          ++cell.lower_certified;
          cell.lower.add(row.lower);
          cell.certified_ratio.add(row.certified_ratio);
          cell.gap.add(row.gap);
        }
      }
      cells.push_back(std::move(cell));
    }
  }
  return SweepResult(std::move(scenario_names), std::move(algorithm_names),
                     num_seeds, std::move(cells));
}

}  // namespace omflp
