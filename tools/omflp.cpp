// omflp — the scenario-engine command line. `omflp help` lists every
// verb and flag, generated from the tables in kVerbs.
//
// Examples:
//   omflp run --scenario clustered --algorithm pd --seed 3 --set clusters=8
//   omflp run --scenario theorem2 --save trace.omflp
//   omflp replay trace.omflp --algorithm rand --seed 7
//   omflp sweep --scenarios all --algorithms pd,rand --seeds 8
//               ... --csv sweep.csv --json sweep.json
//   omflp stream --scenario churn-uniform --algorithm pd --save churn.omflp
//   omflp stream --trace churn.omflp --algorithm greedy --batch 4096
//   omflp serve --tenants 16 --mix mixed --algorithm pd --seq-baseline
//   omflp bound --scenario theorem2 --algorithm pd --assert-paper-bound
//   omflp bound --stream churn-uniform --window 4096 --algorithm pd
//   omflp bench --out BENCH_default.json
//   omflp compare benchmarks/BENCH_baseline.json BENCH_default.json
//
// Every run is a deterministic function of (scenario, parameters, seed):
// `replay` on a trace saved by `run --save` reproduces the same total
// cost exactly, as does re-running `run` with the same arguments; the
// same holds for `stream --trace` on a trace saved by `stream --save`.
// `stream --trace` reads the trace in bounded-memory batches and compacts
// retired ledger records, so million-event traces process in O(active
// set + batch) resident state.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/competitive.hpp"
#include "bound/registry.hpp"
#include "bound/window.hpp"
#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "instance/io.hpp"
#include "instance/stream_io.hpp"
#include "instance/tracelog_io.hpp"
#include "obs/explain.hpp"
#include "obs/metrics_sampler.hpp"
#include "obs/trace_sink.hpp"
#include "perf/bench_compare.hpp"
#include "perf/bench_suite.hpp"
#include "recover/checkpoint_store.hpp"
#include "recover/fault_plan.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "scenario/sweep.hpp"
#include "solution/verifier.hpp"
#include "support/atomic_file.hpp"
#include "support/clock.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

namespace {

using namespace omflp;

// ------------------------------------------------------------ flag tables ---
//
// Each verb declares its flags once, in its kVerbs entry (end of file);
// parse_args() reads argv against it and print_usage() renders it. The
// Args member a flag writes fixes its value kind (see parse_value). A
// default is parsed as if given; a repeated flag keeps its last value.

using Argv = std::vector<std::string>;
using Names = std::vector<std::string>;
using Overrides = std::map<std::string, double>;

// The parsed flags of one verb. Each body reads only the fields its
// verb's table declares; the others keep their zero values.
struct Args {
  Names operands, scenarios, algorithms;
  std::string scenario, instance, stream, trace, algorithm, save, method,
      save_cert, overflow, trace_out, latency_csv, csv, json, mix,
      metrics_out, checkpoint_dir, fault_plan, report_out, out;
  std::uint64_t seed = 0, seeds = 0, seed_base = 0, threads = 0, batch = 0,
                window = 0, tenants = 0, shards = 0, capacity = 0,
                sample_every = 0, checkpoint_every = 0;
  double scale = 0.0;
  std::optional<std::uint64_t> facility, request;
  std::optional<double> max_certified_ratio;
  std::vector<std::uint64_t> placement;
  Overrides set;
  bool ratio = false, no_verify = false, assert_paper_bound = false,
       seq_baseline = false, recover = false;
};

struct Flag {
  const char* name;
  std::variant<bool Args::*, std::string Args::*, std::uint64_t Args::*,
               double Args::*, std::optional<std::uint64_t> Args::*,
               std::optional<double> Args::*, Names Args::*,
               std::vector<std::uint64_t> Args::*, Overrides Args::*>
      field;
  const char* metavar;  // "" for a switch
  const char* help;
  const char* fallback = nullptr;  // the default, if any
};

// Positional operands ("OLD NEW") are all required and land in
// Args::operands.
struct Verb {
  const char* name;
  const char* operands;
  const char* summary;
  int (*body)(const Args&);
  std::vector<Flag> flags;
  const char* missing_operands = "";  // the error when too few are given
};

// Parses one flag's value into its Args member: bool is a switch (no
// value), std::optional is unset unless given, a vector is a comma list
// without empty items and Overrides is a repeatable key=value (last wins
// per key).
template <class T>
void parse_value(T& out, const std::string& text, const std::string& flag) {
  if constexpr (std::is_same_v<T, bool>) {
    out = true;
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = text;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    out = parse_u64_arg(text, flag);
  } else if constexpr (std::is_same_v<T, double>) {
    out = parse_double_arg(text, flag);
  } else if constexpr (std::is_same_v<T, Overrides>) {
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument(flag + " expects key=value, got '" +
                                  text + "'");
    const std::string key = text.substr(0, eq);
    parse_value(out[key], text.substr(eq + 1), flag + " " + key);
  } else if constexpr (requires { out.emplace(); }) {  // std::optional
    parse_value(out.emplace(), text, flag);
  } else {  // a comma list
    out.clear();
    for (std::size_t begin = 0;;) {
      const std::size_t end = std::min(text.find(',', begin), text.size());
      if (end == begin)
        throw std::invalid_argument(flag + " expects a comma list without "
                                    "empty items, got '" + text + "'");
      parse_value(out.emplace_back(), text.substr(begin, end - begin),
                  flag);
      if (end == text.size()) return;
      begin = end + 1;
    }
  }
}

Args parse_args(const Verb& verb, const Argv& argv) {
  Args args;
  auto set = [&args](const Flag& flag, const std::string& text) {
    std::visit([&](auto field) { parse_value(args.*field, text, flag.name); },
               flag.field);
  };
  for (const Flag& flag : verb.flags)
    if (flag.fallback) set(flag, flag.fallback);
  const std::string_view metavars = verb.operands;
  const auto max_operands = static_cast<std::size_t>(
      std::ranges::count(metavars, ' ') + !metavars.empty());
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& word = argv[i];
    const auto flag = std::ranges::find_if(
        verb.flags, [&](const Flag& f) { return word == f.name; });
    if (flag != verb.flags.end()) {
      const bool is_switch =
          std::holds_alternative<bool Args::*>(flag->field);
      if (!is_switch && i + 1 >= argv.size())
        throw std::invalid_argument("missing value after " + word);
      set(*flag, is_switch ? word : argv[++i]);
    } else if (!word.empty() && word[0] != '-' &&
               args.operands.size() < max_operands) {
      args.operands.push_back(word);
    } else {
      throw std::invalid_argument(std::string(verb.name) +
                                  ": unknown option " + word);
    }
  }
  if (args.operands.size() < max_operands)
    throw std::invalid_argument(std::string(verb.name) + ": " +
                                verb.missing_operands);
  return args;
}

// One help line: the flag (or verb) padded to a fixed column, then text.
void usage_row(std::ostream& os, std::size_t indent, std::string head,
               const std::string& text) {
  head.insert(0, indent, ' ');
  head.resize(std::max<std::size_t>(head.size() + 1, 30), ' ');
  os << head << text << "\n";
}

void print_usage(std::ostream& os, const Verb& verb) {
  const auto spaced = [](const char* word) {
    return *word ? std::string(" ") + word : std::string();
  };
  usage_row(os, 2, verb.name + spaced(verb.operands), verb.summary);
  for (const Flag& flag : verb.flags) {
    std::string help = flag.help;
    if (flag.fallback)
      help = help.empty() ? std::string("default: ") + flag.fallback
                          : help + " (default: " + flag.fallback + ")";
    usage_row(os, 4, flag.name + spaced(flag.metavar), help);
  }
}

OverflowPolicy parse_overflow_arg(const std::string& value) {
  if (value == "reassign") return OverflowPolicy::kReassign;
  if (value == "reject") return OverflowPolicy::kReject;
  throw std::invalid_argument(
      "--overflow expects reassign or reject, got '" + value + "'");
}

// ------------------------------------------------------------------ list ---

int cmd_list(const Args&) {
  const ScenarioRegistry& scenarios = default_scenario_registry();
  const StreamScenarioRegistry& streams = default_stream_scenario_registry();
  const AlgorithmRegistry& algorithms = default_algorithm_registry();

  std::cout << "scenarios (" << scenarios.size() << "):\n";
  for (const std::string& name : scenarios.names()) {
    const ScenarioSpec& spec = scenarios.spec(name);
    std::cout << "  " << name << " — " << spec.description << "\n";
    for (const ScenarioParam& param : spec.params)
      std::cout << "      " << param.name << " = " << param.value << "  ("
                << param.description << ")\n";
  }
  std::cout << "\nstream scenarios (" << streams.size()
            << ", for `omflp stream`):\n";
  for (const std::string& name : streams.names()) {
    const StreamScenarioSpec& spec = streams.spec(name);
    std::cout << "  " << name << " — " << spec.description << "\n";
    for (const ScenarioParam& param : spec.params)
      std::cout << "      " << param.name << " = " << param.value << "  ("
                << param.description << ")\n";
  }
  const WorkloadMixRegistry& mixes = default_workload_mix_registry();
  std::cout << "\nworkload mixes (" << mixes.size()
            << ", for `omflp serve`):\n";
  for (const std::string& name : mixes.names()) {
    const WorkloadMixSpec& spec = mixes.spec(name);
    std::cout << "  " << name << " — " << spec.description
              << "\n      hotness " << spec.hotness << "; profiles:";
    for (const TenantProfile& profile : spec.profiles)
      std::cout << " " << profile.scenario << " (w=" << profile.weight
                << ")";
    std::cout << "\n";
  }
  std::cout << "\nalgorithms (" << algorithms.size() << "):\n";
  for (const std::string& name : algorithms.names()) {
    const AlgorithmSpec& spec = algorithms.spec(name);
    std::cout << "  " << name << (spec.randomized ? " [randomized]" : "")
              << " — " << spec.description << "\n";
  }
  return 0;
}

// ------------------------------------------------------------------- run ---

// The admission line of a capacitated ledger; `offered` counts the
// requests (or arrivals, `offered_name`) the shed rate is taken over.
void report_admission(const SolutionLedger& ledger, std::uint64_t offered,
                      const char* offered_name) {
  const double shed_rate =
      offered > 0 ? static_cast<double>(ledger.num_shed_requests()) /
                        static_cast<double>(offered)
                  : 0.0;
  std::cout << "admission  " << overflow_policy_tag(ledger.overflow_policy())
            << ": " << ledger.num_shed_requests() << " requests shed ("
            << shed_rate * 100.0 << "% of " << offered_name << "), "
            << ledger.num_rejected_commodities() << " items rejected, "
            << ledger.num_spilled_assignments() << " assignments spilled\n";
}

// The OPT estimate and the ratio of `cost` to it. The bracket is true:
// cost/upper under-estimates, cost/lower (certified) over-estimates.
// `surviving` labels the stream form (active cost vs OPT on the
// surviving set).
void report_opt(const OptEstimate& opt, double cost, bool surviving) {
  std::cout << (surviving ? "opt(surv)  " : "opt        ") << opt.cost
            << " (" << opt.method
            << (opt.exact ? ", exact" : ", upper bound") << ")\n";
  if (opt.lower_certified)
    std::cout << (surviving ? "lb(surv)   " : "opt lower  ") << opt.lower
              << " (" << opt.lower_method << ", certified)\n";
  const char* against = "active cost vs OPT on the surviving set";
  if (opt.lower_certified && opt.lower > 0.0)
    std::cout << "ratio      [" << cost / opt.cost << ", " << cost / opt.lower
              << "]  (estimated, certified"
              << (surviving ? std::string(" — ") + against : "") << ")\n";
  else
    std::cout << "ratio      " << cost / opt.cost
              << (surviving ? std::string("  (") + against + ")" : "")
              << "\n";
}

void report_run(const Instance& instance, const std::string& algorithm_name,
                std::uint64_t seed) {
  // The workload seed and the algorithm's coin seed are decorrelated (see
  // derive_algorithm_seed); replays with the same --seed stay identical.
  auto algorithm = default_algorithm_registry().make(
      algorithm_name, derive_algorithm_seed(seed));
  const SolutionLedger ledger = run_online(*algorithm, instance);
  if (const auto violation = verify_solution(instance, ledger))
    throw std::logic_error("invalid solution: " + violation->what);

  std::cout.precision(17);
  std::cout << "instance   " << instance.name() << " (n="
            << instance.num_requests() << ", |S|="
            << instance.num_commodities() << ", |M|="
            << instance.metric().num_points() << ")\n"
            << "algorithm  " << algorithm->name() << " (seed " << seed
            << ")\n"
            << "total      " << ledger.total_cost() << "\n"
            << "  opening    " << ledger.opening_cost() << "\n"
            << "  connection " << ledger.connection_cost() << "\n"
            << "facilities " << ledger.num_facilities() << " ("
            << ledger.num_small_facilities() << " small, "
            << ledger.num_large_facilities() << " large)\n";
  if (ledger.capacitated())
    report_admission(ledger, instance.num_requests(), "requests");
  OptEstimateOptions opt_options;
  opt_options.compute_lower = true;
  report_opt(estimate_opt(instance, opt_options), ledger.total_cost(),
             /*surviving=*/false);
}

int cmd_run(const Args& a) {
  if (a.scenario.empty())
    throw std::invalid_argument("run: --scenario is required");

  const Instance instance =
      default_scenario_registry().make(a.scenario, a.seed, a.set);
  if (!a.save.empty()) {
    AtomicFileWriter file(a.save);
    write_instance(file.stream(), instance);
    file.commit();
    std::cout << "saved      " << a.save << "\n";
  }
  report_run(instance, a.algorithm, a.seed);
  return 0;
}

// ---------------------------------------------------------------- replay ---

int cmd_replay(const Args& a) {
  const std::string& path = a.operands[0];
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  const Instance instance = read_instance(file);
  report_run(instance, a.algorithm, a.seed);
  return 0;
}

// ---------------------------------------------------------------- stream ---

// The surviving set rebuilt from the ledger, in id order: compaction
// only ever releases retired records, so every still-active record is
// resident — this works identically for materialized scenarios and
// bounded-memory trace runs.
Instance surviving_from_ledger(const SolutionLedger& ledger,
                               const std::string& name) {
  std::vector<Request> requests;
  requests.reserve(ledger.num_active_requests());
  ledger.for_each_resident([&](RequestId, const RequestRecord& record) {
    if (record.active()) requests.push_back(record.request);
  });
  return Instance(ledger.metric_ptr(), ledger.cost_ptr(), std::move(requests),
                  name + "/surviving");
}

void report_stream(const std::string& stream_name,
                   const OnlineAlgorithm& algorithm, std::uint64_t seed,
                   const StreamRunResult& result, bool verified,
                   bool force_ratio) {
  const SolutionLedger& ledger = result.ledger;
  std::cout.precision(17);
  std::cout << "stream     " << stream_name << " (events=" << result.events
            << ", arrivals=" << result.arrivals << ", departures="
            << result.departures << ", expiries=" << result.lease_expiries
            << ", |S|=" << ledger.cost_model().num_commodities() << ", |M|="
            << ledger.metric().num_points() << ")\n"
            << "algorithm  " << algorithm.name() << " (seed " << seed
            << ")\n"
            << "throughput " << result.events_per_sec() << " events/s ("
            << result.run_ns / 1e6 << " ms)\n"
            << "gross      " << ledger.total_cost() << "\n"
            << "  opening    " << ledger.opening_cost() << "\n"
            << "  connection " << ledger.connection_cost() << "\n"
            << "active     " << ledger.active_cost() << " ("
            << ledger.num_active_requests() << " surviving requests)\n"
            << "facilities " << ledger.num_facilities() << " ("
            << ledger.num_small_facilities() << " small, "
            << ledger.num_large_facilities() << " large)\n"
            << "memory     peak " << result.peak_resident_records
            << " resident records (peak active " << result.peak_active
            << ")\n";
  if (ledger.capacitated())
    report_admission(ledger, result.arrivals, "arrivals");
  if (verified)
    std::cout << "verified   active-interval ledger OK\n";

  // OPT on the surviving set — the denominator of the dynamic competitive
  // ratio — estimated automatically for small surviving sets or on
  // request (--ratio). Beyond the local-search limit the bracket comes
  // from cheap certified endpoints instead: upper = the best
  // single-full-facility solution (open S at one point, connect
  // everyone — feasible by construction), lower = the chunked dual-ascent
  // bound, so even million-event traces get a [lower, upper] OPT bracket
  // in bounded memory.
  constexpr std::size_t kAutoRatioLimit = 2048;
  constexpr std::size_t kLocalSearchLimit = 8192;
  if (force_ratio || ledger.num_active_requests() <= kAutoRatioLimit) {
    const Instance surviving = surviving_from_ledger(ledger, stream_name);
    if (surviving.num_requests() > 0) {
      OptEstimate opt;
      if (surviving.num_requests() <= kLocalSearchLimit) {
        OptEstimateOptions opt_options;
        opt_options.compute_lower = true;
        opt = estimate_opt(surviving, opt_options);
      } else {
        opt.cost = kInfiniteDistance;
        const CommoditySet full =
            CommoditySet::full_set(ledger.cost_model().num_commodities());
        for (PointId m = 0; m < ledger.metric().num_points(); ++m) {
          double candidate = ledger.cost_model().open_cost(m, full);
          for (const Request& r : surviving.requests())
            candidate += ledger.metric().distance(m, r.location);
          if (candidate < opt.cost) opt.cost = candidate;
        }
        opt.exact = false;
        opt.method = "single-full-facility";
        try {
          WindowBoundOptions wopt;
          const ChunkedBound chunked =
              bound_instance_chunked(surviving, wopt);
          opt.lower = chunked.lower;
          opt.lower_certified = true;
          opt.lower_method = "dual-ascent/chunked(" +
                             std::to_string(chunked.chunks) + ")";
        } catch (const BoundUnsupportedError&) {
          opt.lower_method = "unsupported";
        }
      }
      report_opt(opt, ledger.active_cost(), /*surviving=*/true);
    }
  }
}

// run_stream with the observability taps of this CLI: a decision-trace
// writer installed around (only) the session stepping, and a per-batch
// latency CSV. Falls back to the plain runner when neither tap is
// requested, so the untapped path is exactly the library path.
StreamRunResult run_stream_observed(OnlineAlgorithm& algorithm,
                                    EventSource& source,
                                    const StreamRunOptions& options,
                                    const std::string& trace_out,
                                    const std::string& latency_csv) {
  if (trace_out.empty() && latency_csv.empty())
    return run_stream(algorithm, source, options);

  // Both taps stream into staging files and are published atomically on
  // success; a crash or exception mid-run abandons the temp files and
  // leaves any previous artifact intact.
  std::optional<AtomicFileWriter> trace_file;
  std::optional<TraceLogWriter> writer;
  std::optional<TraceScope> scope;
  if (!trace_out.empty()) {
    trace_file.emplace(trace_out);
    writer.emplace(trace_file->stream());
    scope.emplace(*writer);
  }
  std::optional<AtomicFileWriter> latency_file;
  if (!latency_csv.empty()) {
    latency_file.emplace(latency_csv);
    latency_file->stream()
        << "batch,events,total_events,batch_ns,events_per_sec\n";
  }

  StreamSession session(algorithm, source, options);
  std::uint64_t batch_index = 0;
  std::uint64_t total_events = 0;
  while (true) {
    const std::uint64_t start = now_ns();
    const std::size_t processed = session.step_batch();
    if (processed == 0) break;
    const double batch_ns = static_cast<double>(now_ns() - start);
    total_events += processed;
    if (latency_file)
      latency_file->stream()
          << batch_index << ',' << processed << ',' << total_events << ','
          << batch_ns << ','
          << (batch_ns > 0.0
                  ? static_cast<double>(processed) * 1e9 / batch_ns
                  : 0.0)
          << '\n';
    ++batch_index;
  }
  // Uninstall before finish()/reporting so later analysis passes (opt
  // estimation re-runs dual ascent) do not leak into the trace.
  scope.reset();
  if (writer) {
    writer->finish();
    trace_file->commit();
    std::cout << "trace      " << writer->events_written() << " events -> "
              << trace_out << "\n";
  }
  if (latency_file) {
    latency_file->commit();
    std::cout << "latency    " << batch_index << " batch samples -> "
              << latency_csv << "\n";
  }
  return session.finish();
}

int cmd_stream(const Args& a) {
  if (a.scenario.empty() == a.trace.empty())
    throw std::invalid_argument(
        "stream: exactly one of --scenario / --trace is required");
  StreamRunOptions options;
  options.batch_size = a.batch;
  options.verify = !a.no_verify;
  options.overflow = parse_overflow_arg(a.overflow);

  auto algo = default_algorithm_registry().make(
      a.algorithm, derive_algorithm_seed(a.seed));

  auto finish = [&](const std::string& name, const StreamRunResult& result) {
    report_stream(name, *algo, a.seed, result,
                  options.verify && !result.violation, a.ratio);
    if (result.violation)
      throw std::logic_error("invalid stream run: " +
                             result.violation->what);
    return 0;
  };

  if (!a.trace.empty()) {
    if (!a.save.empty())
      throw std::invalid_argument(
          "stream: --save applies to generated scenarios only");
    if (!a.set.empty())
      throw std::invalid_argument(
          "stream: --set applies to generated scenarios only; a trace "
          "replays exactly as saved");
    std::ifstream file(a.trace);
    if (!file) throw std::runtime_error("cannot open " + a.trace);
    StreamTraceReader reader(file);
    const StreamRunResult result = run_stream_observed(
        *algo, reader, options, a.trace_out, a.latency_csv);
    return finish(reader.name(), result);
  }

  const EventStream stream =
      default_stream_scenario_registry().make(a.scenario, a.seed, a.set);
  if (!a.save.empty()) {
    AtomicFileWriter file(a.save);
    write_event_stream(file.stream(), stream);
    file.commit();
    std::cout << "saved      " << a.save << "\n";
  }
  MaterializedEventSource source(stream);
  const StreamRunResult result = run_stream_observed(
      *algo, source, options, a.trace_out, a.latency_csv);
  return finish(stream.name(), result);
}

// ----------------------------------------------------------------- serve ---

// A wall time for a human-facing line: 4 significant digits in the
// largest unit that keeps the value at or above 1. The diffable
// deterministic blocks keep %.17g.
std::string readable_duration(double ns) {
  const char* unit = "ns";
  double value = ns;
  if (ns >= 1e9) {
    value = ns / 1e9;
    unit = "s";
  } else if (ns >= 1e6) {
    value = ns / 1e6;
    unit = "ms";
  } else if (ns >= 1e3) {
    value = ns / 1e3;
    unit = "us";
  }
  char text[32];
  std::snprintf(text, sizeof text, "%.4g %s", value, unit);
  return text;
}

// A wall time in milliseconds with one decimal, for a line whose unit is
// fixed.
std::string fixed_ms(double ns) {
  char text[32];
  std::snprintf(text, sizeof text, "%.1f", ns / 1e6);
  return text;
}

// The deterministic per-tenant block: costs, events and facility counts
// are pure functions of the tenant specs — independent of shards,
// threads, crash/restore cycles and placement. CI diffs it across shard
// and thread counts and across fault-injected runs.
std::string tenant_report(const EngineResult& result, bool verify) {
  TableWriter table({"tenant", "scenario", "events", "gross cost",
                     "active cost", "facilities", "shed", "spilled",
                     "verified"});
  table.set_precision(17);
  for (const TenantResult& tenant : result.tenants) {
    table.begin_row()
        .add(tenant.name)
        .add(tenant.scenario)
        .add(static_cast<long long>(tenant.run.events))
        .add(tenant.run.ledger.total_cost())
        .add(tenant.run.ledger.active_cost())
        .add(static_cast<long long>(tenant.run.ledger.num_facilities()))
        .add(static_cast<long long>(tenant.run.ledger.num_shed_requests()))
        .add(static_cast<long long>(
            tenant.run.ledger.num_spilled_assignments()))
        .add(!verify ? "off" : (tenant.run.violation ? "FAIL" : "ok"));
  }
  std::ostringstream os;
  table.write_markdown(os);
  return os.str();
}

int cmd_serve(const Args& a) {
  EngineOptions options;
  options.shards = a.shards;
  options.threads = a.threads;
  options.batch_size = a.batch;
  options.verify = !a.no_verify;
  options.capacity = a.capacity;
  options.overflow = parse_overflow_arg(a.overflow);
  options.checkpoint_dir = a.checkpoint_dir;
  options.checkpoint_every = a.checkpoint_every;
  options.placement.assign(a.placement.begin(), a.placement.end());
  if (options.checkpoint_every > 0 && options.checkpoint_dir.empty())
    throw std::invalid_argument(
        "serve: --checkpoint-every requires --checkpoint-dir");
  std::optional<FaultPlan> fault_plan;
  if (!a.fault_plan.empty()) {
    if (options.checkpoint_dir.empty() || options.checkpoint_every == 0)
      throw std::invalid_argument(
          "serve: --fault-plan requires --checkpoint-dir and "
          "--checkpoint-every (a crash without checkpoints only loses "
          "work)");
    fault_plan = FaultPlan::parse(a.fault_plan);
    options.fault_plan = &*fault_plan;
  }

  std::vector<TenantSpec> specs =
      default_workload_mix_registry().tenants(a.mix, a.tenants, a.seed,
                                             a.scale);
  for (TenantSpec& spec : specs) spec.algorithm = a.algorithm;

  // Observability taps, wired into EngineOptions before construction.
  // The metrics stream stays open across injected crashes (the telemetry
  // of a restart *should* show the replayed rounds); it is published
  // atomically at the end.
  std::optional<AtomicFileWriter> metrics_file;
  std::optional<MetricsSampler> sampler;
  if (!a.metrics_out.empty()) {
    metrics_file.emplace(a.metrics_out);
    sampler.emplace(metrics_file->stream(),
                    MetricsSampler::format_for_path(a.metrics_out),
                    a.sample_every);
    options.sampler = &*sampler;
  }
  // Decision trace: streamed straight to the (atomically published) file
  // in normal runs. Under fault injection it is buffered in memory
  // instead, because every crash has to rewind the log to the last
  // checkpoint's trace_seq before the replay tail re-appends it; the
  // final log is then bitwise identical to a crash-free run.
  std::optional<AtomicFileWriter> trace_file;
  std::optional<TraceLogWriter> trace_writer;
  std::optional<TraceBuffer> trace_vec;
  if (!a.trace_out.empty()) {
    if (fault_plan) {
      trace_vec.emplace();
      options.trace_sink = &*trace_vec;
    } else {
      trace_file.emplace(a.trace_out);
      trace_writer.emplace(trace_file->stream());
      options.trace_sink = &*trace_writer;
    }
  }

  // The serve loop: under a fault plan, every injected crash tears down
  // the engine (sessions, ledgers, algorithms — everything), corrupts
  // the newest checkpoint generation per the plan, and the next
  // iteration rebuilds from the newest *valid* one, exactly like a fresh
  // process would.
  std::optional<ShardedEngine> engine;
  EngineResult result;
  std::uint64_t restarts = 0;
  for (;;) {
    try {
      engine.emplace(specs, options);
      result = engine->run();
      break;
    } catch (const EngineCrash& crash) {
      engine.reset();
      ++restarts;
      std::uint64_t resume_round = 0;
      std::uint64_t keep_trace = 0;
      CheckpointStore store(options.checkpoint_dir);
      if (const auto manifest = store.latest_valid()) {
        resume_round = manifest->round;
        keep_trace = manifest->trace_seq;
      }
      if (trace_vec && trace_vec->events().size() > keep_trace)
        trace_vec->events().resize(keep_trace);
      std::cout << "crash      injected after round " << crash.round
                << "; restarting from round " << resume_round << "\n";
    }
  }

  if (trace_vec) {
    trace_file.emplace(a.trace_out);
    trace_writer.emplace(trace_file->stream());
    for (const TraceEvent& event : trace_vec->events())
      trace_writer->on_event(event);
  }
  if (trace_writer) {
    trace_writer->finish();
    trace_file->commit();
    std::cout << "trace      " << trace_writer->events_written()
              << " events -> " << a.trace_out << "\n";
  }
  if (sampler) {
    metrics_file->commit();
    std::cout << "metrics    per-shard telemetry (every " << a.sample_every
              << " round" << (a.sample_every == 1 ? "" : "s") << ") -> "
              << a.metrics_out << "\n";
  }

  std::cout.precision(17);
  std::cout << "engine     mix=" << a.mix << " tenants="
            << result.tenants.size() << " shards=" << result.shards
            << " threads=" << result.threads << " batch="
            << options.batch_size << " algorithm=" << a.algorithm
            << " (seed " << a.seed << ")\n"
            << "setup      " << result.tenants.size() << " tenant streams ("
            << engine->total_events() << " events) generated in "
            << fixed_ms(engine->setup_ns()) << " ms\n"
            << "rounds     " << result.rounds << " (global clock)\n"
            << "events     " << result.total_events << " total\n"
            << "throughput " << result.events_per_sec()
            << " events/s aggregate (" << result.wall_ns / 1e6
            << " ms wall)\n";
  if (result.restored_from_round > 0 || result.checkpoints_published > 0 ||
      restarts > 0)
    std::cout << "recovery   restored from round "
              << result.restored_from_round << ", "
              << result.checkpoints_published
              << " checkpoint generations published ("
              << result.checkpoint_snapshots_reused << " tenant snapshot"
              << (result.checkpoint_snapshots_reused == 1 ? "" : "s")
              << " reused), " << restarts
              << " injected crash" << (restarts == 1 ? "" : "es") << "\n";
  const LatencySnapshot& latency = result.batch_latency;
  std::cout << "latency    batch p50 " << readable_duration(latency.p50_ns)
            << ", p95 " << readable_duration(latency.p95_ns) << ", p99 "
            << readable_duration(latency.p99_ns) << ", p999 "
            << readable_duration(latency.p999_ns) << ", max "
            << readable_duration(latency.max_ns) << " (" << latency.count
            << " batches)\n"
            << "aggregate  gross " << result.aggregate_gross_cost
            << " active " << result.aggregate_active_cost << "\n";
  if (options.capacity > 0 || result.aggregate_shed_requests > 0 ||
      result.aggregate_spilled_assignments > 0)
    std::cout << "admission  " << overflow_policy_tag(options.overflow)
              << (options.capacity > 0
                      ? " (capacity " + std::to_string(options.capacity) + ")"
                      : "")
              << ": " << result.aggregate_shed_requests
              << " requests shed, " << result.aggregate_spilled_assignments
              << " assignments spilled\n";

  const std::string report = tenant_report(result, options.verify);
  std::cout << report;
  if (!a.report_out.empty()) {
    write_file_atomic(a.report_out, report);
    std::cout << "report     " << a.report_out << "\n";
  }

  if (const TenantResult* violation = result.first_violation())
    throw std::logic_error("invalid serve run: tenant '" + violation->name +
                           "': " + violation->run.violation->what);
  if (options.verify)
    std::cout << "verified   all " << result.tenants.size()
              << " tenant ledgers OK\n";

  if (a.seq_baseline) {
    // The same tenants, one run_stream after another on this thread —
    // the loop the engine's aggregate throughput is judged against.
    // Stream generation is excluded from the timing on both sides.
    // Streams and algorithm instances are built before the timer on
    // both sides (the engine constructs its sessions before its own
    // wall timer starts), so the comparison times serving only.
    StreamRunOptions run_options;
    run_options.batch_size = options.batch_size;
    run_options.verify = options.verify;
    run_options.overflow = options.overflow;
    std::vector<EventStream> streams;
    std::vector<std::unique_ptr<OnlineAlgorithm>> algorithms;
    streams.reserve(engine->tenants().size());
    algorithms.reserve(engine->tenants().size());
    for (const TenantSpec& spec : engine->tenants()) {
      streams.push_back(default_stream_scenario_registry().make(
          spec.scenario, spec.seed, spec.overrides));
      algorithms.push_back(default_algorithm_registry().make(
          spec.algorithm, derive_algorithm_seed(spec.seed)));
    }
    BenchTimer timer;
    std::uint64_t events = 0;
    struct SeqTotals {
      double gross, active;
      std::uint64_t shed, spilled;
    };
    std::vector<SeqTotals> totals;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      // Mirror the engine's per-tenant uniform capacity override.
      if (options.capacity > 0)
        run_options.capacities =
            std::make_shared<const std::vector<std::uint64_t>>(
                streams[i].metric().num_points(), options.capacity);
      const StreamRunResult sequential =
          run_stream(*algorithms[i], streams[i], run_options);
      events += sequential.events;
      totals.push_back({sequential.ledger.total_cost(),
                        sequential.ledger.active_cost(),
                        sequential.ledger.num_shed_requests(),
                        sequential.ledger.num_spilled_assignments()});
    }
    const double wall_ns = timer.elapsed_ns();
    const double seq_events_per_sec =
        wall_ns > 0.0 ? static_cast<double>(events) * 1e9 / wall_ns : 0.0;
    for (std::size_t i = 0; i < totals.size(); ++i) {
      const SolutionLedger& engine_ledger = result.tenants[i].run.ledger;
      if (totals[i].gross != engine_ledger.total_cost() ||
          totals[i].active != engine_ledger.active_cost() ||
          totals[i].shed != engine_ledger.num_shed_requests() ||
          totals[i].spilled != engine_ledger.num_spilled_assignments())
        throw std::logic_error(
            "serve: sequential baseline diverged from the engine on "
            "tenant '" + result.tenants[i].name + "'");
    }
    std::cout << "sequential " << seq_events_per_sec << " events/s ("
              << wall_ns / 1e6 << " ms wall); engine speedup "
              << (seq_events_per_sec > 0.0
                      ? result.events_per_sec() / seq_events_per_sec
                      : 0.0)
              << "x; per-tenant costs bitwise identical\n";
  }
  return 0;
}

// --------------------------------------------------------------- explain ---

int cmd_explain(const Args& a) {
  if (a.facility && a.request)
    throw std::invalid_argument(
        "explain: --facility and --request are mutually exclusive");
  ExplainOptions options;
  if (a.facility) options.facility = static_cast<FacilityId>(*a.facility);
  if (a.request) options.request = static_cast<RequestId>(*a.request);

  const std::string& path = a.operands[0];
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  TraceLogReader reader(file, a.recover ? TraceLogReadMode::kRecoverPrefix
                                        : TraceLogReadMode::kStrict);
  std::vector<TraceEvent> events;
  TraceEvent event;
  while (reader.next(event)) events.push_back(std::move(event));
  if (reader.truncated())
    std::cout << "recovered  " << reader.events_read()
              << "-event valid prefix of a torn tracelog\n";
  std::cout << explain_trace(events, options);
  return 0;
}

// ----------------------------------------------------------------- sweep ---

int cmd_sweep(const Args& a) {
  SweepOptions options;
  if (a.scenarios != Names{"all"}) options.scenarios = a.scenarios;
  if (a.algorithms != Names{"all"}) options.algorithms = a.algorithms;
  options.seeds = a.seeds;
  options.seed_base = a.seed_base;
  options.overrides = a.set;
  options.threads = a.threads;
  options.opt.compute_lower = a.ratio;

  const SweepResult result = run_sweep(options);
  if (a.csv.empty()) {
    result.write_csv(std::cout);
  } else {
    AtomicFileWriter file(a.csv);
    result.write_csv(file.stream());
    file.commit();
    std::cout << "wrote " << result.cells().size() << " cells ("
              << result.scenarios().size() << " scenarios x "
              << result.algorithms().size() << " algorithms, "
              << result.seeds() << " seeds each) to " << a.csv << "\n";
  }
  if (!a.json.empty()) {
    AtomicFileWriter file(a.json);
    result.write_json(file.stream());
    file.commit();
    std::cout << "wrote JSON to " << a.json << "\n";
  }
  return 0;
}

// ----------------------------------------------------------------- bound ---

// Shared tail of cmd_bound: print the certified ratio and apply the
// gates. `cost` (absent without --algorithm) is the gross/total cost the
// given lower bound certifies a ratio against; `paper_n` is the request
// count entering H_n of Theorem 4's bound.
// Output contains no timing — CI diffs it bitwise across thread counts.
int bound_gates(std::optional<double> cost, double lower,
                std::size_t num_commodities, std::size_t paper_n,
                std::optional<double> max_certified_ratio,
                bool assert_paper_bound) {
  if (!cost) {
    if (max_certified_ratio || assert_paper_bound)
      throw std::invalid_argument(
          "bound: the ratio gates need --algorithm to produce a cost");
    return 0;
  }
  if (lower <= 0.0) {
    std::cout << "certified  ratio unavailable (lower bound is 0)\n";
    if (max_certified_ratio || assert_paper_bound) {
      std::cout << "FAIL       a gate was requested but the lower bound "
                   "is vacuous\n";
      return 1;
    }
    return 0;
  }
  const double certified_ratio = *cost / lower;
  std::cout << "certified  ratio " << certified_ratio
            << " (cost / certified lower bound; true ratio <= this)\n";
  int exit_code = 0;
  if (max_certified_ratio) {
    if (certified_ratio > *max_certified_ratio) {
      std::cout << "FAIL       certified ratio " << certified_ratio
                << " exceeds --max-certified-ratio "
                << *max_certified_ratio << "\n";
      exit_code = 1;
    } else {
      std::cout << "ok         certified ratio within "
                << *max_certified_ratio << "\n";
    }
  }
  if (assert_paper_bound) {
    const double paper = theorem4_bound(num_commodities, paper_n);
    if (certified_ratio > paper) {
      std::cout << "FAIL       certified ratio " << certified_ratio
                << " exceeds Theorem 4's 15*sqrt(|S|)*H_n = " << paper
                << "\n";
      exit_code = 1;
    } else {
      std::cout << "ok         within Theorem 4's 15*sqrt(|S|)*H_n = "
                << paper << "\n";
    }
  }
  return exit_code;
}

int cmd_bound(const Args& a) {
  const int sources = (a.scenario.empty() ? 0 : 1) +
                      (a.instance.empty() ? 0 : 1) +
                      (a.stream.empty() ? 0 : 1) + (a.trace.empty() ? 0 : 1);
  if (sources != 1)
    throw std::invalid_argument(
        "bound: exactly one of --scenario / --instance / --stream / "
        "--trace is required");

  std::cout.precision(17);

  // ---- static instance: one registry bound, optional certificate dump.
  if (!a.scenario.empty() || !a.instance.empty()) {
    Instance instance = [&] {
      if (!a.scenario.empty())
        return default_scenario_registry().make(a.scenario, a.seed, a.set);
      if (!a.set.empty())
        throw std::invalid_argument(
            "bound: --set applies to generated scenarios only");
      std::ifstream file(a.instance);
      if (!file) throw std::runtime_error("cannot open " + a.instance);
      return read_instance(file);
    }();
    const BoundOutcome outcome =
        default_bound_registry().make(a.method, instance);
    std::cout << "instance   " << instance.name() << " (n="
              << instance.num_requests() << ", |S|="
              << instance.num_commodities() << ", |M|="
              << instance.metric().num_points() << ")\n"
              << "method     " << outcome.method << "\n"
              << "lower      " << outcome.lower << " (certified"
              << (outcome.exact ? ", exact" : "") << ")\n";
    if (!a.save_cert.empty()) {
      if (!outcome.certificate)
        throw std::invalid_argument("bound: method '" + a.method +
                                    "' produced no certificate to save");
      AtomicFileWriter file(a.save_cert);
      write_certificate(file.stream(), *outcome.certificate);
      file.commit();
      std::cout << "saved      " << a.save_cert << "\n";
    }
    std::optional<double> cost;
    if (!a.algorithm.empty()) {
      auto algo = default_algorithm_registry().make(
          a.algorithm, derive_algorithm_seed(a.seed));
      const SolutionLedger ledger = run_online(*algo, instance);
      if (const auto violation = verify_solution(instance, ledger))
        throw std::logic_error("invalid solution: " + violation->what);
      cost = ledger.total_cost();
      std::cout << "algorithm  " << algo->name() << " (seed " << a.seed
                << ")\n"
                << "cost       " << *cost << "\n";
    }
    return bound_gates(cost, outcome.lower,
                       instance.num_commodities(), instance.num_requests(),
                       a.max_certified_ratio, a.assert_paper_bound);
  }

  // ---- event stream: windowed decomposition, bounded memory. The sum of
  // per-window bounds certifies the windowed re-optimizing adversary (see
  // src/bound/window.hpp), the baseline the algorithm's *gross* cost is
  // compared against.
  if (!a.save_cert.empty())
    throw std::invalid_argument(
        "bound: --save-cert applies to static bounds (stream windows each "
        "carry their own certificate)");
  if (a.method != "auto")
    throw std::invalid_argument(
        "bound: --method applies to static bounds (streams always use "
        "the windowed dual ascent)");
  WindowBoundOptions wopt;
  wopt.max_window_arrivals = a.window;
  StreamBoundResult bound_result;
  std::string name;
  std::size_t num_commodities = 0;
  if (!a.trace.empty()) {
    if (!a.set.empty())
      throw std::invalid_argument(
          "bound: --set applies to generated scenarios only");
    std::ifstream file(a.trace);
    if (!file) throw std::runtime_error("cannot open " + a.trace);
    StreamTraceReader reader(file);
    bound_result = bound_stream_windows(reader, wopt);
    name = reader.name();
    num_commodities = reader.cost()->num_commodities();
  } else {
    const EventStream stream = default_stream_scenario_registry().make(
        a.stream, a.seed, a.set);
    MaterializedEventSource source(stream);
    bound_result = bound_stream_windows(source, wopt);
    name = stream.name();
    num_commodities = stream.num_commodities();
  }
  std::cout << "stream     " << name << " (events=" << bound_result.events
            << ", arrivals=" << bound_result.arrivals << ")\n"
            << "windows    " << bound_result.windows << " ("
            << bound_result.forced_splits << " forced splits, largest "
            << bound_result.max_window_arrivals << " arrivals)\n"
            << "lower      " << bound_result.windowed_lower
            << " (windowed sum, certified vs the per-window re-optimizing "
               "adversary)\n";
  std::optional<double> cost;
  if (!a.algorithm.empty()) {
    auto algo = default_algorithm_registry().make(
        a.algorithm, derive_algorithm_seed(a.seed));
    StreamRunOptions run_options;
    run_options.verify = true;
    const StreamRunResult run = [&] {
      if (!a.trace.empty()) {
        std::ifstream file(a.trace);
        if (!file) throw std::runtime_error("cannot open " + a.trace);
        StreamTraceReader reader(file);
        return run_stream(*algo, reader, run_options);
      }
      const EventStream stream = default_stream_scenario_registry().make(
          a.stream, a.seed, a.set);
      return run_stream(*algo, stream, run_options);
    }();
    if (run.violation)
      throw std::logic_error("invalid stream run: " + run.violation->what);
    cost = run.ledger.total_cost();
    std::cout << "algorithm  " << algo->name() << " (seed " << a.seed
              << ")\n"
              << "gross      " << *cost << "\n";
  }
  return bound_gates(cost, bound_result.windowed_lower,
                     num_commodities,
                     static_cast<std::size_t>(bound_result.arrivals),
                     a.max_certified_ratio, a.assert_paper_bound);
}

// ----------------------------------------------------------------- bench ---

int cmd_bench(const Args& a) {
  const BenchSuite suite = default_bench_suite();
  std::cout << "suite " << suite.name() << ": " << suite.size()
            << " cases, each run once instrumented (counters) and once "
               "timed\n";
  const BenchReport report = suite.run(&std::cout);
  std::cout << "\n";
  report.write_table(std::cout);

  const std::string out_path =
      a.out.empty() ? default_bench_filename(suite.name()) : a.out;
  AtomicFileWriter file(out_path);
  report.write_json(file.stream());
  file.commit();
  std::cout << "\nwrote " << report.cases.size() << " cases (git "
            << report.git_sha << ", " << report.build_type << ") to "
            << out_path << "\n";
  return 0;
}

// --------------------------------------------------------------- compare ---

int cmd_compare(const Args& a) {
  const Names& paths = a.operands;
  const BenchReport old_report = read_bench_report_file(paths[0]);
  const BenchReport new_report = read_bench_report_file(paths[1]);
  std::cout << "old: " << paths[0] << " (git " << old_report.git_sha
            << ", " << old_report.build_type << ")\n"
            << "new: " << paths[1] << " (git " << new_report.git_sha
            << ", " << new_report.build_type << ")\n\n";
  const CompareReport comparison = compare_reports(old_report, new_report);
  comparison.write_table(std::cout);
  return comparison.passed() ? 0 : 1;
}

// ------------------------------------------------------------------ verbs ---

// Every verb and its flags, in `omflp help` order.
const Verb kVerbs[] = {
    {"list", "", "list scenarios and algorithms", cmd_list, {}},
    {"run", "", "run one scenario under one algorithm", cmd_run,
     {{"--scenario", &Args::scenario, "NAME", "required"},
      {"--algorithm", &Args::algorithm, "NAME", "", "pd"},
      {"--seed", &Args::seed, "N", "", "1"},
      {"--set", &Args::set, "key=value",
       "override a scenario parameter (repeatable)"},
      {"--save", &Args::save, "FILE", "save the generated instance trace"}}},
    {"sweep", "", "run a (scenario x algorithm x seed) cross-product",
     cmd_sweep,
     {{"--scenarios", &Args::scenarios, "a,b|all", "", "all"},
      {"--algorithms", &Args::algorithms, "a,b|all", "", "all"},
      {"--seeds", &Args::seeds, "N", "", "8"},
      {"--seed-base", &Args::seed_base, "N", "", "1"},
      {"--set", &Args::set, "key=value",
       "override where declared (repeatable)"},
      {"--threads", &Args::threads, "N", "0 = hardware", "0"},
      {"--ratio", &Args::ratio, "",
       "compute certified lower bounds (fills the lower / certified_ratio "
       "/ gap columns)"},
      {"--csv", &Args::csv, "FILE", "write per-cell CSV (stdout when absent)"},
      {"--json", &Args::json, "FILE", "also write per-cell JSON"}}},
    {"replay", "FILE", "re-run a saved instance trace", cmd_replay,
     {{"--algorithm", &Args::algorithm, "NAME", "", "pd"},
      {"--seed", &Args::seed, "N", "", "1"}},
     "an instance file is required"},
    {"stream", "", "process a dynamic event stream (arrivals + deletions)",
     cmd_stream,
     {{"--scenario", &Args::scenario, "NAME",
       "generate a stream scenario, or"},
      {"--trace", &Args::trace, "FILE",
       "stream a saved trace from disk (bounded memory)"},
      {"--algorithm", &Args::algorithm, "NAME", "", "pd"},
      {"--seed", &Args::seed, "N", "", "1"},
      {"--set", &Args::set, "key=value",
       "override a scenario parameter (repeatable)"},
      {"--save", &Args::save, "FILE", "save the generated stream trace"},
      {"--batch", &Args::batch, "N", "events per IO/compaction batch",
       "8192"},
      {"--no-verify", &Args::no_verify, "",
       "skip the incremental stream verifier"},
      {"--overflow", &Args::overflow, "POLICY",
       "reassign | reject at a full facility (capacitated streams)",
       "reassign"},
      {"--trace-out", &Args::trace_out, "FILE",
       "write the decision trace (OMFLP-TRACELOG v1 jsonl)"},
      {"--latency-csv", &Args::latency_csv, "FILE",
       "write per-batch latency CSV (batch,events,batch_ns,...)"},
      {"--ratio", &Args::ratio, "",
       "force the OPT(surviving) ratio bracket (works with --trace too: "
       "the surviving set is rebuilt from the ledger)"}}},
    {"bound", "", "certified lower bound on OPT (verified dual certificates)",
     cmd_bound,
     {{"--scenario", &Args::scenario, "NAME",
       "bound a static scenario instance, or"},
      {"--instance", &Args::instance, "FILE", "a saved instance trace, or"},
      {"--stream", &Args::stream, "NAME",
       "a stream scenario (windowed decomposition), or"},
      {"--trace", &Args::trace, "FILE",
       "a saved stream trace (bounded memory)"},
      {"--seed", &Args::seed, "N", "", "1"},
      {"--set", &Args::set, "key=value",
       "override a scenario parameter (repeatable)"},
      {"--method", &Args::method, "NAME",
       "static bound method (see src/bound/registry.hpp)", "auto"},
      {"--window", &Args::window, "N", "arrivals per window/chunk", "4096"},
      {"--algorithm", &Args::algorithm, "NAME",
       "also run the algorithm and report the certified ratio"},
      {"--max-certified-ratio", &Args::max_certified_ratio, "X",
       "exit 1 when cost / lower exceeds X"},
      {"--assert-paper-bound", &Args::assert_paper_bound, "",
       "exit 1 when the certified ratio exceeds Theorem 4's "
       "15*sqrt(|S|)*H_n (meaningful for --algorithm pd)"},
      {"--save-cert", &Args::save_cert, "FILE",
       "write the dual certificate (static bounds)"}}},
    {"serve", "", "drive the sharded multi-tenant stream engine", cmd_serve,
     {{"--tenants", &Args::tenants, "K", "", "8"},
      {"--mix", &Args::mix, "NAME", "workload mix (see `omflp list`)",
       "mixed"},
      {"--algorithm", &Args::algorithm, "NAME",
       "serve every tenant with this algorithm", "pd"},
      {"--seed", &Args::seed, "N", "", "1"},
      {"--shards", &Args::shards, "N", "0 = min(tenants, threads)", "0"},
      {"--threads", &Args::threads, "N", "0 = hardware / OMFLP_THREADS",
       "0"},
      {"--batch", &Args::batch, "N", "events per tenant per round", "2048"},
      {"--scale", &Args::scale, "X", "scale every tenant's workload size",
       "1"},
      {"--no-verify", &Args::no_verify, "",
       "skip the per-tenant incremental verifiers"},
      {"--capacity", &Args::capacity, "N",
       "uniform per-point facility capacity for every tenant; 0 = the "
       "scenario's own",
       "0"},
      {"--overflow", &Args::overflow, "POLICY",
       "reassign | reject at a full facility", "reassign"},
      {"--seq-baseline", &Args::seq_baseline, "",
       "also run the tenants sequentially and report the speedup"},
      {"--metrics-out", &Args::metrics_out, "FILE",
       "live per-shard telemetry (.jsonl/.json -> JSONL, else CSV)"},
      {"--sample-every", &Args::sample_every, "N",
       "rounds between telemetry samples", "1"},
      {"--trace-out", &Args::trace_out, "FILE",
       "write the merged decision trace (tenant-order, deterministic)"},
      {"--checkpoint-dir", &Args::checkpoint_dir, "DIR",
       "restore from / publish OMFLP-CKPT generations in DIR"},
      {"--checkpoint-every", &Args::checkpoint_every, "N",
       "rounds between checkpoint generations; 0 = restore only", "0"},
      {"--fault-plan", &Args::fault_plan, "SPEC",
       "deterministic crash injection, e.g. crashes=2,seed=7,gap=8,torn=1"},
      {"--placement", &Args::placement, "0,1,...",
       "explicit tenant->shard placement (migration; round-robin when "
       "absent)"},
      {"--report-out", &Args::report_out, "FILE",
       "write the deterministic per-tenant report (atomic)"}}},
    {"explain", "TRACELOG",
     "replay a decision trace and render the causal chain", cmd_explain,
     {{"--facility", &Args::facility, "N",
       "why did facility N open (bids, tightness, rollbacks)"},
      {"--request", &Args::request, "N", "every event involving request N"},
      {"--recover", &Args::recover, "",
       "accept a torn/corrupt tracelog and use its valid prefix"}},
     "a tracelog file is required"},
    {"bench", "", "run the perf suite, write BENCH json (work counters)",
     cmd_bench,
     {{"--out", &Args::out, "FILE", "BENCH_<suite>.json when absent"}}},
    {"compare", "OLD NEW",
     "diff two BENCH json files; exit 1 when any case's counters differ",
     cmd_compare, {}, "exactly two BENCH json files are required"},
};

int usage(std::ostream& os, int exit_code) {
  os << "usage: omflp <command> [options]\n\ncommands:\n";
  for (const Verb& verb : kVerbs) print_usage(os, verb);
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage(std::cerr, 2);
    const std::string name = argv[1];
    if (name == "help" || name == "--help" || name == "-h")
      return usage(std::cout, 0);
    for (const Verb& verb : kVerbs) {
      if (name != verb.name) continue;
      Args args;
      try {
        args = parse_args(verb, Argv(argv + 2, argv + argc));
      } catch (const std::invalid_argument& error) {
        std::cerr << "error: " << error.what() << "\n";
        print_usage(std::cerr, verb);
        return 1;
      }
      return verb.body(args);
    }
    std::cerr << "unknown command '" << name << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
