#include "perf/bench_suite.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "baseline/greedy.hpp"
#include "bound/dual_ascent.hpp"
#include "bound/window.hpp"
#include "core/online_algorithm.hpp"
#include "core/pd_omflp.hpp"
#include "core/stream_runner.hpp"
#include "engine/sharded_engine.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/algorithm_registry.hpp"
#include "scenario/registry_util.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/stream_registry.hpp"
#include "support/clock.hpp"
#include "support/json.hpp"
#include "support/table.hpp"

namespace omflp {

namespace {

std::string compiler_string() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Build metadata injected by CMake onto this translation unit only (so a
// new git sha does not rebuild the whole library).
#if !defined(OMFLP_GIT_SHA)
#define OMFLP_GIT_SHA "unknown"
#endif
#if !defined(OMFLP_BUILD_TYPE)
#define OMFLP_BUILD_TYPE "unknown"
#endif
#if !defined(OMFLP_BUILD_FLAGS)
#define OMFLP_BUILD_FLAGS "unknown"
#endif

}  // namespace

// ---------------------------------------------------------------- timer ---

BenchTimer::BenchTimer() : start_ns_(now_ns()) {}

double BenchTimer::elapsed_ns() const {
  return static_cast<double>(now_ns() - start_ns_);
}

// --------------------------------------------------------------- report ---

const BenchCaseResult* BenchReport::find(const std::string& name) const {
  for (const BenchCaseResult& c : cases)
    if (c.name == name) return &c;
  return nullptr;
}

void BenchReport::write_json(std::ostream& os) const {
  const std::streamsize saved_precision = os.precision(17);
  os << "{\n"
     << "  \"schema_version\": " << schema_version << ",\n"
     << "  \"suite\": " << json_quoted(suite) << ",\n"
     << "  \"git_sha\": " << json_quoted(git_sha) << ",\n"
     << "  \"build_type\": " << json_quoted(build_type) << ",\n"
     << "  \"compiler\": " << json_quoted(compiler) << ",\n"
     << "  \"build_flags\": " << json_quoted(build_flags) << ",\n"
     << "  \"trials\": " << trials << ",\n"
     << "  \"warmup\": " << warmup << ",\n"
     << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const BenchCaseResult& c = cases[i];
    os << "    {\"name\": " << json_quoted(c.name) << ",\n"
       << "     \"requests_per_op\": " << c.requests_per_op << ",\n"
       << "     \"trials\": " << c.trials << ",\n"
       << "     \"ns_per_op\": " << c.ns_per_op << ",\n"
       << "     \"ns_per_op_mean\": " << c.ns_per_op_mean << ",\n"
       << "     \"ns_per_op_min\": " << c.ns_per_op_min << ",\n"
       << "     \"ns_per_op_max\": " << c.ns_per_op_max << ",\n"
       << "     \"requests_per_sec\": " << c.requests_per_sec << ",\n";
    if (c.latency.count > 0)
      os << "     \"latency\": " << c.latency.to_json() << ",\n";
    os << "     \"counters\": {";
    bool first = true;
    PerfCounters::for_each_field(c.counters,
                                 [&](const char* name, std::uint64_t value) {
                                   os << (first ? "" : ", ") << "\"" << name
                                      << "\": " << value;
                                   first = false;
                                 });
    os << "}}" << (i + 1 < cases.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.precision(saved_precision);
}

void BenchReport::write_table(std::ostream& os) const {
  TableWriter table({"case", "ns/op (timed once)", "requests/s", "dist lookups",
                     "bids eval", "facilities probed", "coin flips"});
  table.set_precision(6);
  for (const BenchCaseResult& c : cases) {
    table.begin_row()
        .add(c.name)
        .add(c.ns_per_op)
        .add(c.requests_per_sec)
        .add(static_cast<long long>(c.counters.distance_lookups))
        .add(static_cast<long long>(c.counters.bids_evaluated))
        .add(static_cast<long long>(c.counters.facilities_probed))
        .add(static_cast<long long>(c.counters.coin_flips));
  }
  table.write_markdown(os);
}

// ---------------------------------------------------------------- suite ---

BenchSuite::BenchSuite(std::string name) : name_(std::move(name)) {
  if (name_.empty())
    throw std::invalid_argument("BenchSuite: empty suite name");
}

void BenchSuite::add(BenchCase bench_case) {
  if (bench_case.name.empty())
    throw std::invalid_argument("BenchSuite: empty case name");
  if (!bench_case.op)
    throw std::invalid_argument("BenchSuite: case '" + bench_case.name +
                                "' has no op");
  for (const BenchCase& existing : cases_)
    if (existing.name == bench_case.name)
      throw std::invalid_argument("BenchSuite: duplicate case '" +
                                  bench_case.name + "'");
  cases_.push_back(std::move(bench_case));
}

std::vector<std::string> BenchSuite::case_names() const {
  std::vector<std::string> out;
  out.reserve(cases_.size());
  for (const BenchCase& c : cases_) out.push_back(c.name);
  return out;
}

BenchReport BenchSuite::run(std::ostream* progress) const {
  BenchReport report;
  report.suite = name_;
  report.git_sha = OMFLP_GIT_SHA;
  report.build_type = OMFLP_BUILD_TYPE;
  report.compiler = compiler_string();
  report.build_flags = OMFLP_BUILD_FLAGS;
  report.trials = 1;

  for (const BenchCase& c : cases_) {
    BenchCaseResult result;
    result.name = c.name;
    result.requests_per_op = c.requests_per_op;
    result.trials = 1;
    {
      PerfScope scope(result.counters);
      c.op();
    }
    // The instrumented pass warms caches for the timed one.
    BenchTimer timer;
    c.op();
    result.ns_per_op = timer.elapsed_ns();
    result.ns_per_op_mean = result.ns_per_op_min = result.ns_per_op_max =
        result.ns_per_op;
    result.requests_per_sec = static_cast<double>(c.requests_per_op) * 1e9 /
                              std::max(result.ns_per_op, 1.0);
    if (c.latency) result.latency = *c.latency;
    report.cases.push_back(std::move(result));

    if (progress)
      *progress << "  " << c.name << "  "
                << report.cases.back().ns_per_op / 1e6 << " ms/op\n";
  }
  return report;
}

// -------------------------------------------------------- default suite ---

namespace {

/// One op = replay `instance` through `algorithm` (reset + full serve
/// sequence; the ledger is discarded).
BenchCase algorithm_case(std::string name,
                         std::shared_ptr<OnlineAlgorithm> algorithm,
                         std::shared_ptr<const Instance> instance) {
  BenchCase c;
  c.name = std::move(name);
  c.requests_per_op = instance->num_requests();
  c.op = [algorithm = std::move(algorithm),
          instance = std::move(instance)] {
    const SolutionLedger ledger = run_online(*algorithm, *instance);
    // The total depends on every decision; reading it keeps the whole run
    // observable.
    volatile double sink = ledger.total_cost();
    (void)sink;
  };
  return c;
}

}  // namespace

BenchSuite default_bench_suite() {
  BenchSuite suite("default");

  // The shared workload: the uniform-line scenario at its modest default
  // size. One instance, every roster algorithm — so per-case counter
  // totals are directly comparable work measurements.
  const auto instance = std::make_shared<const Instance>(
      default_scenario_registry().make("uniform-line", /*seed=*/1));
  const AlgorithmRegistry& registry = default_algorithm_registry();
  for (const std::string& name : registry.names()) {
    suite.add(algorithm_case(
        "algo/" + name + "/uniform-line",
        registry.make(name, derive_algorithm_seed(1)), instance));
  }

  // PD with from-scratch bid recomputation — the measured counterpart of
  // the header's kReference/kIncremental equivalence claim.
  suite.add(algorithm_case(
      "pd-reference/uniform-line",
      std::make_shared<PdOmflp>(
          PdOptions{.bid_mode = PdOptions::BidMode::kReference}),
      instance));

  // Dynamic-stream cases: one op = a full run_stream pass over a fixed
  // churn workload (arrivals + deletions + active-interval accounting +
  // batch compaction). requests_per_op is the event count, so the
  // throughput column reads directly as events/s — the number the
  // dynamic subsystem is judged on.
  {
    const auto churn = std::make_shared<const EventStream>(
        default_stream_scenario_registry().make("churn-uniform", /*seed=*/1,
                                                {{"events", 8192}}));
    const auto stream_case = [](std::string name,
                                std::shared_ptr<OnlineAlgorithm> algorithm,
                                std::shared_ptr<const EventStream> stream) {
      BenchCase c;
      c.name = std::move(name);
      c.requests_per_op = stream->num_events();
      c.op = [algorithm = std::move(algorithm),
              stream = std::move(stream)] {
        StreamRunOptions options;
        options.batch_size = 2048;  // several compaction cycles per op
        const StreamRunResult result =
            run_stream(*algorithm, *stream, options);
        volatile double sink = result.ledger.active_cost();
        (void)sink;
      };
      return c;
    };
    suite.add(stream_case("stream/churn-greedy",
                          std::make_shared<NearestOrOpen>(), churn));
    const auto churn_small = std::make_shared<const EventStream>(
        default_stream_scenario_registry().make("churn-uniform", /*seed=*/1,
                                                {{"events", 2048}}));
    suite.add(stream_case("stream/churn-pd", std::make_shared<PdOmflp>(),
                          churn_small));

    // The same PD churn replay with a TraceScope recording every decision
    // into a buffer cleared per op: its trace_events_emitted counter is
    // what live tracing records, and its ns/op against stream/churn-pd
    // (no sink installed, the state every other timed case runs in) is
    // the cost of tracing.
    BenchCase traced;
    traced.name = "trace/on";
    traced.requests_per_op = churn_small->num_events();
    traced.op = [algorithm = std::make_shared<PdOmflp>(),
                 buffer = std::make_shared<TraceBuffer>(),
                 stream = churn_small] {
      StreamRunOptions options;
      options.batch_size = 2048;
      buffer->clear();
      TraceScope scope(*buffer);
      const StreamRunResult result = run_stream(*algorithm, *stream, options);
      volatile double sink = result.ledger.active_cost();
      (void)sink;
    };
    suite.add(std::move(traced));
  }

  // The serving-engine cases: one full ShardedEngine run over the
  // 16-tenant Zipf-skewed "mixed" workload mix (default shards/threads —
  // the configuration `omflp serve` runs in). requests_per_op is the
  // total event count; verification is off, as in every other timed case.
  // `omflp serve --seq-baseline` measures the engine against a sequential
  // loop over the same tenants.
  {
    const std::size_t kTenants = 16;
    const auto serve_case = [&](std::string name,
                                const std::string& algorithm) {
      std::vector<TenantSpec> specs =
          default_workload_mix_registry().tenants("mixed", kTenants,
                                                  /*seed=*/1);
      for (TenantSpec& spec : specs) spec.algorithm = algorithm;
      EngineOptions options;
      options.batch_size = 2048;
      options.verify = false;
      auto engine =
          std::make_shared<const ShardedEngine>(std::move(specs), options);
      BenchCase c;
      c.name = std::move(name);
      c.requests_per_op =
          static_cast<std::size_t>(engine->total_events());
      // Latency channel: the timed pass's per-batch distribution lands
      // in the case result.
      c.latency = std::make_shared<LatencySnapshot>();
      c.op = [engine, latency = c.latency] {
        const EngineResult result = engine->run();
        volatile double sink = result.aggregate_active_cost;
        (void)sink;
        *latency = result.batch_latency;
        // Shard workers count into the engine's per-shard sinks; forward
        // the merged totals so the case's counter column holds the run's
        // work.
        if (PerfCounters* outer = perf::thread_sink())
          *outer += result.counters;
      };
      return c;
    };
    suite.add(serve_case("serve/mixed-greedy", "greedy"));
    suite.add(serve_case("serve/mixed-pd", "pd"));
  }

  // Bound-layer cases: one op = a full certified-lower-bound computation.
  // bound/dual-ascent times the bare ascent on the shared uniform-line
  // instance (requests_per_op = n, so throughput reads as requests/s and
  // the duals_raised counter column shows the dual count per op);
  // bound/windowed-churn times the end-to-end stream pipeline — window
  // tracking, per-window ascent AND certificate verification, the
  // configuration `omflp bound --stream` actually runs.
  {
    suite.add(BenchCase{"bound/dual-ascent", instance->num_requests(),
                        [instance] {
                          const DualAscentResult res =
                              dual_ascent_lower_bound(*instance);
                          volatile double sink = res.lower_bound;
                          (void)sink;
                        }});
    const auto churn = std::make_shared<const EventStream>(
        default_stream_scenario_registry().make("churn-uniform", /*seed=*/1,
                                                {{"events", 512}}));
    suite.add(BenchCase{"bound/windowed-churn", churn->num_events(),
                        [churn] {
                          MaterializedEventSource source(*churn);
                          WindowBoundOptions options;
                          options.max_window_arrivals = 128;
                          const StreamBoundResult res =
                              bound_stream_windows(source, options);
                          volatile double sink = res.windowed_lower;
                          (void)sink;
                        }});
  }

  return suite;
}

std::string default_bench_filename(const std::string& suite) {
  return "BENCH_" + suite + ".json";
}

}  // namespace omflp
