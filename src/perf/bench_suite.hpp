// BenchSuite — the repo's work-counter report.
//
// A BenchCase is a named closure (one "operation", e.g. replaying a
// scenario instance through a roster algorithm) plus how many requests an
// operation processes. A BenchSuite runs every case twice on the calling
// thread: once instrumented, collecting the PerfCounters totals of one
// op — the deterministic work measure `omflp compare` gates on — and
// once timed with counting disabled, exactly the configuration
// production code runs in. The single timed pass is report-only;
// perfbench/run.py is the wall-time benchmark.
//
// The resulting BenchReport serializes to the schema-versioned
// BENCH_<suite>.json format (see README "Performance telemetry"):
// build metadata (git sha, compiler, flags) plus per-case counter
// totals, ns/op and requests/s. bench_compare.hpp reads these files
// back and diffs them; `omflp bench` / `omflp compare` are thin CLI
// wrappers over this pair.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "perf/latency_histogram.hpp"
#include "perf/perf_counters.hpp"

namespace omflp {

/// BENCH_*.json schema version; bump on any incompatible layout change.
inline constexpr int kBenchSchemaVersion = 1;

/// Monotonic nanosecond timer (reads now_ns()).
class BenchTimer {
 public:
  BenchTimer();
  /// Nanoseconds since construction.
  double elapsed_ns() const;

 private:
  std::uint64_t start_ns_ = 0;
};

struct BenchCase {
  std::string name;
  /// Requests processed per op() call; feeds the requests/s column. Use
  /// the natural work unit for micro cases (e.g. lookups per op).
  std::size_t requests_per_op = 1;
  std::function<void()> op;
  /// Optional latency channel: when set, the op writes its most recent
  /// internal latency distribution here (e.g. the engine's per-batch
  /// snapshot) and the suite copies the timed pass's value into the case
  /// result, where write_json() emits it as a "latency" object.
  std::shared_ptr<LatencySnapshot> latency = nullptr;
};

struct BenchCaseResult {
  std::string name;
  std::size_t requests_per_op = 1;
  std::size_t trials = 0;  // timed passes: 1
  double ns_per_op = 0.0;  // the timed pass (report-only)
  /// Schema v1 fields; with one timed pass all three equal ns_per_op.
  double ns_per_op_mean = 0.0;
  double ns_per_op_min = 0.0;
  double ns_per_op_max = 0.0;
  double requests_per_sec = 0.0;  // requests_per_op / timed seconds
  PerfCounters counters;          // totals of one instrumented op
  /// Internal latency distribution of the timed pass (count == 0 when
  /// the case has no latency channel).
  LatencySnapshot latency;
};

struct BenchReport {
  int schema_version = kBenchSchemaVersion;
  std::string suite;
  std::string git_sha;
  std::string build_type;
  std::string compiler;
  std::string build_flags;
  std::size_t trials = 0;  // timed passes per case: 1
  std::size_t warmup = 0;  // always 0
  std::vector<BenchCaseResult> cases;

  /// Null when the name is absent.
  const BenchCaseResult* find(const std::string& name) const;

  /// The BENCH_<suite>.json document (self-contained, schema-versioned).
  void write_json(std::ostream& os) const;
  /// Human-readable per-case summary table (markdown).
  void write_table(std::ostream& os) const;
};

class BenchSuite {
 public:
  explicit BenchSuite(std::string name);

  /// Registers a case; throws std::invalid_argument on an empty or
  /// duplicate name or a missing op.
  void add(BenchCase bench_case);

  const std::string& name() const noexcept { return name_; }
  std::size_t size() const noexcept { return cases_.size(); }
  std::vector<std::string> case_names() const;

  /// Runs every case (in registration order, on the calling thread) once
  /// instrumented and once timed, and assembles the report with build
  /// metadata filled in. When `progress` is set, one line per case.
  BenchReport run(std::ostream* progress = nullptr) const;

 private:
  std::string name_;
  std::vector<BenchCase> cases_;
};

/// The standard suite backing `omflp bench`: every registered algorithm
/// replaying the uniform-line workload, the PD reference-bid ablation,
/// DistanceOracle cached/fallback micro cases, the dynamic-stream
/// events/s cases (run_stream over churn-uniform workloads, greedy and
/// PD), the serving-engine cases (serve/mixed-* = ShardedEngine over the
/// 16-tenant "mixed" workload mix at default shards/threads), trace/on
/// (the PD churn case with a TraceSink installed — its ns/op against
/// stream/churn-pd is the cost of live tracing) and the bound-layer
/// cases.
BenchSuite default_bench_suite();

/// "BENCH_<suite>.json"
std::string default_bench_filename(const std::string& suite);

}  // namespace omflp
