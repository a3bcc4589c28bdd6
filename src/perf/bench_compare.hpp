// Reading BENCH_*.json reports back and diffing two of them.
//
// compare_reports matches cases by name and classifies each pair by the
// new/old ns-per-op ratio against a regression threshold; `omflp compare`
// prints the table and exits nonzero when any case regressed beyond it.
// Counter totals are deterministic (same build, same seeds), so their
// deltas are exact work differences, reported alongside the (noisy) wall
// times.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "perf/bench_suite.hpp"

namespace omflp {

/// Parses a BENCH_*.json document written by BenchReport::write_json,
/// field by field in the writer's order, integers exactly. Throws
/// std::runtime_error on malformed JSON, a missing or out-of-range field,
/// or an unsupported schema_version. Counters are matched by name:
/// missing ones stay zero, unknown ones are ignored.
BenchReport read_bench_report(std::istream& is);
BenchReport read_bench_report_file(const std::string& path);

struct CompareOptions {
  /// A case regresses when new ns/op > threshold * old ns/op.
  double regression_threshold = 1.10;
  /// When set, a baseline case missing from the new report counts as a
  /// regression (so renaming or deleting a slow case cannot dodge the
  /// gate). Off by default: suite membership legitimately changes when a
  /// PR adds or retires cases, and such runs must compare cleanly — the
  /// missing/new cases are still reported loudly so a stale baseline is
  /// visible and gets regenerated in the same PR.
  bool fail_on_missing = false;
};

struct CaseDelta {
  enum class Status { kOk, kImproved, kRegressed, kOnlyOld, kOnlyNew };

  std::string name;
  double old_ns_per_op = 0.0;
  double new_ns_per_op = 0.0;
  double time_ratio = 0.0;     // new / old; 0 when either side is missing
  double lookup_ratio = 0.0;   // new / old distance lookups; 0 when n/a
  Status status = Status::kOk;
};

struct CompareReport {
  std::vector<CaseDelta> deltas;  // old-report order, then new-only cases
  /// Cases beyond the threshold; with fail_on_missing, also the baseline
  /// cases missing from the new report.
  std::size_t regressions = 0;
  std::size_t improvements = 0;
  /// Baseline cases absent from the new report / new cases absent from
  /// the baseline (suite membership drift — reported either way, gated
  /// only via CompareOptions::fail_on_missing).
  std::size_t missing_cases = 0;
  std::size_t new_cases = 0;
  double threshold = 0.0;

  bool any_regression() const noexcept { return regressions > 0; }
  /// Per-case markdown table plus a one-line verdict.
  void write_table(std::ostream& os) const;
};

CompareReport compare_reports(const BenchReport& old_report,
                              const BenchReport& new_report,
                              const CompareOptions& options = {});

}  // namespace omflp
