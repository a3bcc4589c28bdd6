// Reading BENCH_*.json reports back and diffing two of them.
//
// compare_reports matches cases by name and is an exact gate on work:
// counter totals are deterministic (same seeds, any thread count), so a
// case fails when any counter total or its requests_per_op differs, or
// when only one report has it. ns/op is shown next to the counters but
// never gates; `omflp compare` prints the table and exits 1 on any
// failing case.
#pragma once

#include <cstdint>
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

/// One counter whose total differs; `counter` is a PerfCounters field
/// name or "requests_per_op".
struct CounterDelta {
  std::string counter;
  std::uint64_t old_value = 0;
  std::uint64_t new_value = 0;
};

struct CaseDelta {
  enum class Status { kSame, kChanged, kOnlyOld, kOnlyNew };

  std::string name;
  double old_ns_per_op = 0.0;  // report-only; 0 when the side is missing
  double new_ns_per_op = 0.0;
  std::vector<CounterDelta> changed;  // non-empty exactly when kChanged
  Status status = Status::kSame;
};

struct CompareReport {
  std::vector<CaseDelta> deltas;  // old-report order, then new-only cases
  /// Cases that are not kSame.
  std::size_t failures = 0;

  bool passed() const noexcept { return failures == 0; }
  /// Markdown table (one row per changed counter) plus a one-line
  /// verdict.
  void write_table(std::ostream& os) const;
};

CompareReport compare_reports(const BenchReport& old_report,
                              const BenchReport& new_report);

}  // namespace omflp
