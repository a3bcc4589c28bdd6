#include "perf/bench_compare.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"
#include "support/table.hpp"

namespace omflp {

namespace {

/// A count field: an exact integer that must fit std::size_t.
std::size_t bench_size(JsonCursor& in, const char* name) {
  in.member(name);
  const std::uint64_t value = in.u64();
  if (value > std::numeric_limits<std::size_t>::max())
    in.fail(std::string("'") + name + "' out of range");
  return static_cast<std::size_t>(value);
}

double bench_number(JsonCursor& in, const char* name) {
  in.member(name);
  return in.number();
}

std::string bench_string(JsonCursor& in, const char* name) {
  in.member(name);
  return in.string();
}

/// A flat object: `read_value` consumes the value of each member.
template <class ReadValue>
void read_members(JsonCursor& in, ReadValue read_value) {
  in.expect("{");
  if (in.try_consume("}")) return;
  do {
    const std::string name = in.string();
    in.expect(":");
    read_value(name);
  } while (in.try_consume(","));
  in.expect("}");
}

BenchCaseResult read_case(JsonCursor& in) {
  BenchCaseResult c;
  in.expect("{");
  c.name = bench_string(in, "name");
  c.requests_per_op = bench_size(in, "requests_per_op");
  c.trials = bench_size(in, "trials");
  c.ns_per_op = bench_number(in, "ns_per_op");
  c.ns_per_op_mean = bench_number(in, "ns_per_op_mean");
  c.ns_per_op_min = bench_number(in, "ns_per_op_min");
  c.ns_per_op_max = bench_number(in, "ns_per_op_max");
  c.requests_per_sec = bench_number(in, "requests_per_sec");
  // The optional latency object is checked for shape but not read back:
  // comparisons use only ns/op and the counters.
  in.expect(",");
  if (in.try_consume("\"latency\":"))
    read_members(in, [&](const std::string&) { (void)in.number(); });
  // Counters by name: a report from an older build may carry a subset,
  // and names this build does not know are skipped.
  in.member("counters");
  read_members(in, [&](const std::string& name) {
    const std::uint64_t value = in.u64();
    PerfCounters::for_each_field(
        c.counters, [&](const char* field, std::uint64_t& slot) {
          if (name == field) slot = value;
        });
  });
  in.expect("}");
  return c;
}

}  // namespace

// -------------------------------------------------------------- reading ---

BenchReport read_bench_report(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  JsonCursor in(text, "BENCH json: ", json_throw<std::runtime_error>);

  // Fields in the order BenchReport::write_json writes them.
  BenchReport report;
  in.expect("{");
  in.member("schema_version");
  const std::uint64_t schema_version = in.u64();
  if (schema_version != kBenchSchemaVersion)
    throw std::runtime_error(
        "BENCH json: schema_version " + std::to_string(schema_version) +
        " is not the supported " + std::to_string(kBenchSchemaVersion));
  report.suite = bench_string(in, "suite");
  report.git_sha = bench_string(in, "git_sha");
  report.build_type = bench_string(in, "build_type");
  report.compiler = bench_string(in, "compiler");
  report.build_flags = bench_string(in, "build_flags");
  report.trials = bench_size(in, "trials");
  report.warmup = bench_size(in, "warmup");
  in.member("cases");
  in.expect("[");
  if (!in.try_consume("]")) {
    do report.cases.push_back(read_case(in));
    while (in.try_consume(","));
    in.expect("]");
  }
  in.expect("}");
  in.done();
  return report;
}

BenchReport read_bench_report_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  return read_bench_report(file);
}

// ------------------------------------------------------------ comparing ---

CompareReport compare_reports(const BenchReport& old_report,
                              const BenchReport& new_report,
                              const CompareOptions& options) {
  if (options.regression_threshold < 1.0)
    throw std::invalid_argument(
        "compare_reports: regression threshold must be >= 1.0");

  CompareReport out;
  out.threshold = options.regression_threshold;

  for (const BenchCaseResult& old_case : old_report.cases) {
    CaseDelta delta;
    delta.name = old_case.name;
    delta.old_ns_per_op = old_case.ns_per_op;
    const BenchCaseResult* new_case = new_report.find(old_case.name);
    if (new_case == nullptr) {
      // A baseline case the new report no longer measures: counted and
      // reported on its own row either way; fail_on_missing additionally
      // makes it a regression (so renaming or deleting a slow case
      // cannot silently defeat the gate — deliberate suite changes
      // regenerate the baseline in the same PR).
      delta.status = CaseDelta::Status::kOnlyOld;
      ++out.missing_cases;
      if (options.fail_on_missing) ++out.regressions;
      out.deltas.push_back(std::move(delta));
      continue;
    }
    delta.new_ns_per_op = new_case->ns_per_op;
    delta.time_ratio = old_case.ns_per_op > 0.0
                           ? new_case->ns_per_op / old_case.ns_per_op
                           : 0.0;
    if (old_case.counters.distance_lookups > 0)
      delta.lookup_ratio =
          static_cast<double>(new_case->counters.distance_lookups) /
          static_cast<double>(old_case.counters.distance_lookups);
    if (delta.time_ratio > options.regression_threshold) {
      delta.status = CaseDelta::Status::kRegressed;
      ++out.regressions;
    } else if (delta.time_ratio > 0.0 &&
               delta.time_ratio < 1.0 / options.regression_threshold) {
      delta.status = CaseDelta::Status::kImproved;
      ++out.improvements;
    }
    out.deltas.push_back(std::move(delta));
  }
  for (const BenchCaseResult& new_case : new_report.cases) {
    if (old_report.find(new_case.name) != nullptr) continue;
    CaseDelta delta;
    delta.name = new_case.name;
    delta.new_ns_per_op = new_case.ns_per_op;
    delta.status = CaseDelta::Status::kOnlyNew;
    ++out.new_cases;
    out.deltas.push_back(std::move(delta));
  }
  return out;
}

void CompareReport::write_table(std::ostream& os) const {
  TableWriter table({"case", "old ns/op", "new ns/op", "new/old",
                     "lookups new/old", "status"});
  table.set_precision(6);
  for (const CaseDelta& delta : deltas) {
    const char* status = "ok";
    switch (delta.status) {
      case CaseDelta::Status::kOk: status = "ok"; break;
      case CaseDelta::Status::kImproved: status = "IMPROVED"; break;
      case CaseDelta::Status::kRegressed: status = "REGRESSED"; break;
      case CaseDelta::Status::kOnlyOld: status = "missing in new"; break;
      case CaseDelta::Status::kOnlyNew: status = "new case"; break;
    }
    table.begin_row()
        .add(delta.name)
        .add(delta.old_ns_per_op)
        .add(delta.new_ns_per_op)
        .add(delta.time_ratio)
        .add(delta.lookup_ratio)
        .add(status);
  }
  table.write_markdown(os);
  os << "\n"
     << (regressions > 0
             ? "REGRESSION: " + std::to_string(regressions) +
                   " case(s) slower than "
             : "ok: no case slower than ")
     << threshold << "x the old time (" << improvements
     << " improved beyond the same margin)\n";
  if (new_cases > 0 || missing_cases > 0)
    os << "suite drift: " << new_cases
       << " new case(s) not in the baseline, " << missing_cases
       << " baseline case(s) not measured by the new report — regenerate "
          "the baseline to adopt suite changes\n";
}

}  // namespace omflp
