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
  // comparisons use only the counters and ns/op.
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

/// The counters (and requests_per_op) whose totals differ, in
/// PerfCounters field order.
std::vector<CounterDelta> counter_changes(const BenchCaseResult& old_case,
                                          const BenchCaseResult& new_case) {
  std::vector<CounterDelta> out;
  if (old_case.requests_per_op != new_case.requests_per_op)
    out.push_back({"requests_per_op", old_case.requests_per_op,
                   new_case.requests_per_op});
  std::vector<std::uint64_t> new_values;
  PerfCounters::for_each_field(
      new_case.counters,
      [&](const char*, std::uint64_t value) { new_values.push_back(value); });
  std::size_t i = 0;
  PerfCounters::for_each_field(
      old_case.counters, [&](const char* name, std::uint64_t value) {
        if (value != new_values[i]) out.push_back({name, value, new_values[i]});
        ++i;
      });
  return out;
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
                              const BenchReport& new_report) {
  CompareReport out;
  for (const BenchCaseResult& old_case : old_report.cases) {
    CaseDelta delta;
    delta.name = old_case.name;
    delta.old_ns_per_op = old_case.ns_per_op;
    const BenchCaseResult* new_case = new_report.find(old_case.name);
    if (new_case == nullptr) {
      delta.status = CaseDelta::Status::kOnlyOld;
    } else {
      delta.new_ns_per_op = new_case->ns_per_op;
      delta.changed = counter_changes(old_case, *new_case);
      if (!delta.changed.empty()) delta.status = CaseDelta::Status::kChanged;
    }
    out.deltas.push_back(std::move(delta));
  }
  for (const BenchCaseResult& new_case : new_report.cases) {
    if (old_report.find(new_case.name) != nullptr) continue;
    CaseDelta delta;
    delta.name = new_case.name;
    delta.new_ns_per_op = new_case.ns_per_op;
    delta.status = CaseDelta::Status::kOnlyNew;
    out.deltas.push_back(std::move(delta));
  }
  for (const CaseDelta& delta : out.deltas)
    if (delta.status != CaseDelta::Status::kSame) ++out.failures;
  return out;
}

void CompareReport::write_table(std::ostream& os) const {
  TableWriter table({"case", "status", "counter", "old", "new", "new/old",
                     "old ns/op", "new ns/op"});
  table.set_precision(6);
  for (const CaseDelta& delta : deltas) {
    const auto add_row = [&](const char* status, const CounterDelta* c) {
      table.begin_row().add(delta.name).add(status);
      if (c == nullptr) {
        table.add("").add("").add("").add("");
      } else {
        table.add(c->counter)
            .add(static_cast<long long>(c->old_value))
            .add(static_cast<long long>(c->new_value));
        if (c->old_value > 0)
          table.add(static_cast<double>(c->new_value) /
                    static_cast<double>(c->old_value));
        else
          table.add("");
      }
      table.add(delta.old_ns_per_op).add(delta.new_ns_per_op);
    };
    switch (delta.status) {
      case CaseDelta::Status::kSame: add_row("ok", nullptr); break;
      case CaseDelta::Status::kOnlyOld: add_row("only in old", nullptr); break;
      case CaseDelta::Status::kOnlyNew: add_row("only in new", nullptr); break;
      case CaseDelta::Status::kChanged:
        for (const CounterDelta& c : delta.changed) add_row("CHANGED", &c);
        break;
    }
  }
  table.write_markdown(os);
  os << "\n"
     << (failures > 0
             ? "FAIL: " + std::to_string(failures) + " of " +
                   std::to_string(deltas.size()) +
                   " case(s) changed counters or are in only one report "
                   "(after a deliberate change, regenerate the baseline)\n"
             : "ok: all " + std::to_string(deltas.size()) +
                   " case(s) have identical counters (ns/op is "
                   "report-only)\n");
}

}  // namespace omflp
