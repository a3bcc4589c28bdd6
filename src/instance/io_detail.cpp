#include "instance/io_detail.hpp"

#include <limits>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "cost/cost_models.hpp"
#include "metric/matrix_metric.hpp"
#include "support/commodity_set.hpp"
#include "support/parse.hpp"

namespace omflp::iodetail {

namespace {

// Tables grow with a capped reserve instead of being sized by a declared
// count: a syntactically valid but absurd |M| or |S| (fuzzed or corrupt
// traces) must fail at a missing value or the end of input, not in the
// allocator — memory stays proportional to the bytes actually present.
constexpr std::size_t kReserveCap = std::size_t{1} << 12;

void write_metric_matrix(std::ostream& os, const MetricSpace& metric) {
  const std::size_t points = metric.num_points();
  os << "metric matrix " << points << '\n';
  // Every shipped MetricSpace is exactly symmetric (GraphMetric
  // symmetrizes its per-source Dijkstra results at construction); the
  // MatrixMetric constructor on the reading side validates this, so an
  // asymmetric future metric fails loudly at read time.
  for (PointId a = 0; a < points; ++a) {
    for (PointId b = 0; b < points; ++b) {
      if (b) os << ' ';
      os << metric.distance(a, b);
    }
    os << '\n';
  }
}

MetricPtr read_metric_matrix(RecordReader& in) {
  in.line("metric");
  in.keyword("metric", "expected 'metric matrix <|M|>'");
  in.keyword("matrix", "expected 'metric matrix <|M|>'");
  const std::uint64_t points = in.u64("point count");
  if (points == 0) in.fail("point count out of range");
  in.end("metric line");
  std::vector<std::vector<double>> matrix;
  matrix.reserve(capped_reserve(points, kReserveCap));
  for (std::uint64_t a = 0; a < points; ++a) {
    in.line("metric row");
    std::vector<double> row;
    row.reserve(capped_reserve(points, kReserveCap));
    for (std::uint64_t b = 0; b < points; ++b)
      row.push_back(in.real("distance"));
    in.end("metric row");
    matrix.push_back(std::move(row));
  }
  return std::make_shared<MatrixMetric>(std::move(matrix));
}

// The model's own hooks pick the section: size-only and linear costs are
// the two whose f^σ_m fits on one line. Linear values are written as
// singleton costs, not as the weights, so a loaded -0 weight prints 0.
void write_cost_model(std::ostream& os, const FacilityCostModel& cost,
                      const char* writer) {
  const CommodityId s = cost.num_commodities();
  if (cost.location_invariant() && cost.cost_by_size(0, 0)) {
    os << "cost sizeonly";
    for (CommodityId k = 0; k <= s; ++k)
      os << ' ' << cost.cost_by_size(0, k).value();
  } else if (cost.location_invariant() && cost.additive_weights(0)) {
    os << "cost linear";
    for (CommodityId e = 0; e < s; ++e)
      os << ' ' << cost.singleton_cost(0, e);
  } else {
    throw std::invalid_argument(
        std::string(writer) +
        ": only size-only and linear cost models are serializable; got " +
        cost.description());
  }
  os << '\n';
}

CostModelPtr read_cost_model(RecordReader& in, CommodityId s) {
  in.line("cost");
  in.keyword("cost", "expected 'cost <kind> ...'");
  const std::string_view kind = in.word("cost kind");
  const bool size_only = kind == "sizeonly";
  if (!size_only && kind != "linear")
    in.fail("unknown cost kind '" + std::string(kind) + "'");
  // In size_t: at the largest |S|, `s + 1` as a CommodityId wraps to 0.
  const std::size_t count =
      static_cast<std::size_t>(s) + (size_only ? 1 : 0);
  std::vector<double> values;
  values.reserve(capped_reserve(count, kReserveCap));
  for (std::size_t i = 0; i < count; ++i)
    values.push_back(in.real(size_only ? "size cost" : "linear weight"));
  in.end("cost line");
  if (size_only)
    return std::make_shared<SizeOnlyCostModel>(
        s, [table = std::move(values)](CommodityId k) { return table[k]; },
        "sizeonly(loaded)");
  return std::make_shared<LinearCostModel>(std::move(values));
}

void write_capacities(std::ostream& os, const CapacityMap& capacities) {
  if (!is_capacitated(capacities)) return;
  const std::vector<std::uint64_t>& caps = *capacities;
  std::size_t finite = 0;
  for (std::uint64_t c : caps)
    if (c != kUncapacitated) ++finite;
  os << "capacities " << finite << '\n';
  for (std::size_t p = 0; p < caps.size(); ++p)
    if (caps[p] != kUncapacitated) os << p << ' ' << caps[p] << '\n';
}

/// The rows of a capacities section whose keyword `in` has consumed.
CapacityMap read_capacities(RecordReader& in, std::size_t num_points) {
  const std::uint64_t k = in.u64("capacity count");
  if (k > num_points) in.fail("bad capacity count");
  in.end("capacities line");
  // num_points is bounded by metric rows actually present in the input,
  // so sizing the map by it is not an untrusted-count allocation.
  auto caps = std::make_shared<std::vector<std::uint64_t>>(
      num_points, kUncapacitated);
  std::uint64_t previous = 0;
  for (std::uint64_t i = 0; i < k; ++i) {
    in.line("capacity row");
    const std::uint64_t point = in.u64("capacity point");
    const std::uint64_t cap = in.u64("capacity");
    in.end("capacity row");
    if (point >= num_points)
      in.fail("capacity point outside the metric space");
    if (cap == kUncapacitated)
      in.fail("capacity row for an uncapacitated point");
    if (i > 0 && point <= previous)
      in.fail("capacity rows must have strictly ascending points");
    previous = point;
    (*caps)[point] = cap;
  }
  return caps;
}

}  // namespace

void write_preamble(std::ostream& os, std::string_view header,
                    const std::string& name, const MetricSpace& metric,
                    const FacilityCostModel& cost,
                    const CapacityMap& capacities, const char* writer) {
  os << header << '\n';
  os << "name " << name << '\n';
  os << "commodities " << cost.num_commodities() << '\n';
  os.precision(17);
  write_metric_matrix(os, metric);
  write_cost_model(os, cost, writer);
  write_capacities(os, capacities);
}

Preamble read_preamble(RecordReader& in, std::string_view header,
                       const char* next_section) {
  Preamble preamble;
  in.line("header");
  if (in.text() != header)
    in.fail("bad header, expected '" + std::string(header) + "'");

  in.line("name");
  in.keyword("name", "expected 'name ...'");
  preamble.name = in.rest();

  in.line("commodities");
  in.keyword("commodities", "expected 'commodities <|S|>'");
  const std::uint64_t s = in.u64("commodity count");
  if (s == 0 || s > std::numeric_limits<CommodityId>::max())
    in.fail("commodity count out of range");
  in.end("commodities line");

  preamble.metric = read_metric_matrix(in);
  preamble.cost = read_cost_model(in, static_cast<CommodityId>(s));

  in.line(next_section);
  if (in.accept("capacities")) {
    preamble.capacities = read_capacities(in, preamble.metric->num_points());
    in.line(next_section);
  }
  return preamble;
}

void write_demand(std::ostream& os, const Request& request) {
  os << request.location << ' ' << request.commodities.count();
  request.commodities.for_each([&](CommodityId e) { os << ' ' << e; });
}

Request read_demand(RecordReader& in, CommodityId s, std::size_t num_points,
                    const char* what) {
  const std::uint64_t location = in.u64("location");
  if (location >= num_points)
    in.fail(std::string(what) + " location outside the metric space");
  const std::uint64_t k = in.u64("demand-set size");
  if (k == 0 || k > s) in.fail("bad demand-set size");
  Request request;
  request.location = static_cast<PointId>(location);
  request.commodities = CommoditySet(s);
  for (std::uint64_t j = 0; j < k; ++j) {
    const std::uint64_t e = in.u64("commodity id");
    if (e >= s) in.fail(std::string("bad commodity id in ") + what);
    const auto id = static_cast<CommodityId>(e);
    if (request.commodities.contains(id))
      in.fail(std::string("duplicate commodity id in ") + what);
    request.commodities.add(id);
  }
  return request;
}

}  // namespace omflp::iodetail
