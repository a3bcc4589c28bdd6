#include "instance/io_detail.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cost/cost_models.hpp"
#include "metric/matrix_metric.hpp"
#include "support/commodity_set.hpp"
#include "support/parse.hpp"

namespace omflp::iodetail {

bool LineReader::advance() {
  while (std::getline(is_, line_)) {
    ++line_number_;
    const auto first = line_.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line_[first] == '#') continue;
    return true;
  }
  return false;
}

std::string LineReader::next(const char* what) {
  return std::string(next_view(what));
}

std::string_view LineReader::next_view(const char* what) {
  if (advance()) return line_;
  throw std::invalid_argument(prefix_ +
                              ": unexpected end of input while reading " +
                              what);
}

std::optional<std::string> LineReader::try_next() {
  if (advance()) return line_;
  return std::nullopt;
}

void LineReader::fail(const std::string& msg) const {
  std::ostringstream os;
  os << prefix_ << ": " << msg << " (line " << line_number_ << ")";
  throw std::invalid_argument(os.str());
}

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

MetricPtr read_metric_matrix(LineReader& reader) {
  std::istringstream metric_line(reader.next("metric"));
  std::string word, metric_kind;
  std::size_t points = 0;
  if (!(metric_line >> word >> metric_kind >> points) || word != "metric" ||
      metric_kind != "matrix" || points == 0)
    reader.fail("expected 'metric matrix <|M|>'");
  // Grow row by row with a capped reserve instead of allocating
  // points x points up front: a syntactically-valid but absurd declared
  // |M| (fuzzed or corrupt traces) must fail at "short metric row" /
  // "unexpected end of input", not in the allocator — memory use stays
  // proportional to the bytes actually present in the input.
  constexpr std::size_t kReserveCap = std::size_t{1} << 12;
  std::vector<std::vector<double>> matrix;
  matrix.reserve(capped_reserve(points, kReserveCap));
  for (std::size_t a = 0; a < points; ++a) {
    std::istringstream row(reader.next("metric row"));
    std::vector<double> values;
    values.reserve(capped_reserve(points, kReserveCap));
    for (std::size_t b = 0; b < points; ++b) {
      double value = 0.0;
      if (!(row >> value)) reader.fail("short metric row");
      values.push_back(value);
    }
    matrix.push_back(std::move(values));
  }
  return std::make_shared<MatrixMetric>(std::move(matrix));
}

void write_cost_model(std::ostream& os, const FacilityCostModel& cost,
                      CommodityId s, const char* error_prefix) {
  if (const auto* size_only =
          dynamic_cast<const SizeOnlyCostModel*>(&cost)) {
    os << "cost sizeonly";
    for (CommodityId k = 0; k <= s; ++k)
      os << ' ' << size_only->cost_of_size(k);
    os << '\n';
  } else if (const auto* poly =
                 dynamic_cast<const PolynomialCostModel*>(&cost)) {
    os << "cost sizeonly";
    for (CommodityId k = 0; k <= s; ++k) os << ' ' << poly->cost_of_size(k);
    os << '\n';
  } else if (const auto* ceil_ratio =
                 dynamic_cast<const CeilRatioCostModel*>(&cost)) {
    os << "cost sizeonly";
    for (CommodityId k = 0; k <= s; ++k)
      os << ' ' << ceil_ratio->cost_of_size(k);
    os << '\n';
  } else if (const auto* linear =
                 dynamic_cast<const LinearCostModel*>(&cost)) {
    os << "cost linear";
    for (CommodityId e = 0; e < s; ++e)
      os << ' ' << linear->open_cost(0, CommoditySet::singleton(s, e));
    os << '\n';
  } else {
    throw std::invalid_argument(
        std::string(error_prefix) +
        ": only size-only and linear cost models are serializable; got " +
        cost.description());
  }
}

CostModelPtr read_cost_model(LineReader& reader, CommodityId s) {
  std::istringstream cost_line(reader.next("cost"));
  std::string word, cost_kind;
  if (!(cost_line >> word >> cost_kind) || word != "cost")
    reader.fail("expected 'cost <kind> ...'");
  // Size-safe loops: with a corrupt |S| near the CommodityId maximum,
  // `s + 1` used to wrap to 0 — an empty table the `k <= s` loop then
  // wrote past (heap overflow), found by tests/test_fuzz_parsers.cpp.
  // Tables now grow with a capped reserve, so a huge declared |S| fails
  // at "short ... table" instead of allocating gigabytes up front.
  constexpr std::size_t kReserveCap = std::size_t{1} << 12;
  const std::size_t universe = static_cast<std::size_t>(s);
  if (cost_kind == "sizeonly") {
    std::vector<double> table;
    table.reserve(capped_reserve(universe + 1, kReserveCap));
    for (std::size_t k = 0; k <= universe; ++k) {
      double value = 0.0;
      if (!(cost_line >> value)) reader.fail("short sizeonly cost table");
      table.push_back(value);
    }
    return std::make_shared<SizeOnlyCostModel>(
        s, [table](CommodityId k) { return table[k]; }, "sizeonly(loaded)");
  }
  if (cost_kind == "linear") {
    std::vector<double> weights;
    weights.reserve(capped_reserve(universe, kReserveCap));
    for (std::size_t e = 0; e < universe; ++e) {
      double weight = 0.0;
      if (!(cost_line >> weight)) reader.fail("short linear weights");
      weights.push_back(weight);
    }
    return std::make_shared<LinearCostModel>(std::move(weights));
  }
  reader.fail("unknown cost kind '" + cost_kind + "'");
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

CapacityMap maybe_read_capacities(LineReader& reader, std::string& line,
                                  std::size_t num_points) {
  std::istringstream header(line);
  std::string word, count_text;
  if (!(header >> word) || word != "capacities") return nullptr;
  std::string trailing;
  if (!(header >> count_text) || (header >> trailing))
    reader.fail("expected 'capacities <k>'");
  const auto k = parse_u64_strict(count_text);
  if (!k || *k > num_points) reader.fail("bad capacity count");
  // num_points is bounded by metric rows actually present in the input,
  // so sizing the map by it is not an untrusted-count allocation.
  auto caps = std::make_shared<std::vector<std::uint64_t>>(
      num_points, kUncapacitated);
  bool first = true;
  PointId previous = 0;
  for (std::uint64_t i = 0; i < *k; ++i) {
    std::istringstream row(reader.next("capacity row"));
    std::string point_text, cap_text;
    if (!(row >> point_text >> cap_text) || (row >> trailing))
      reader.fail("bad capacity row, expected '<point> <cap>'");
    const auto point = parse_u64_strict(point_text);
    const auto cap = parse_u64_strict(cap_text);
    if (!point || !cap || *point >= num_points)
      reader.fail("bad capacity row, expected '<point> <cap>'");
    if (*cap == kUncapacitated)
      reader.fail("capacity row for an uncapacitated point");
    const PointId p = static_cast<PointId>(*point);
    if (!first && p <= previous)
      reader.fail("capacity rows must have strictly ascending points");
    first = false;
    previous = p;
    (*caps)[p] = *cap;
  }
  line = reader.next("section after capacities");
  return caps;
}

}  // namespace omflp::iodetail
