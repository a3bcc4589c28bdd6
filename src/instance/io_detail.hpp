// Shared internals of the trace formats (instance/io.hpp and
// instance/stream_io.hpp): the comment-skipping line reader and the
// metric / cost-model section (de)serializers both formats embed.
//
// Everything here is an implementation detail of the two public IO
// modules; include it only from their .cpps (and tests that pin the
// section formats down).
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "cost/cost_model.hpp"
#include "instance/capacity.hpp"
#include "metric/metric_space.hpp"

namespace omflp::iodetail {

/// Reads the next non-comment, non-blank line; tracks line numbers for
/// error messages prefixed with the owning parser's name.
class LineReader {
 public:
  LineReader(std::istream& is, std::string error_prefix)
      : is_(is), prefix_(std::move(error_prefix)) {}

  /// Next content line; throws std::invalid_argument naming `what` at
  /// end of input.
  std::string next(const char* what);

  /// next() without the copy: a view into the reader's line buffer,
  /// valid until the next call on this reader. Steady-state reads
  /// reuse the buffer and allocate nothing.
  std::string_view next_view(const char* what);

  /// Next content line, or nullopt at end of input (for optional
  /// trailing sections).
  std::optional<std::string> try_next();

  [[noreturn]] void fail(const std::string& msg) const;

  std::size_t line_number() const noexcept { return line_number_; }

 private:
  /// Loads the next content line into line_; false at end of input.
  bool advance();

  std::istream& is_;
  std::string prefix_;
  std::string line_;
  std::size_t line_number_ = 0;
};

/// Whitespace-separated tokens of one line, as views into it. Splits on
/// exactly the C-locale whitespace set (space, \t, \n, \v, \f, \r), so
/// token boundaries match `istream >> std::string`, without the stream,
/// its locale lookups or a string per token.
class Tokens {
 public:
  explicit Tokens(std::string_view line) noexcept : rest_(line) {}

  /// The next token, or an empty view once the line is exhausted.
  std::string_view next() noexcept {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

 private:
  static constexpr bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
  }

  std::string_view rest_;
};

/// "metric matrix <|M|>" plus |M| rows of 17-significant-digit
/// distances. Any MetricSpace serializes through its (exactly symmetric)
/// distance matrix.
void write_metric_matrix(std::ostream& os, const MetricSpace& metric);

/// Reads the section write_metric_matrix emits; returns a MatrixMetric.
MetricPtr read_metric_matrix(LineReader& reader);

/// "cost sizeonly <g(0)> ... <g(|S|)>" or "cost linear <w_0> ...".
/// Throws std::invalid_argument — prefixed with `error_prefix`, the
/// calling writer's name — for models that are neither size-only nor
/// linear (the general f^σ_m has 2^|S| values per point).
void write_cost_model(std::ostream& os, const FacilityCostModel& cost,
                      CommodityId num_commodities,
                      const char* error_prefix);

/// Reads the section write_cost_model emits.
CostModelPtr read_cost_model(LineReader& reader,
                             CommodityId num_commodities);

/// Optional capacity section shared by both formats: "capacities <k>"
/// plus k rows "<point> <cap>" (strictly ascending points, finite caps
/// only). Written only when the map constrains at least one point, so
/// uncapacitated files are byte-identical to the pre-capacity formats.
void write_capacities(std::ostream& os, const CapacityMap& capacities);

/// If `line` is a "capacities <k>" header, consumes the section's rows
/// from `reader`, replaces `line` with the following content line (the
/// caller's next expected section) and returns the parsed map over
/// `num_points` points. Any other `line` is left untouched and nullptr
/// is returned. The LineReader has no pushback, so optional sections are
/// parsed by branching on the already-read line.
CapacityMap maybe_read_capacities(LineReader& reader, std::string& line,
                                  std::size_t num_points);

}  // namespace omflp::iodetail
