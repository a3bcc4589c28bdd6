// Plain-text (de)serialization of instances, so workloads can be saved,
// shared and replayed byte-identically.
//
// Format (line-oriented, '#' comments allowed between sections):
//   OMFLP-INSTANCE v1
//   name <free text>
//   commodities <|S|>
//   metric matrix <|M|>
//   <|M| rows of |M| distances>
//   cost sizeonly <g(0)> <g(1)> ... <g(|S|)>      (or)
//   cost linear <w_0> ... <w_{|S|-1}>
//   capacities <k>                                (optional section)
//   <point> <cap>                                 (k lines, ascending)
//   requests <n>
//   <location> <k> <e_1> ... <e_k>                (n lines)
//   opt <upper_bound> <exact:0|1> <note...>       (optional, last line)
//
// Any MetricSpace serializes (as its distance matrix). Cost models must be
// size-only or linear — the general f^σ_m has 2^|S| values per point and
// is not meaningfully serializable; write_instance throws for other
// models.
#pragma once

#include <iosfwd>
#include <string>

#include "instance/instance.hpp"

namespace omflp {

void write_instance(std::ostream& os, const Instance& instance);
std::string instance_to_string(const Instance& instance);

/// Parses the format above; throws std::invalid_argument with a line
/// number on malformed input.
Instance read_instance(std::istream& is);
Instance instance_from_string(const std::string& text);

}  // namespace omflp
