// Shared grammar of the two instance-shaped trace formats
// (instance/io.hpp and instance/stream_io.hpp): the preamble both files
// open with and the demand line their request and arrival lines share.
// Both are read through RecordReader (support/record_io.hpp), the reader
// every whitespace text format parses with.
//
// Everything here is an implementation detail of the two public IO
// modules; include it only from their .cpps.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cost/cost_model.hpp"
#include "instance/capacity.hpp"
#include "instance/instance.hpp"
#include "metric/metric_space.hpp"
#include "support/record_io.hpp"

namespace omflp::iodetail {

/// The sections OMFLP-INSTANCE and OMFLP-STREAM share, in file order:
///   <header>
///   name <free text>
///   commodities <|S|>
///   metric matrix <|M|>
///   <|M| rows of |M| 17-significant-digit distances>
///   cost sizeonly <g(0)> ... <g(|S|)>   (or)   cost linear <w_0> ...
///   capacities <k>                      (optional section)
///   <k rows of '<point> <cap>', strictly ascending points, finite caps>
/// |S| is the cost model's universe.
struct Preamble {
  std::string name;
  MetricPtr metric;
  CostModelPtr cost;
  CapacityMap capacities;
};

/// Writes the sections above and leaves `os` at 17 significant digits.
/// Any MetricSpace serializes through its (exactly symmetric) distance
/// matrix. The capacities section is written only when the map
/// constrains a point. Throws std::invalid_argument, prefixed with
/// `writer`, unless the cost model is location-invariant and size-only
/// or additive (the general f^σ_m has 2^|S| values per point).
void write_preamble(std::ostream& os, std::string_view header,
                    const std::string& name, const MetricSpace& metric,
                    const FacilityCostModel& cost,
                    const CapacityMap& capacities, const char* writer);

/// Reads the sections above and loads the line after them, the caller's
/// `next_section`.
Preamble read_preamble(RecordReader& in, std::string_view header,
                       const char* next_section);

/// "<m_r> <|s_r|> <e_1> ... <e_k>": a request's point and its demand set
/// in ascending commodity order.
void write_demand(std::ostream& os, const Request& request);

/// Reads the fields write_demand writes from the current line. Requires
/// the location inside the metric, 1 ≤ k ≤ |S| and distinct ids below
/// |S|. `what` ("request", "arrival") names the line in messages.
Request read_demand(RecordReader& in, CommodityId num_commodities,
                    std::size_t num_points, const char* what);

}  // namespace omflp::iodetail
