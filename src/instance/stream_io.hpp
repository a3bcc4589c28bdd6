// Plain-text (de)serialization of dynamic event streams, built on the
// same section format as instance/io.hpp so stream traces can be saved,
// shared and replayed byte-identically.
//
// Format (line-oriented, '#' comments allowed between sections):
//   OMFLP-STREAM v1
//   name <free text>
//   commodities <|S|>
//   metric matrix <|M|>
//   <|M| rows of |M| distances>
//   cost sizeonly <g(0)> ... <g(|S|)>              (or)
//   cost linear <w_0> ... <w_{|S|-1}>
//   capacities <k>                                 (optional section)
//   <k rows of '<point> <cap>', ascending points>
//   events <n> arrivals <k>
//   a <location> <j> <e_1> ... <e_j>               arrival, pinned
//   a <location> <j> <e_1> ... <e_j> L <lease>     arrival with a lease
//   d <arrival_id>                                 departure
//
// One reader: StreamTraceReader is the bounded-memory EventSource the
// `omflp stream` CLI uses — it parses the header eagerly and then yields
// events in caller-sized batches, so a million-event trace is processed
// holding one batch at a time. read_event_stream drains it into a
// materialized stream (tests, small traces).
#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "instance/event_stream.hpp"

namespace omflp {

void write_event_stream(std::ostream& os, const EventStream& stream);
std::string event_stream_to_string(const EventStream& stream);

/// Parses the format above in full; throws std::invalid_argument with a
/// line number on malformed input.
EventStream read_event_stream(std::istream& is);
EventStream event_stream_from_string(const std::string& text);

/// Streaming reader: the header (name, metric, cost, counts) is parsed at
/// construction; events are parsed on demand by next_batch. The istream
/// must outlive the reader.
class StreamTraceReader final : public EventSource {
 public:
  explicit StreamTraceReader(std::istream& is);
  ~StreamTraceReader() override;

  MetricPtr metric() const override;
  CostModelPtr cost() const override;
  CapacityMap capacities() const override;
  const std::string& name() const override;
  std::size_t next_batch(std::vector<StreamEvent>& out,
                         std::size_t max_events) override;

  /// Event / arrival counts declared by the trace header.
  std::uint64_t num_events() const noexcept;
  std::uint64_t num_arrivals() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace omflp
