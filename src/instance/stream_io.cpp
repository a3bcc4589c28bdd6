#include "instance/stream_io.hpp"

#include <algorithm>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "instance/io_detail.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader = "OMFLP-STREAM v1";

/// Parsed "events <n> arrivals <k>" counts plus the sections before it.
struct StreamHeader {
  std::string name;
  CommodityId commodities = 0;
  MetricPtr metric;
  CostModelPtr cost;
  CapacityMap capacities;
  std::uint64_t num_events = 0;
  std::uint64_t num_arrivals = 0;
};

/// Strict count token: parse_u64_strict, so "events -5" fails here
/// instead of wrapping to 2^64-5 and dying on a bogus reserve.
std::uint64_t take_u64(iodetail::LineReader& reader, iodetail::Tokens& row,
                       const char* what) {
  const std::string_view token = row.next();
  if (token.empty()) reader.fail(std::string("missing ") + what);
  const auto value = parse_u64_strict(token);
  if (!value)
    reader.fail(std::string("bad ") + what + " '" + std::string(token) +
                "'");
  return *value;
}

StreamHeader read_header(iodetail::LineReader& reader) {
  StreamHeader header;
  if (reader.next_view("header") != kHeader)
    reader.fail("bad header, expected 'OMFLP-STREAM v1'");

  std::string name_line = reader.next("name");
  if (name_line.rfind("name ", 0) != 0) reader.fail("expected 'name ...'");
  header.name = name_line.substr(5);

  iodetail::Tokens commodities_line(reader.next_view("commodities"));
  if (commodities_line.next() != "commodities")
    reader.fail("expected 'commodities <|S|>'");
  const std::uint64_t s =
      take_u64(reader, commodities_line, "commodity count");
  if (s == 0 || s > std::numeric_limits<CommodityId>::max())
    reader.fail("commodity count out of range");
  header.commodities = static_cast<CommodityId>(s);

  header.metric = iodetail::read_metric_matrix(reader);
  header.cost = iodetail::read_cost_model(reader, header.commodities);

  // Optional capacity section between the cost model and the event
  // block; branch on the already-read line (no pushback).
  std::string section = reader.next("events");
  header.capacities = iodetail::maybe_read_capacities(
      reader, section, header.metric->num_points());

  iodetail::Tokens events_line(section);
  if (events_line.next() != "events")
    reader.fail("expected 'events <n> arrivals <k>'");
  header.num_events = take_u64(reader, events_line, "event count");
  if (events_line.next() != "arrivals")
    reader.fail("expected 'events <n> arrivals <k>'");
  header.num_arrivals = take_u64(reader, events_line, "arrival count");
  if (header.num_arrivals > header.num_events)
    reader.fail("arrival count exceeds event count");
  return header;
}

/// One event line in the format above. Strict, in the spirit of
/// support/parse.hpp: every numeric field must be a clean token (so
/// "d 3.5" is rejected rather than truncated to 3), duplicate commodity
/// ids fail instead of silently collapsing the demand set, and trailing
/// garbage after the last expected field is an error — a hand-edited or
/// corrupted trace must be rejected, not misread into another workload.
/// Tokens are views into the reader's reused line buffer: the only
/// allocation per event is the demand set itself.
StreamEvent read_event(iodetail::LineReader& reader, CommodityId s,
                       std::size_t num_points) {
  iodetail::Tokens row(reader.next_view("event"));
  const std::string_view tag = row.next();
  if (tag.empty()) reader.fail("empty event line");

  auto reject_trailing = [&] {
    const std::string_view extra = row.next();
    if (!extra.empty())
      reader.fail("trailing garbage '" + std::string(extra) +
                  "' on event line");
  };

  if (tag == "d") {
    const std::uint64_t target = take_u64(reader, row, "departure target");
    reject_trailing();
    return StreamEvent::departure(static_cast<RequestId>(target));
  }
  if (tag != "a")
    reader.fail("unknown event tag '" + std::string(tag) + "'");
  const std::uint64_t location = take_u64(reader, row, "arrival location");
  if (location >= num_points)
    reader.fail("arrival location outside the metric space");
  const std::uint64_t k = take_u64(reader, row, "demand-set size");
  if (k == 0 || k > s) reader.fail("bad demand-set size");
  Request r;
  r.location = static_cast<PointId>(location);
  r.commodities = CommoditySet(s);
  for (std::uint64_t j = 0; j < k; ++j) {
    const std::uint64_t e = take_u64(reader, row, "commodity id");
    if (e >= s) reader.fail("bad commodity id in arrival");
    if (r.commodities.contains(static_cast<CommodityId>(e)))
      reader.fail("duplicate commodity id in arrival");
    r.commodities.add(static_cast<CommodityId>(e));
  }
  std::uint64_t lease = 0;
  const std::string_view lease_tag = row.next();
  if (!lease_tag.empty()) {
    if (lease_tag != "L")
      reader.fail("trailing garbage '" + std::string(lease_tag) +
                  "' on event line");
    lease = take_u64(reader, row, "lease");
    if (lease == 0) reader.fail("lease must be positive");
    reject_trailing();
  }
  return StreamEvent::arrival(std::move(r), lease);
}

}  // namespace

void write_event_stream(std::ostream& os, const EventStream& stream) {
  os << kHeader << '\n';
  os << "name " << stream.name() << '\n';
  const CommodityId s = stream.num_commodities();
  os << "commodities " << s << '\n';
  os.precision(17);
  iodetail::write_metric_matrix(os, stream.metric());
  iodetail::write_cost_model(os, stream.cost(), s, "write_event_stream");
  iodetail::write_capacities(os, stream.capacities());

  os << "events " << stream.num_events() << " arrivals "
     << stream.num_arrivals() << '\n';
  for (const StreamEvent& e : stream.events()) {
    if (e.kind == StreamEvent::Kind::kDeparture) {
      os << "d " << e.target << '\n';
      continue;
    }
    os << "a " << e.request.location << ' ' << e.request.commodities.count();
    e.request.commodities.for_each(
        [&](CommodityId commodity) { os << ' ' << commodity; });
    if (e.lease > 0) os << " L " << e.lease;
    os << '\n';
  }
}

std::string event_stream_to_string(const EventStream& stream) {
  std::ostringstream os;
  write_event_stream(os, stream);
  return os.str();
}

EventStream read_event_stream(std::istream& is) {
  iodetail::LineReader reader(is, "read_event_stream");
  StreamHeader header = read_header(reader);
  std::vector<StreamEvent> events;
  // Capped reserve: a syntactically-valid but absurd declared count must
  // fail at "unexpected end of input", not in the allocator.
  events.reserve(capped_reserve(header.num_events, std::size_t{1} << 20));
  const std::size_t points = header.metric->num_points();
  for (std::uint64_t i = 0; i < header.num_events; ++i)
    events.push_back(read_event(reader, header.commodities, points));
  if (reader.try_next())
    reader.fail("trailing content after the declared events");
  EventStream stream(std::move(header.metric), std::move(header.cost),
                     std::move(events), std::move(header.name));
  stream.set_capacities(std::move(header.capacities));
  if (stream.num_arrivals() != header.num_arrivals)
    reader.fail("arrival count does not match the header");
  return stream;
}

EventStream event_stream_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_event_stream(is);
}

// ------------------------------------------------------- batched reader ---

struct StreamTraceReader::Impl {
  iodetail::LineReader reader;
  StreamHeader header;
  std::size_t num_points = 0;
  std::uint64_t remaining = 0;
  std::uint64_t arrivals_seen = 0;

  explicit Impl(std::istream& is) : reader(is, "read_event_stream") {
    header = read_header(reader);
    num_points = header.metric->num_points();
    remaining = header.num_events;
  }
};

StreamTraceReader::StreamTraceReader(std::istream& is)
    : impl_(std::make_unique<Impl>(is)) {}

StreamTraceReader::~StreamTraceReader() = default;

MetricPtr StreamTraceReader::metric() const { return impl_->header.metric; }
CostModelPtr StreamTraceReader::cost() const { return impl_->header.cost; }
CapacityMap StreamTraceReader::capacities() const {
  return impl_->header.capacities;
}
const std::string& StreamTraceReader::name() const {
  return impl_->header.name;
}
std::uint64_t StreamTraceReader::num_events() const noexcept {
  return impl_->header.num_events;
}
std::uint64_t StreamTraceReader::num_arrivals() const noexcept {
  return impl_->header.num_arrivals;
}

std::size_t StreamTraceReader::next_batch(std::vector<StreamEvent>& out,
                                          std::size_t max_events) {
  std::size_t produced = 0;
  while (produced < max_events && impl_->remaining > 0) {
    out.push_back(read_event(impl_->reader, impl_->header.commodities,
                             impl_->num_points));
    if (out.back().kind == StreamEvent::Kind::kArrival)
      ++impl_->arrivals_seen;
    --impl_->remaining;
    ++produced;
  }
  if (impl_->remaining == 0 && produced > 0) {
    if (impl_->arrivals_seen != impl_->header.num_arrivals)
      impl_->reader.fail("arrival count does not match the header");
    // The declared count must cover the whole file: a truncated 'events'
    // header would otherwise silently replay a prefix of the workload.
    if (impl_->reader.try_next())
      impl_->reader.fail("trailing content after the declared events");
  }
  return produced;
}

}  // namespace omflp
