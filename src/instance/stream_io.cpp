#include "instance/stream_io.hpp"

#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "instance/io_detail.hpp"
#include "support/parse.hpp"
#include "support/record_io.hpp"

namespace omflp {

namespace {

constexpr const char* kHeader = "OMFLP-STREAM v1";

}  // namespace

void write_event_stream(std::ostream& os, const EventStream& stream) {
  iodetail::write_preamble(os, kHeader, stream.name(), stream.metric(),
                           stream.cost(), stream.capacities(),
                           "write_event_stream");
  os << "events " << stream.num_events() << " arrivals "
     << stream.num_arrivals() << '\n';
  for (const StreamEvent& e : stream.events()) {
    if (e.kind == StreamEvent::Kind::kDeparture) {
      os << "d " << e.target << '\n';
      continue;
    }
    os << "a ";
    iodetail::write_demand(os, e.request);
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
  StreamTraceReader reader(is);
  std::vector<StreamEvent> events;
  // Capped reserve: a syntactically-valid but absurd declared count must
  // fail at "unexpected end of input", not in the allocator.
  events.reserve(capped_reserve(reader.num_events(), std::size_t{1} << 20));
  reader.next_batch(events, std::numeric_limits<std::size_t>::max());
  EventStream stream(reader.metric(), reader.cost(), std::move(events),
                     reader.name());
  stream.set_capacities(reader.capacities());
  return stream;
}

EventStream event_stream_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_event_stream(is);
}

// ------------------------------------------------------- batched reader ---

struct StreamTraceReader::Impl {
  RecordReader in;
  iodetail::Preamble preamble;
  CommodityId commodities = 0;
  std::size_t num_points = 0;
  std::uint64_t num_events = 0;
  std::uint64_t num_arrivals = 0;
  std::uint64_t remaining = 0;
  std::uint64_t arrivals_seen = 0;
  bool drained = false;

  explicit Impl(std::istream& is)
      : in(is, "read_event_stream"),
        preamble(iodetail::read_preamble(in, kHeader, "events")),
        commodities(preamble.cost->num_commodities()),
        num_points(preamble.metric->num_points()) {
    in.keyword("events", "expected 'events <n> arrivals <k>'");
    num_events = in.u64("event count");
    in.keyword("arrivals", "expected 'events <n> arrivals <k>'");
    num_arrivals = in.u64("arrival count");
    in.end("events line");
    if (num_arrivals > num_events)
      in.fail("arrival count exceeds event count");
    remaining = num_events;
  }

  /// One event line in the format above. Tokens are views into the
  /// reader's reused line buffer: the only allocation per event is the
  /// demand set itself.
  StreamEvent read_event() {
    in.line("event");
    const std::string_view tag = in.next();
    if (tag.empty()) in.fail("empty event line");
    if (tag == "d") {
      const std::uint64_t target = in.u64("departure target");
      in.end("event line");
      return StreamEvent::departure(static_cast<RequestId>(target));
    }
    if (tag != "a") in.fail("unknown event tag '" + std::string(tag) + "'");
    Request request =
        iodetail::read_demand(in, commodities, num_points, "arrival");
    std::uint64_t lease = 0;
    if (in.accept("L")) {
      lease = in.u64("lease");
      if (lease == 0) in.fail("lease must be positive");
    }
    in.end("event line");
    return StreamEvent::arrival(std::move(request), lease);
  }
};

StreamTraceReader::StreamTraceReader(std::istream& is)
    : impl_(std::make_unique<Impl>(is)) {}

StreamTraceReader::~StreamTraceReader() = default;

MetricPtr StreamTraceReader::metric() const { return impl_->preamble.metric; }
CostModelPtr StreamTraceReader::cost() const { return impl_->preamble.cost; }
CapacityMap StreamTraceReader::capacities() const {
  return impl_->preamble.capacities;
}
const std::string& StreamTraceReader::name() const {
  return impl_->preamble.name;
}
std::uint64_t StreamTraceReader::num_events() const noexcept {
  return impl_->num_events;
}
std::uint64_t StreamTraceReader::num_arrivals() const noexcept {
  return impl_->num_arrivals;
}

std::size_t StreamTraceReader::next_batch(std::vector<StreamEvent>& out,
                                          std::size_t max_events) {
  Impl& impl = *impl_;
  std::size_t produced = 0;
  for (; produced < max_events && impl.remaining > 0; ++produced) {
    out.push_back(impl.read_event());
    if (out.back().kind == StreamEvent::Kind::kArrival) ++impl.arrivals_seen;
    --impl.remaining;
  }
  // Once, as the declared events run out — also when none are declared.
  if (impl.remaining == 0 && !impl.drained) {
    impl.drained = true;
    if (impl.arrivals_seen != impl.num_arrivals)
      impl.in.fail("arrival count does not match the header");
    // The declared count must cover the whole file: a truncated 'events'
    // header would otherwise silently replay a prefix of the workload.
    impl.in.expect_eof("the declared events");
  }
  return produced;
}

}  // namespace omflp
