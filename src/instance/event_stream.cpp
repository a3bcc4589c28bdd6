#include "instance/event_stream.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "support/assert.hpp"

namespace omflp {

namespace {

/// Min-heap entry for pending lease expiries: (deadline event index,
/// arrival id), ordered ascending on both so simultaneous expiries fire
/// in arrival order.
using Expiry = std::pair<std::uint64_t, RequestId>;
using ExpiryHeap =
    std::priority_queue<Expiry, std::vector<Expiry>, std::greater<Expiry>>;

}  // namespace

EventStream::EventStream(MetricPtr metric, CostModelPtr cost,
                         std::vector<StreamEvent> events, std::string name)
    : metric_(std::move(metric)),
      cost_(std::move(cost)),
      events_(std::move(events)),
      name_(std::move(name)) {
  OMFLP_REQUIRE(metric_ != nullptr, "EventStream: null metric");
  OMFLP_REQUIRE(cost_ != nullptr, "EventStream: null cost model");
  for (const StreamEvent& e : events_)
    if (e.kind == StreamEvent::Kind::kArrival) ++num_arrivals_;
}

void EventStream::validate() const {
  const CommodityId s = cost_->num_commodities();
  const std::size_t points = metric_->num_points();
  std::vector<bool> active;  // by arrival id
  active.reserve(num_arrivals_);
  ExpiryHeap expiries;
  // Lease expiries matter only to the departure checks: a stream of
  // arrivals alone (lease-poisson) skips the heap.
  const bool has_departures = num_arrivals_ != events_.size();

  auto fail = [](std::size_t t, const std::string& what) {
    std::ostringstream os;
    os << "EventStream: event " << t << ": " << what;
    throw std::invalid_argument(os.str());
  };

  for (std::size_t t = 0; t < events_.size(); ++t) {
    while (!expiries.empty() && expiries.top().first <= t) {
      const RequestId id = expiries.top().second;
      expiries.pop();
      active[id] = false;  // no-op if an explicit departure beat the lease
    }
    const StreamEvent& e = events_[t];
    if (e.kind == StreamEvent::Kind::kArrival) {
      if (e.request.location >= points)
        fail(t, "arrival location outside the metric space");
      if (e.request.commodities.universe_size() != s)
        fail(t, "arrival demand set over the wrong universe");
      if (e.request.commodities.empty()) fail(t, "empty demand set");
      const RequestId id = active.size();
      active.push_back(true);
      if (has_departures && e.lease > 0)
        expiries.emplace(lease_deadline(t, e.lease), id);
    } else {
      if (e.target >= active.size())
        fail(t, "departure of an arrival that has not happened");
      if (!active[e.target])
        fail(t, "departure of an arrival that is no longer active");
      active[e.target] = false;
    }
  }
}

std::vector<RequestId> EventStream::surviving_arrivals() const {
  std::vector<bool> active;
  active.reserve(num_arrivals_);
  ExpiryHeap expiries;
  for (std::size_t t = 0; t < events_.size(); ++t) {
    while (!expiries.empty() && expiries.top().first <= t) {
      active[expiries.top().second] = false;
      expiries.pop();
    }
    const StreamEvent& e = events_[t];
    if (e.kind == StreamEvent::Kind::kArrival) {
      const RequestId id = active.size();
      active.push_back(true);
      if (e.lease > 0) expiries.emplace(lease_deadline(t, e.lease), id);
    } else {
      OMFLP_REQUIRE(e.target < active.size() && active[e.target],
                    "EventStream: invalid departure (run validate())");
      active[e.target] = false;
    }
  }
  // Leases with deadlines past the end never fire: whatever is still
  // marked active survives.
  std::vector<RequestId> out;
  for (RequestId id = 0; id < active.size(); ++id)
    if (active[id]) out.push_back(id);
  return out;
}

Instance EventStream::surviving_instance() const {
  const std::vector<RequestId> survivors = surviving_arrivals();
  std::vector<bool> keep(num_arrivals_, false);
  for (const RequestId id : survivors) keep[id] = true;
  std::vector<Request> requests;
  requests.reserve(survivors.size());
  RequestId arrival = 0;
  for (const StreamEvent& e : events_) {
    if (e.kind != StreamEvent::Kind::kArrival) continue;
    if (keep[arrival]) requests.push_back(e.request);
    ++arrival;
  }
  Instance instance(metric_, cost_, std::move(requests),
                    name_ + "-surviving");
  instance.set_capacities(capacities_);
  return instance;
}

void EventStream::set_capacities(CapacityMap capacities) {
  if (capacities) {
    OMFLP_REQUIRE(capacities->size() <= metric_->num_points(),
                  "EventStream: capacity map larger than the metric space");
  }
  capacities_ = std::move(capacities);
}

std::size_t MaterializedEventSource::next_batch(
    std::vector<StreamEvent>& out, std::size_t max_events) {
  const std::vector<StreamEvent>& events = stream_->events();
  const std::size_t n = std::min(max_events, events.size() - cursor_);
  out.insert(out.end(), events.begin() + static_cast<std::ptrdiff_t>(cursor_),
             events.begin() + static_cast<std::ptrdiff_t>(cursor_ + n));
  cursor_ += n;
  return n;
}

void EventSource::skip_events(std::uint64_t n) {
  std::vector<StreamEvent> discard;
  while (n > 0) {
    discard.clear();
    const std::size_t chunk =
        static_cast<std::size_t>(std::min<std::uint64_t>(n, 8192));
    const std::size_t got = next_batch(discard, chunk);
    if (got == 0)
      throw std::invalid_argument(
          "EventSource::skip_events: stream shorter than the checkpoint "
          "clock");
    n -= got;
  }
}

void MaterializedEventSource::skip_events(std::uint64_t n) {
  const std::vector<StreamEvent>& events = stream_->events();
  if (n > events.size() - cursor_)
    throw std::invalid_argument(
        "MaterializedEventSource::skip_events: stream shorter than the "
        "checkpoint clock");
  cursor_ += static_cast<std::size_t>(n);
}

}  // namespace omflp
