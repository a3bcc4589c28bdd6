#include "instance/event_stream.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "instance/checkpoint_io.hpp"
#include "support/assert.hpp"

namespace omflp {

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

void StreamTimeline::fail(const char* what) const {
  throw std::invalid_argument(std::string(who_) + ": event " +
                              std::to_string(clock_) + ": " + what);
}

RequestId StreamTimeline::check(const StreamEvent& event) const {
  if (event.kind == StreamEvent::Kind::kArrival) {
    if (event.request.location >= num_points_)
      fail("arrival location outside the metric space");
    if (event.request.commodities.universe_size() != num_commodities_)
      fail("arrival demand set over the wrong universe");
    if (event.request.commodities.empty()) fail("empty demand set");
    return arrivals_;
  }
  if (event.target >= arrivals_)
    fail("departure of an arrival that has not happened");
  if (!active(event.target))
    fail("departure of an arrival that is no longer active");
  return event.target;
}

RequestId StreamTimeline::apply(const StreamEvent& event) {
  const RequestId id = check(event);
  if (event.kind == StreamEvent::Kind::kArrival) {
    if ((id >> 6) - first_word_ == words_.size() - head_) words_.push_back(0);
    words_.back() |= 1ULL << (id & 63);
    ++arrivals_;
    ++num_active_;
    if (expire_leases_ && event.lease > 0) {
      expiries_.emplace_back(lease_deadline(clock_, event.lease), id);
      std::push_heap(expiries_.begin(), expiries_.end(), std::greater<>{});
    }
  } else {
    deactivate(id);
  }
  ++clock_;
  return id;
}

void StreamTimeline::deactivate(RequestId id) {
  words_[head_ + ((id >> 6) - first_word_)] &= ~(1ULL << (id & 63));
  --num_active_;
  while (words_.size() - head_ > 1 && words_[head_] == 0) {
    ++head_;
    ++first_word_;
  }
  if (head_ * 2 > words_.size()) {
    words_.erase(words_.begin(),
                 words_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void StreamTimeline::serialize(CkptWriter& writer) const {
  // The dropped words were all zero: the line still spells every word.
  writer.line("active").u(arrivals_).u(num_active_);
  for (std::size_t w = 0; w < first_word_; ++w) writer.u(0);
  for (std::size_t k = head_; k < words_.size(); ++k) writer.u(words_[k]);
  // Canonical form: pop order is fully determined by (deadline, id), so
  // the heap's layout is irrelevant.
  std::vector<Expiry> pending = expiries_;
  std::sort(pending.begin(), pending.end());
  writer.line("expiries").u(pending.size());
  for (const auto& [deadline, id] : pending)
    writer.line("expiry").u(deadline).u(id);
}

void StreamTimeline::restore(CkptReader& reader, std::uint64_t clock) {
  reader.expect("active");
  const std::uint64_t num_arrived = reader.u();
  const std::uint64_t num_active = reader.u();
  const std::uint64_t num_words = num_arrived / 64 + (num_arrived % 64 != 0);
  // Leading zero words are dropped as they are read, except the last; the
  // bitmap grows per word actually present.
  words_.clear();
  head_ = 0;
  first_word_ = 0;
  std::size_t popcount = 0;
  for (std::uint64_t i = 0; i < num_words; ++i) {
    const std::uint64_t word = reader.u();
    if (words_.empty() && word == 0 && i + 1 < num_words) {
      ++first_word_;
      continue;
    }
    words_.push_back(word);
    popcount += static_cast<std::size_t>(std::popcount(word));
  }
  if (popcount != num_active)
    reader.fail("active-request bitmap disagrees with the active count");
  // serialize() never sets them; accepting them would break the
  // restore → checkpoint round trip.
  if (num_arrived % 64 != 0 && (words_.back() >> (num_arrived % 64)) != 0)
    reader.fail("active-request bitmap marks ids past the last arrival");
  arrivals_ = static_cast<std::size_t>(num_arrived);

  reader.expect("expiries");
  const std::uint64_t num_expiries = reader.u();
  expiries_.clear();
  for (std::uint64_t i = 0; i < num_expiries; ++i) {
    reader.expect("expiry");
    const std::uint64_t deadline = reader.u();
    const Expiry entry{deadline, reader.u()};
    if (entry.second >= arrivals_)
      reader.fail("expiry of an unknown arrival");
    if (entry.first < clock)
      reader.fail("expiry deadline before the stream clock");
    if (!expiries_.empty() && !(expiries_.back() < entry))
      reader.fail("expiries out of (deadline, id) order");
    // Strictly ascending entries already form a valid min-heap.
    expiries_.push_back(entry);
  }
  clock_ = clock;
  num_active_ = popcount;
}

namespace {

/// Runs every event of `stream` through a StreamTimeline.
StreamTimeline replay(const EventStream& stream, bool expire_leases) {
  StreamTimeline timeline("EventStream", stream.metric().num_points(),
                          stream.num_commodities(), expire_leases);
  for (const StreamEvent& e : stream.events()) {
    timeline.expire_due([](RequestId, std::uint64_t) {});
    timeline.apply(e);
  }
  return timeline;
}

}  // namespace

void EventStream::validate() const {
  // Lease expiries matter only to the departure checks: a stream of
  // arrivals alone (lease-poisson) tracks none.
  (void)replay(*this, /*expire_leases=*/num_arrivals_ != events_.size());
}

std::vector<RequestId> EventStream::surviving_arrivals() const {
  // Leases with deadlines past the end never fire: whatever is still
  // active after the last event survives.
  const StreamTimeline timeline = replay(*this, /*expire_leases=*/true);
  std::vector<RequestId> out;
  for (RequestId id = 0; id < timeline.arrivals(); ++id)
    if (timeline.active(id)) out.push_back(id);
  return out;
}

Instance EventStream::surviving_instance() const {
  const StreamTimeline timeline = replay(*this, /*expire_leases=*/true);
  std::vector<Request> requests;
  requests.reserve(timeline.num_active());
  RequestId arrival = 0;
  for (const StreamEvent& e : events_)
    if (e.kind == StreamEvent::Kind::kArrival && timeline.active(arrival++))
      requests.push_back(e.request);
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
