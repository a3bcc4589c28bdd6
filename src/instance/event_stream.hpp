// Dynamic request streams: arrivals, departures and lease expiry.
//
// The paper's model is insert-only; production traffic is not. Following
// *Online Facility Location with Deletions* (Cygan, Czumaj, Jiang,
// Krauthgamer) and *Online Multi-Facility Location* (Markarian et al.),
// an EventStream generalizes the request sequence to a timeline of
// events, revealed one at a time:
//
//   * an **arrival** is a paper Request (location + demand set),
//     optionally carrying a **lease** L > 0: the request automatically
//     departs L events after it arrived (time-window / TTL traffic);
//   * a **departure** retroactively removes an earlier arrival,
//     identified by its arrival id (position among arrivals — the same
//     numbering as SolutionLedger request ids).
//
// Timeline semantics (StreamTimeline below implements them once for the
// validator, the stream runner and the windowed bounder; the offline
// stream verifier re-derives them independently, in this repo's verifier
// tradition):
//   * events are processed in order; event t's lease expiries (arrivals
//     with arrival_index + lease <= t, ascending (deadline, arrival id))
//     fire *before* event t itself is processed;
//   * an explicit departure must target an arrival that is still active
//     at that moment (neither departed nor expired); a departure may
//     retire a leased arrival early, in which case the later lease
//     expiry is skipped;
//   * leases that would expire past the end of the stream never fire —
//     those requests survive.
//
// The requests active after the final event are the **surviving set**;
// competitive ratios of dynamic runs are measured as
// ledger.active_cost() / OPT(surviving set) (see solution/verifier.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "instance/instance.hpp"

namespace omflp {

struct StreamEvent {
  enum class Kind : std::uint8_t { kArrival, kDeparture };

  Kind kind = Kind::kArrival;
  /// Arrival payload; ignored for departures.
  Request request;
  /// Arrival: auto-depart this many events after arrival (0 = pinned, the
  /// request never expires on its own).
  std::uint64_t lease = 0;
  /// Departure: the arrival id (index among arrivals) to retire.
  RequestId target = 0;

  static StreamEvent arrival(Request request, std::uint64_t lease = 0) {
    StreamEvent e;
    e.kind = Kind::kArrival;
    e.request = std::move(request);
    e.lease = lease;
    return e;
  }
  static StreamEvent departure(RequestId target) {
    StreamEvent e;
    e.kind = Kind::kDeparture;
    e.target = target;
    return e;
  }
};

/// Expiry deadline of a lease granted at event index `t`, saturating at
/// the uint64 maximum: a lease so large that t + lease would wrap must
/// behave as "past every possible stream end" (the request survives),
/// not wrap around to fire before its own arrival. StreamTimeline is its
/// one caller outside the offline verifier.
inline std::uint64_t lease_deadline(std::uint64_t t,
                                    std::uint64_t lease) noexcept {
  const std::uint64_t max = ~std::uint64_t{0};
  return lease > max - t ? max : t + lease;
}

class CkptReader;
class CkptWriter;

/// The timeline semantics above, in one place: the stream clock, the
/// arrival count, the active set and the pending lease expiries. Per
/// event the caller first calls expire_due(), then apply(). Errors read
/// "<who>: event <t>: <what>"; `who` must outlive the timeline.
class StreamTimeline {
 public:
  /// With `expire_leases` false no expiry is ever pending and leased
  /// arrivals stay active: validating a stream without departures needs
  /// no heap, since no expiry can change its verdict.
  StreamTimeline(const char* who, std::size_t num_points,
                 CommodityId num_commodities, bool expire_leases = true)
      : who_(who),
        num_points_(num_points),
        num_commodities_(num_commodities),
        expire_leases_(expire_leases) {}

  /// Fires the lease expiries due before the event at clock(), ascending
  /// on (deadline, arrival id): each arrival still active is retired and
  /// handed to on_expire(id, deadline); entries for arrivals that
  /// departed first are dropped.
  template <class OnExpire>
  void expire_due(OnExpire&& on_expire) {
    while (!expiries_.empty() && expiries_.front().first <= clock_) {
      std::pop_heap(expiries_.begin(), expiries_.end(), std::greater<>{});
      const auto [deadline, id] = expiries_.back();
      expiries_.pop_back();
      if (!active(id)) continue;
      deactivate(id);
      on_expire(id, deadline);
    }
  }

  /// Checks the event at clock() and returns the id it will carry: the
  /// new arrival's id or the departure's target. Throws
  /// std::invalid_argument on a location outside M, a demand set that is
  /// empty or over the wrong universe, or a departure of an arrival that
  /// is unknown or no longer active.
  RequestId check(const StreamEvent& event) const;
  /// check(), then records the event and advances the clock.
  RequestId apply(const StreamEvent& event);

  std::uint64_t clock() const noexcept { return clock_; }
  std::size_t arrivals() const noexcept { return arrivals_; }
  std::size_t num_active() const noexcept { return num_active_; }
  bool active(RequestId id) const noexcept {
    const std::size_t word = id >> 6;
    return word >= first_word_ &&
           (words_[head_ + (word - first_word_)] >> (id & 63) & 1) != 0;
  }

  /// The checkpoint's "active" line (arrival count, active count, the
  /// activity bitmap in 64-bit words) and its "expiries" section, the
  /// pending expiries ascending on (deadline, arrival id).
  void serialize(CkptWriter& writer) const;
  /// Reads what serialize() wrote into a timeline at stream clock
  /// `clock`. Refuses a bitmap that disagrees with its active count or
  /// marks ids past the last arrival, and an expiry of an unknown
  /// arrival, with a deadline below the clock (it would have fired
  /// already) or out of (deadline, id) order.
  void restore(CkptReader& reader, std::uint64_t clock);

 private:
  using Expiry = std::pair<std::uint64_t, RequestId>;

  [[noreturn]] void fail(const char* what) const;
  /// Clears id's activity bit and drops the all-zero words that now lead
  /// the bitmap.
  void deactivate(RequestId id);

  const char* who_;
  std::size_t num_points_;
  CommodityId num_commodities_;
  bool expire_leases_;
  std::uint64_t clock_ = 0;
  std::size_t arrivals_ = 0;
  /// The activity bitmap from the lowest active arrival's word on:
  /// words_[head_ + k] holds ids [64 (first_word_ + k), 64 (first_word_ +
  /// k + 1)). The words before it held inactive ids only and are gone
  /// (those before head_ await one erase); the word of the newest arrival
  /// always stays.
  std::vector<std::uint64_t> words_;
  std::size_t head_ = 0;
  std::size_t first_word_ = 0;
  std::size_t num_active_ = 0;
  std::vector<Expiry> expiries_;  // min-heap on (deadline, arrival id)
};

class EventStream {
 public:
  EventStream(MetricPtr metric, CostModelPtr cost,
              std::vector<StreamEvent> events,
              std::string name = "stream");

  const MetricSpace& metric() const noexcept { return *metric_; }
  const FacilityCostModel& cost() const noexcept { return *cost_; }
  MetricPtr metric_ptr() const noexcept { return metric_; }
  CostModelPtr cost_ptr() const noexcept { return cost_; }
  CommodityId num_commodities() const noexcept {
    return cost_->num_commodities();
  }

  const std::vector<StreamEvent>& events() const noexcept { return events_; }
  std::size_t num_events() const noexcept { return events_.size(); }
  /// Arrivals among the events (counted at construction).
  std::size_t num_arrivals() const noexcept { return num_arrivals_; }
  const std::string& name() const noexcept { return name_; }

  /// Throws std::invalid_argument on the first malformed event: a
  /// location outside M, a demand set that is empty or over the wrong
  /// universe, or a departure whose target is unknown or no longer
  /// active under the timeline semantics above.
  void validate() const;

  /// Arrival ids still active after the last event, ascending. Throws
  /// like validate() on a malformed event.
  std::vector<RequestId> surviving_arrivals() const;

  /// The surviving set as a static Instance (same metric and cost model,
  /// requests in arrival order) — the input OPT is estimated on when
  /// measuring dynamic competitive ratios. Carries the stream's
  /// capacities.
  Instance surviving_instance() const;

  /// Per-point facility capacities (null = uncapacitated everywhere).
  void set_capacities(CapacityMap capacities);
  const CapacityMap& capacities() const noexcept { return capacities_; }

 private:
  MetricPtr metric_;
  CostModelPtr cost_;
  std::vector<StreamEvent> events_;
  std::size_t num_arrivals_ = 0;
  std::string name_;
  CapacityMap capacities_;
};

/// Batched event supply for the stream runner: materialized streams and
/// disk-backed trace readers (instance/stream_io.hpp) behind one
/// interface, so million-event traces are processed without ever holding
/// the whole timeline in memory.
class EventSource {
 public:
  virtual ~EventSource() = default;

  virtual MetricPtr metric() const = 0;
  virtual CostModelPtr cost() const = 0;
  virtual const std::string& name() const = 0;

  /// Per-point facility capacities carried by the stream, if any. The
  /// default is null (uncapacitated) so existing sources are unchanged.
  virtual CapacityMap capacities() const { return nullptr; }

  /// Appends up to `max_events` further events to `out` (which the
  /// caller clears); returns the number appended — 0 means the stream is
  /// exhausted.
  virtual std::size_t next_batch(std::vector<StreamEvent>& out,
                                 std::size_t max_events) = 0;

  /// Fast-forward past the next `n` events without delivering them —
  /// checkpoint restore positions a fresh source at the stream clock the
  /// snapshot was taken at, then replays the tail through next_batch().
  /// Throws std::invalid_argument when the source holds fewer than `n`
  /// further events (the checkpoint belongs to a longer stream). The
  /// default pulls and discards; sources with random access override.
  virtual void skip_events(std::uint64_t n);
};

/// EventSource over an in-memory EventStream (borrowed; the stream must
/// outlive the source).
class MaterializedEventSource final : public EventSource {
 public:
  explicit MaterializedEventSource(const EventStream& stream)
      : stream_(&stream) {}

  MetricPtr metric() const override { return stream_->metric_ptr(); }
  CostModelPtr cost() const override { return stream_->cost_ptr(); }
  const std::string& name() const override { return stream_->name(); }
  CapacityMap capacities() const override { return stream_->capacities(); }
  std::size_t next_batch(std::vector<StreamEvent>& out,
                         std::size_t max_events) override;
  void skip_events(std::uint64_t n) override;

 private:
  const EventStream* stream_;
  std::size_t cursor_ = 0;
};

}  // namespace omflp
