#include "bound/window.hpp"

#include <algorithm>
#include <utility>

#include "support/assert.hpp"

namespace omflp {

namespace {

double bound_window(const MetricPtr& metric, const CostModelPtr& cost,
                    std::vector<Request> requests, const std::string& name,
                    const WindowBoundOptions& options,
                    std::uint64_t& duals_raised) {
  Instance window(metric, cost, std::move(requests), name);
  const DualAscentResult res =
      dual_ascent_lower_bound(window, options.ascent);
  // An unverifiable bound is a bug, mirroring the solution-verifier
  // convention.
  if (const auto violation = verify_certificate(window, res.certificate))
    throw std::logic_error("bound_stream_windows: certificate for " + name +
                           " failed verification: " + *violation);
  duals_raised += res.duals_raised;
  return res.lower_bound;
}

}  // namespace

StreamBoundResult bound_stream_windows(EventSource& source,
                                       const WindowBoundOptions& options) {
  OMFLP_REQUIRE(options.max_window_arrivals > 0,
                "bound_stream_windows: window cap must be positive");
  const MetricPtr metric = source.metric();
  const CostModelPtr cost = source.cost();

  StreamBoundResult result;
  StreamTimeline timeline("bound_stream_windows", metric->num_points(),
                          cost->num_commodities());

  // Current window: its arrivals (the bounded buffer) and start event.
  std::vector<Request> window_requests;
  std::uint64_t window_first_event = 0;

  const auto close_window = [&](bool forced) {
    if (window_requests.empty()) return;
    WindowBoundRow row;
    row.first_event = window_first_event;
    row.arrivals = window_requests.size();
    row.forced_split = forced;
    row.lower = bound_window(
        metric, cost, std::move(window_requests),
        source.name() + "/window-" + std::to_string(result.windows),
        options, result.duals_raised);
    window_requests.clear();
    result.windowed_lower += row.lower;
    result.max_window_arrivals =
        std::max(result.max_window_arrivals, row.arrivals);
    ++result.windows;
    if (forced) ++result.forced_splits;
    result.per_window.push_back(row);
  };

  std::vector<StreamEvent> batch;
  for (;;) {
    batch.clear();
    if (source.next_batch(batch, 8192) == 0) break;
    for (const StreamEvent& event : batch) {
      timeline.expire_due([](RequestId, std::uint64_t) {});
      if (timeline.num_active() == 0) close_window(/*forced=*/false);

      const std::uint64_t t = timeline.clock();
      timeline.apply(event);
      if (event.kind != StreamEvent::Kind::kArrival) continue;
      if (window_requests.empty()) window_first_event = t;
      window_requests.push_back(event.request);
      if (window_requests.size() >= options.max_window_arrivals)
        close_window(/*forced=*/true);
    }
  }
  close_window(/*forced=*/false);
  result.events = timeline.clock();
  result.arrivals = timeline.arrivals();
  return result;
}

ChunkedBound bound_instance_chunked(const Instance& instance,
                                    const WindowBoundOptions& options) {
  OMFLP_REQUIRE(options.max_window_arrivals > 0,
                "bound_instance_chunked: chunk cap must be positive");
  const std::size_t n = instance.num_requests();
  OMFLP_REQUIRE(n > 0, "bound_instance_chunked: empty instance");

  const std::size_t chunks =
      (n + options.max_window_arrivals - 1) / options.max_window_arrivals;
  ChunkedBound result;
  result.chunks = chunks;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * n / chunks;
    const std::size_t end = (c + 1) * n / chunks;
    std::vector<Request> chunk(instance.requests().begin() +
                                   static_cast<std::ptrdiff_t>(begin),
                               instance.requests().begin() +
                                   static_cast<std::ptrdiff_t>(end));
    const double lower = bound_window(
        instance.metric_ptr(), instance.cost_ptr(), std::move(chunk),
        instance.name() + "/chunk-" + std::to_string(c), options,
        result.duals_raised);
    if (lower > result.lower) {
      result.lower = lower;
      result.best_chunk = c;
    }
  }
  return result;
}

}  // namespace omflp
