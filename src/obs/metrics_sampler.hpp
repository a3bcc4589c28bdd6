// MetricsSampler — live serving telemetry for the sharded engine.
//
// `omflp serve` used to report latency percentiles only in the final
// report, after every tenant had drained — useless for watching a run.
// The sampler fixes that: the engine hands it cumulative per-shard state
// after every global-clock round, and every `sample_every` rounds it
// emits one time-series record per shard (CSV or JSONL) with interval
// deltas: events/s since the last sample, latency percentiles of only
// the batches in the interval (LatencyHistogram::snapshot_delta against
// a per-shard LatencyBaseline), work-counter deltas, and the live
// gauges (facilities open, active requests, resident ledger records).
//
// The sampler runs on the engine's calling thread between rounds — it
// never contends with shard workers — and costs nothing when absent:
// the engine keeps per-shard histograms and gauge sums only when a
// sampler is installed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "perf/latency_histogram.hpp"
#include "perf/perf_counters.hpp"

namespace omflp {

/// Cumulative per-shard state handed to the sampler after each round;
/// the sampler turns it into interval deltas against its baselines.
struct ShardRoundStats {
  std::uint64_t events = 0;   // events processed so far (cumulative)
  std::uint64_t batches = 0;  // non-empty batches stepped so far
  /// Live gauges, summed over the shard's tenants at round end.
  std::size_t facilities_open = 0;
  std::size_t active_requests = 0;
  std::size_t resident_records = 0;
  /// Cumulative work counters (all-zero when counter collection is off).
  PerfCounters counters;
  /// The shard's cumulative batch-latency histogram.
  const LatencyHistogram* latency = nullptr;
};

class MetricsSampler {
 public:
  enum class Format { kCsv, kJsonl };

  /// The format a metrics file's name asks for: JSONL when it ends in
  /// ".jsonl" or ".json", CSV otherwise.
  static Format format_for_path(std::string_view path) noexcept;

  /// `out` is borrowed and must outlive the sampler. A CSV header (or
  /// nothing, for JSONL) is written on the first record.
  MetricsSampler(std::ostream& out, Format format,
                 std::uint64_t sample_every = 1);

  std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// Engine hook, called on the calling thread after every round.
  /// Emits one record per shard when `round` is a multiple of
  /// sample_every or `final_round` is set (so short runs still produce
  /// at least one sample). Rounds must be presented in increasing order
  /// with a stable shard count.
  void on_round(std::uint64_t round,
                const std::vector<ShardRoundStats>& shards,
                bool final_round = false);

 private:
  struct ShardBaseline {
    std::uint64_t events = 0;
    std::uint64_t batches = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t facilities_opened = 0;
    LatencyBaseline latency;
  };

  std::ostream& out_;
  Format format_;
  std::uint64_t sample_every_;
  std::uint64_t last_tick_ns_ = 0;  // 0 = before the first record
  bool header_written_ = false;
  std::vector<ShardBaseline> baselines_;
};

}  // namespace omflp
