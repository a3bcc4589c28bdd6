#include "obs/metrics_sampler.hpp"

#include <ostream>
#include <stdexcept>

#include "support/clock.hpp"

namespace omflp {

namespace {

constexpr const char* kCsvHeader =
    "round,shard,events_delta,events_total,batches_delta,events_per_sec,"
    "latency_count,p50_ns,p95_ns,p99_ns,p999_ns,max_ns_cum,facilities_open,"
    "active_requests,resident_records,requests_served_delta,"
    "facilities_opened_delta\n";

}  // namespace

MetricsSampler::Format MetricsSampler::format_for_path(
    std::string_view path) noexcept {
  return path.ends_with(".jsonl") || path.ends_with(".json")
             ? Format::kJsonl
             : Format::kCsv;
}

MetricsSampler::MetricsSampler(std::ostream& out, Format format,
                               std::uint64_t sample_every)
    : out_(out), format_(format), sample_every_(sample_every) {
  if (sample_every_ == 0)
    throw std::invalid_argument("MetricsSampler: sample_every must be "
                                "positive");
}

void MetricsSampler::on_round(std::uint64_t round,
                              const std::vector<ShardRoundStats>& shards,
                              bool final_round) {
  if (!final_round && round % sample_every_ != 0) return;
  if (baselines_.empty()) baselines_.resize(shards.size());
  if (baselines_.size() != shards.size())
    throw std::invalid_argument("MetricsSampler: shard count changed "
                                "mid-run");

  const std::uint64_t tick_ns = now_ns();
  // The first record has no previous tick; rate over the whole run so
  // far would need the engine's start time, so treat interval 0 as
  // "rate unavailable" (0) rather than inventing one.
  const double interval_s =
      last_tick_ns_ > 0
          ? static_cast<double>(tick_ns - last_tick_ns_) * 1e-9
          : 0.0;
  last_tick_ns_ = tick_ns;

  if (format_ == Format::kCsv && !header_written_) {
    out_ << kCsvHeader;
    header_written_ = true;
  }

  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardRoundStats& shard = shards[s];
    ShardBaseline& base = baselines_[s];

    const std::uint64_t events_delta = shard.events - base.events;
    const std::uint64_t batches_delta = shard.batches - base.batches;
    const std::uint64_t served_delta =
        shard.counters.requests_served - base.requests_served;
    const std::uint64_t opened_delta =
        shard.counters.facilities_opened - base.facilities_opened;
    base.events = shard.events;
    base.batches = shard.batches;
    base.requests_served = shard.counters.requests_served;
    base.facilities_opened = shard.counters.facilities_opened;

    LatencySnapshot latency;
    if (shard.latency != nullptr)
      latency = shard.latency->snapshot_delta(base.latency);

    const double events_per_sec =
        interval_s > 0.0 ? static_cast<double>(events_delta) / interval_s
                         : 0.0;

    if (format_ == Format::kCsv) {
      out_ << round << ',' << s << ',' << events_delta << ','
           << shard.events << ',' << batches_delta << ',' << events_per_sec
           << ',' << latency.count << ',' << latency.p50_ns << ','
           << latency.p95_ns << ',' << latency.p99_ns << ','
           << latency.p999_ns << ',' << latency.max_ns << ','
           << shard.facilities_open << ',' << shard.active_requests << ','
           << shard.resident_records << ',' << served_delta << ','
           << opened_delta << '\n';
    } else {
      out_ << "{\"round\":" << round << ",\"shard\":" << s
           << ",\"events_delta\":" << events_delta
           << ",\"events_total\":" << shard.events
           << ",\"batches_delta\":" << batches_delta
           << ",\"events_per_sec\":" << events_per_sec
           << ",\"latency\":" << latency.to_json()
           << ",\"facilities_open\":" << shard.facilities_open
           << ",\"active_requests\":" << shard.active_requests
           << ",\"resident_records\":" << shard.resident_records
           << ",\"requests_served_delta\":" << served_delta
           << ",\"facilities_opened_delta\":" << opened_delta << "}\n";
    }
  }
  out_.flush();
}

}  // namespace omflp
