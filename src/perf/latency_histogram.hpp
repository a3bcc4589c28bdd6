// LatencyHistogram — a lock-free log-linear histogram for nanosecond
// latencies, the percentile backend of the sharded serving engine.
//
// Layout (HdrHistogram-style log-linear): values below 2^kSubBits land in
// exact unit buckets; above that, each power-of-two octave is split into
// 2^kSubBits equal sub-buckets, so relative resolution is bounded by
// 1/2^kSubBits (= 12.5% at kSubBits = 3) across the whole range up to
// 2^63 ns. Bucket index and representative value are pure functions of
// the value, so two histograms fed the same samples agree exactly.
//
// Concurrency: record_ns() is a single relaxed fetch_add on one bucket
// (plus a CAS loop for the running maximum) — engine shard workers on
// different threads record without locks or contention beyond cacheline
// sharing of hot buckets. snapshot() is NOT linearizable against
// concurrent writers; the engine snapshots after joining its workers.
// Quantiles are computed from the bucket counts: quantile(q) returns the
// representative (midpoint) value of the bucket holding the ceil(q*n)-th
// smallest sample, clamped to the observed maximum, so p50/p95/p99 carry
// the same <= 12.5% relative error as the buckets themselves and never
// read above max.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

namespace omflp {

/// Point-in-time summary of a LatencyHistogram (plain values, copyable).
struct LatencySnapshot {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double max_ns = 0.0;
  double p50_ns = 0.0;
  double p95_ns = 0.0;
  double p99_ns = 0.0;
  double p999_ns = 0.0;
  /// Set by snapshot_delta(): every other field is per-interval but
  /// max_ns stays the cumulative maximum, so the JSON field is renamed
  /// to "max_ns_cum" to keep --metrics-out readers honest.
  bool max_is_cumulative = false;

  double mean_ns() const noexcept {
    return count > 0 ? total_ns / static_cast<double>(count) : 0.0;
  }

  /// One-line JSON object, fields in fixed order. Doubles are written
  /// with %.17g so a snapshot survives a JSON round trip bit-exactly.
  std::string to_json() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\":%llu,\"mean_ns\":%.17g,\"p50_ns\":%.17g,"
                  "\"p95_ns\":%.17g,\"p99_ns\":%.17g,\"p999_ns\":%.17g,"
                  "\"%s\":%.17g}",
                  static_cast<unsigned long long>(count), mean_ns(), p50_ns,
                  p95_ns, p99_ns, p999_ns,
                  max_is_cumulative ? "max_ns_cum" : "max_ns", max_ns);
    return std::string(buf);
  }
};

class LatencyHistogram;

/// Mutable bucket-count checkpoint used by snapshot_delta() to turn a
/// cumulative histogram into interval (steady-state) percentiles. One
/// baseline per observed histogram; ~3.9 KB each.
struct LatencyBaseline {
  std::array<std::uint64_t, (64 - 3) << 3> counts{};
  std::uint64_t total_ns = 0;
};

class LatencyHistogram {
 public:
  static constexpr int kSubBits = 3;  // 8 sub-buckets per octave, <=12.5%
  static constexpr int kNumBuckets =
      (64 - kSubBits) << kSubBits;  // covers 0 .. 2^63 ns
  static_assert(sizeof(LatencyBaseline::counts) ==
                kNumBuckets * sizeof(std::uint64_t));

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// Bucket index of a nanosecond value; monotone in `ns`.
  static int bucket_index(std::uint64_t ns) noexcept {
    if (ns < (std::uint64_t{1} << kSubBits)) return static_cast<int>(ns);
    const int exp = std::bit_width(ns) - 1;  // >= kSubBits
    const int sub = static_cast<int>(
        (ns >> (exp - kSubBits)) - (std::uint64_t{1} << kSubBits));
    return std::min(kNumBuckets - 1,
                    ((exp - kSubBits + 1) << kSubBits) + sub);
  }

  /// Midpoint of the bucket's value range (its representative value).
  static double bucket_value(int index) noexcept {
    if (index < (1 << kSubBits)) return static_cast<double>(index);
    const int exp = (index >> kSubBits) + kSubBits - 1;
    const int sub = index & ((1 << kSubBits) - 1);
    const double width = std::exp2(exp - kSubBits);
    return ((1 << kSubBits) + sub) * width + 0.5 * width;
  }

  void record_ns(double ns) noexcept {
    // Clamp before the cast: double -> uint64_t is UB for NaN, negative
    // or >= 2^63 values (timer glitches, wall-clock steps). NaN and
    // negatives saturate to 0, oversized values to 2^63 - 1 (the top of
    // the bucket range).
    constexpr double kMaxNs = 9223372036854775808.0;  // 2^63
    std::uint64_t value = 0;
    if (ns >= kMaxNs) {
      value = (std::uint64_t{1} << 63) - 1;
    } else if (ns > 0.0) {  // false for NaN and non-positive values
      value = static_cast<std::uint64_t>(ns);
    }
    buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
        1, std::memory_order_relaxed);
    total_ns_.fetch_add(value, std::memory_order_relaxed);
    std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_ns_.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
    }
  }

  /// Counts, total and the standard percentiles. Call after writers are
  /// done (or accept a torn-but-valid in-flight view).
  LatencySnapshot snapshot() const noexcept {
    std::array<std::uint64_t, kNumBuckets> counts;
    LatencySnapshot snap;
    for (int b = 0; b < kNumBuckets; ++b) {
      counts[static_cast<std::size_t>(b)] =
          buckets_[static_cast<std::size_t>(b)].load(
              std::memory_order_relaxed);
      snap.count += counts[static_cast<std::size_t>(b)];
    }
    snap.total_ns =
        static_cast<double>(total_ns_.load(std::memory_order_relaxed));
    snap.max_ns =
        static_cast<double>(max_ns_.load(std::memory_order_relaxed));
    fill_quantiles(counts, snap);
    return snap;
  }

  /// Percentiles of the samples recorded *since the baseline* (the
  /// MetricsSampler's interval view), then advances the baseline to now.
  /// max_ns remains the cumulative maximum — the histogram keeps no
  /// per-interval extremum, and an interval max would understate tail
  /// spikes that straddle sample boundaries anyway. The snapshot is
  /// flagged max_is_cumulative so to_json() names the field
  /// "max_ns_cum" instead of passing it off as an interval value.
  LatencySnapshot snapshot_delta(LatencyBaseline& baseline) const noexcept {
    std::array<std::uint64_t, kNumBuckets> delta;
    LatencySnapshot snap;
    for (int b = 0; b < kNumBuckets; ++b) {
      const auto i = static_cast<std::size_t>(b);
      const std::uint64_t now =
          buckets_[i].load(std::memory_order_relaxed);
      delta[i] = now - baseline.counts[i];
      baseline.counts[i] = now;
      snap.count += delta[i];
    }
    const std::uint64_t total_now =
        total_ns_.load(std::memory_order_relaxed);
    snap.total_ns = static_cast<double>(total_now - baseline.total_ns);
    baseline.total_ns = total_now;
    snap.max_ns =
        static_cast<double>(max_ns_.load(std::memory_order_relaxed));
    snap.max_is_cumulative = true;
    fill_quantiles(delta, snap);
    return snap;
  }

 private:
  static void fill_quantiles(
      const std::array<std::uint64_t, kNumBuckets>& counts,
      LatencySnapshot& snap) noexcept {
    if (snap.count == 0) return;
    // target = ceil(q * count) computed exactly as (num*count + den - 1)
    // / den over integers: the old `+ 0.9999999` float hack overshoots
    // whenever q*count lands within 1e-7 below an integer (e.g. p999 of
    // exactly 1000 samples).
    const auto quantile = [&](std::uint64_t q_num, std::uint64_t q_den) {
      const auto product =
          static_cast<unsigned __int128>(q_num) * snap.count;
      const std::uint64_t target = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>((product + q_den - 1) / q_den));
      std::uint64_t cumulative = 0;
      for (int b = 0; b < kNumBuckets; ++b) {
        cumulative += counts[static_cast<std::size_t>(b)];
        // The top sample's bucket midpoint may lie above the sample.
        if (cumulative >= target)
          return std::min(bucket_value(b), snap.max_ns);
      }
      return snap.max_ns;
    };
    snap.p50_ns = quantile(1, 2);
    snap.p95_ns = quantile(19, 20);
    snap.p99_ns = quantile(99, 100);
    snap.p999_ns = quantile(999, 1000);
  }

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> max_ns_{0};
};

}  // namespace omflp
