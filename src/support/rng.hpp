// Deterministic, fast random number generation.
//
// Experiments in this library must be exactly reproducible from a 64-bit
// seed, independent of the standard library implementation. We therefore
// ship our own generators (SplitMix64 for seeding, xoshiro256** as the
// workhorse) and our own distributions (uniform, Bernoulli, exponential,
// normal, Zipf) instead of relying on <random>'s unspecified algorithms.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/assert.hpp"

namespace omflp {

/// SplitMix64: tiny generator used to expand one 64-bit seed into the
/// xoshiro state. Passes BigCrush when used standalone.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Checkpoint/restore (src/instance/checkpoint_io.hpp): the full
  /// generator state, so a restored generator continues the exact draw
  /// sequence.
  std::uint64_t state() const noexcept { return state_; }
  void set_state(std::uint64_t state) noexcept { state_ = state; }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the library's pseudo-random generator.
/// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Checkpoint/restore: the four state words, bitwise.
  const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    state_ = state;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// High-level random source with the distributions the library needs.
/// All methods are deterministic functions of the seed and call sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9d2c5680u) noexcept : gen_(seed) {}

  /// Derive an independent substream; substream(i) != substream(j) for
  /// i != j with overwhelming probability, and derivation does not disturb
  /// this generator's own stream.
  [[nodiscard]] Rng substream(std::uint64_t index) const noexcept;

  std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Unbiased (rejection sampling). Throws on
  /// n == 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Throws on an empty range.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    OMFLP_REQUIRE(lo <= hi, "uniform_int: empty range");
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with rate lambda (mean 1/lambda). Throws on lambda <= 0.
  double exponential(double lambda);

  /// Standard normal via Marsaglia polar method (cached pair).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Sample k distinct indices from [0, n) uniformly (Floyd's algorithm
  /// would need a set; we use partial Fisher–Yates over an index pool,
  /// O(n) memory, deterministic). Throws on k > n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Checkpoint/restore: the complete draw-sequence state — the xoshiro
  /// words plus the Marsaglia normal cache (normal() produces pairs; a
  /// restore that dropped the cached half would desynchronize every
  /// subsequent draw).
  struct State {
    std::array<std::uint64_t, 4> gen{};
    double cached_normal = 0.0;
    bool has_cached_normal = false;
  };
  State state() const noexcept {
    return State{gen_.state(), cached_normal_, has_cached_normal_};
  }
  void set_state(const State& state) noexcept {
    gen_.set_state(state.gen);
    cached_normal_ = state.cached_normal;
    has_cached_normal_ = state.has_cached_normal;
  }

 private:
  Xoshiro256 gen_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipf-distributed rank in [0, n) with exponent >= 0 (0 = uniform):
/// O(n) to build the cumulative weight table, then O(log n) per draw by
/// binary search on it. Build one per distribution, not one per draw.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t operator()(Rng& rng) const noexcept;

  std::size_t size() const noexcept { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;
};

}  // namespace omflp
