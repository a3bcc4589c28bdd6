#include "support/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace omflp {

Rng Rng::substream(std::uint64_t index) const noexcept {
  // Mix the substream index through SplitMix64 against a snapshot of our
  // own stream position so substreams of distinct parents differ too.
  Rng copy = *this;
  std::uint64_t base = copy.next_u64();
  SplitMix64 sm(base ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  Rng child(sm.next());
  return child;
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  OMFLP_REQUIRE(n > 0, "uniform_index: n must be positive");
  // Lemire-style rejection: accept unless we fall into the biased tail.
  const std::uint64_t threshold = (0 - n) % n;
  for (;;) {
    std::uint64_t r = gen_();
    if (r >= threshold) return r % n;
  }
}

double Rng::exponential(double lambda) {
  OMFLP_REQUIRE(lambda > 0.0, "exponential: rate must be positive");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / lambda;
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * uniform() - 1.0;
    v = 2.0 * uniform() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_normal_ = v * factor;
  has_cached_normal_ = true;
  return u * factor;
}

std::vector<std::size_t> Rng::sample_without_replacement(
    std::size_t n, std::size_t k) {
  OMFLP_REQUIRE(k <= n, "sample_without_replacement: k > n");
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + uniform_index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  OMFLP_REQUIRE(n > 0, "ZipfSampler: n must be positive");
  OMFLP_REQUIRE(exponent >= 0.0, "ZipfSampler: exponent must be >= 0");
  cumulative_.resize(n);
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
    cumulative_[i] = acc;
  }
}

std::size_t ZipfSampler::operator()(Rng& rng) const noexcept {
  const double target = rng.uniform() * cumulative_.back();
  auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), target);
  if (it == cumulative_.end()) --it;
  return static_cast<std::size_t>(it - cumulative_.begin());
}

}  // namespace omflp
