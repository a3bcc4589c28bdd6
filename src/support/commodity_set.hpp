// CommoditySet — a subset of the commodity universe S, the σ of the paper.
//
// The entire library manipulates configurations σ ⊆ S and request demand
// sets s_r ⊆ S; this is the one representation used everywhere. It is a
// dynamic bitset pinned to a fixed universe size so set algebra between
// sets of different universes is rejected loudly instead of silently
// truncating.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace omflp {

class CommoditySet {
 public:
  /// Empty set over an empty universe; mostly useful as a placeholder.
  CommoditySet() = default;

  /// Empty set over a universe of `universe` commodities. The word count
  /// is computed in std::size_t: `universe + 63` in CommodityId
  /// arithmetic wraps for universes near the maximum, which used to
  /// produce a zero-word set that add() then wrote past (heap overflow
  /// on fuzzed traces declaring |S| = 2^32 - 1).
  explicit CommoditySet(CommodityId universe)
      : universe_(universe),
        words_((static_cast<std::size_t>(universe) + 63) / 64, 0) {}

  CommoditySet(CommodityId universe, std::initializer_list<CommodityId> ids)
      : CommoditySet(universe) {
    for (CommodityId e : ids) add(e);
  }

  static CommoditySet empty_set(CommodityId universe) {
    return CommoditySet(universe);
  }

  /// The full universe S.
  static CommoditySet full_set(CommodityId universe) {
    CommoditySet s(universe);
    for (auto& w : s.words_) w = ~0ULL;
    s.trim();
    return s;
  }

  static CommoditySet singleton(CommodityId universe, CommodityId e) {
    CommoditySet s(universe);
    s.add(e);
    return s;
  }

  CommodityId universe_size() const noexcept { return universe_; }
  /// The raw bitset, (universe + 63) / 64 words, bits past the universe
  /// zero; element e is bit e & 63 of word e >> 6.
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  void add(CommodityId e) {
    OMFLP_REQUIRE(e < universe_, "CommoditySet::add: commodity out of range");
    words_[e >> 6] |= (1ULL << (e & 63));
  }

  /// Empties the set, keeping its universe (and its storage).
  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  void remove(CommodityId e) {
    OMFLP_REQUIRE(e < universe_,
                  "CommoditySet::remove: commodity out of range");
    words_[e >> 6] &= ~(1ULL << (e & 63));
  }

  bool contains(CommodityId e) const {
    OMFLP_REQUIRE(e < universe_,
                  "CommoditySet::contains: commodity out of range");
    return (words_[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// |σ|
  CommodityId count() const noexcept {
    CommodityId c = 0;
    for (std::uint64_t w : words_)
      c += static_cast<CommodityId>(__builtin_popcountll(w));
    return c;
  }

  bool empty() const noexcept {
    for (std::uint64_t w : words_)
      if (w) return false;
    return true;
  }

  bool is_full() const noexcept { return count() == universe_; }

  CommoditySet& operator|=(const CommoditySet& o) {
    check_same_universe(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }

  CommoditySet& operator&=(const CommoditySet& o) {
    check_same_universe(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }

  /// Set difference: this \ o.
  CommoditySet& operator-=(const CommoditySet& o) {
    check_same_universe(o);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }

  friend CommoditySet operator|(CommoditySet a, const CommoditySet& b) {
    a |= b;
    return a;
  }
  friend CommoditySet operator&(CommoditySet a, const CommoditySet& b) {
    a &= b;
    return a;
  }
  friend CommoditySet operator-(CommoditySet a, const CommoditySet& b) {
    a -= b;
    return a;
  }

  bool is_subset_of(const CommoditySet& o) const {
    check_same_universe(o);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~o.words_[i]) return false;
    return true;
  }

  bool intersects(const CommoditySet& o) const {
    check_same_universe(o);
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

  bool operator==(const CommoditySet& o) const noexcept {
    return universe_ == o.universe_ && words_ == o.words_;
  }

  /// Visit every contained commodity in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        const int bit = __builtin_ctzll(w);
        fn(static_cast<CommodityId>(wi * 64 + static_cast<std::size_t>(bit)));
        w &= w - 1;
      }
    }
  }

  std::vector<CommodityId> to_vector() const {
    std::vector<CommodityId> out;
    out.reserve(count());
    for_each([&](CommodityId e) { out.push_back(e); });
    return out;
  }

  /// Smallest contained commodity; requires non-empty.
  CommodityId first() const {
    OMFLP_REQUIRE(!empty(), "CommoditySet::first: set is empty");
    for (std::size_t wi = 0; wi < words_.size(); ++wi)
      if (words_[wi])
        return static_cast<CommodityId>(
            wi * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[wi])));
    return kInvalidCommodity;  // unreachable
  }

  /// Debug rendering, e.g. "{0,3,7}/8".
  std::string to_string() const;

  std::size_t hash() const noexcept {
    std::size_t h = 1469598103934665603ULL ^ universe_;
    for (std::uint64_t w : words_) {
      h ^= static_cast<std::size_t>(w);
      h *= 1099511628211ULL;
    }
    return h;
  }

 private:
  void check_same_universe(const CommoditySet& o) const {
    OMFLP_REQUIRE(universe_ == o.universe_,
                  "CommoditySet: operation on sets over different universes");
  }

  void trim() noexcept {
    const CommodityId tail = universe_ & 63;
    if (tail != 0 && !words_.empty())
      words_.back() &= (1ULL << tail) - 1ULL;
  }

  CommodityId universe_ = 0;
  std::vector<std::uint64_t> words_;
};

struct CommoditySetHash {
  std::size_t operator()(const CommoditySet& s) const noexcept {
    return s.hash();
  }
};

}  // namespace omflp
