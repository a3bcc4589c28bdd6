// CommoditySet — a subset of the commodity universe S, the σ of the paper.
//
// The entire library manipulates configurations σ ⊆ S and request demand
// sets s_r ⊆ S; this is the one representation used everywhere. It is a
// bitset pinned to a fixed universe size so set algebra between sets of
// different universes is rejected loudly instead of silently truncating.
//
// Layout. Element e is bit e & 63 of word e >> 6, over
// (|S| + 63) / 64 words whose bits past the universe are always zero.
// Universes of up to kInlineUniverse = 128 commodities keep their two
// words inline, so constructing, copying or assigning such a set never
// allocates: a copy is a 32-byte copy. Larger universes keep their words
// in one heap block, allocated on construction and copy. Every operation
// goes through the same data() pointer, so both storages share one code
// path, and hash() and operator== see only the universe and the words.
//
// A moved-from set is the empty set over the empty universe, exactly as
// if default-constructed: it can be assigned to, destroyed, compared and
// hashed. words() is a read-only span over the words, valid until the set
// is next assigned to, moved from or destroyed.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/assert.hpp"
#include "support/types.hpp"

namespace omflp {

class CommoditySet {
 public:
  /// The largest universe whose words are stored inline.
  static constexpr CommodityId kInlineUniverse = 128;

  /// Empty set over an empty universe; mostly useful as a placeholder.
  CommoditySet() = default;

  /// Empty set over a universe of `universe` commodities. The word count
  /// is computed in std::size_t: `universe + 63` in CommodityId
  /// arithmetic wraps for universes near the maximum, which used to
  /// produce a zero-word set that add() then wrote past (heap overflow
  /// on fuzzed traces declaring |S| = 2^32 - 1).
  explicit CommoditySet(CommodityId universe) : universe_(universe) {
    if (num_words() > kInlineWords)
      heap_ = std::make_unique<std::uint64_t[]>(num_words());
  }

  CommoditySet(CommodityId universe, std::initializer_list<CommodityId> ids)
      : CommoditySet(universe) {
    for (CommodityId e : ids) add(e);
  }

  CommoditySet(const CommoditySet& o)
      : universe_(o.universe_), inline_(o.inline_) {
    if (o.heap_) {
      heap_ = std::make_unique_for_overwrite<std::uint64_t[]>(num_words());
      std::copy_n(o.heap_.get(), num_words(), heap_.get());
    }
  }

  CommoditySet(CommoditySet&& o) noexcept
      : universe_(o.universe_),
        inline_(o.inline_),
        heap_(std::move(o.heap_)) {
    o.universe_ = 0;
    o.inline_ = {};
  }

  CommoditySet& operator=(const CommoditySet& o) {
    if (this == &o) return *this;
    if (!o.heap_) {
      heap_.reset();
    } else {
      // Reassigning a large set to one of the same word count reuses
      // its block instead of allocating.
      if (!heap_ || num_words() != o.num_words())
        heap_ = std::make_unique_for_overwrite<std::uint64_t[]>(o.num_words());
      std::copy_n(o.heap_.get(), o.num_words(), heap_.get());
    }
    universe_ = o.universe_;
    inline_ = o.inline_;
    return *this;
  }

  CommoditySet& operator=(CommoditySet&& o) noexcept {
    if (this == &o) return *this;
    universe_ = o.universe_;
    inline_ = o.inline_;
    heap_ = std::move(o.heap_);
    o.universe_ = 0;
    o.inline_ = {};
    return *this;
  }

  /// The full universe S.
  static CommoditySet full_set(CommodityId universe) {
    CommoditySet s(universe);
    std::fill_n(s.data(), s.num_words(), ~0ULL);
    s.trim();
    return s;
  }

  static CommoditySet singleton(CommodityId universe, CommodityId e) {
    CommoditySet s(universe);
    s.add(e);
    return s;
  }

  CommodityId universe_size() const noexcept { return universe_; }
  /// The raw bitset: (universe + 63) / 64 words, bits past the universe
  /// zero.
  std::span<const std::uint64_t> words() const noexcept {
    return {data(), num_words()};
  }

  void add(CommodityId e) {
    OMFLP_REQUIRE(e < universe_, "CommoditySet::add: commodity out of range");
    data()[e >> 6] |= (1ULL << (e & 63));
  }

  /// Empties the set, keeping its universe (and its storage).
  void clear() noexcept { std::fill_n(data(), num_words(), 0ULL); }

  void remove(CommodityId e) {
    OMFLP_REQUIRE(e < universe_,
                  "CommoditySet::remove: commodity out of range");
    data()[e >> 6] &= ~(1ULL << (e & 63));
  }

  bool contains(CommodityId e) const {
    OMFLP_REQUIRE(e < universe_,
                  "CommoditySet::contains: commodity out of range");
    return (data()[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// |σ|
  CommodityId count() const noexcept {
    CommodityId c = 0;
    for (std::uint64_t w : words())
      c += static_cast<CommodityId>(__builtin_popcountll(w));
    return c;
  }

  bool empty() const noexcept {
    for (std::uint64_t w : words())
      if (w) return false;
    return true;
  }

  bool is_full() const noexcept { return count() == universe_; }

  CommoditySet& operator|=(const CommoditySet& o) {
    check_same_universe(o);
    std::uint64_t* w = data();
    const std::uint64_t* ow = o.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] |= ow[i];
    return *this;
  }

  CommoditySet& operator&=(const CommoditySet& o) {
    check_same_universe(o);
    std::uint64_t* w = data();
    const std::uint64_t* ow = o.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= ow[i];
    return *this;
  }

  /// Set difference: this \ o.
  CommoditySet& operator-=(const CommoditySet& o) {
    check_same_universe(o);
    std::uint64_t* w = data();
    const std::uint64_t* ow = o.data();
    for (std::size_t i = 0; i < num_words(); ++i) w[i] &= ~ow[i];
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
    const std::uint64_t* w = data();
    const std::uint64_t* ow = o.data();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] & ~ow[i]) return false;
    return true;
  }

  bool intersects(const CommoditySet& o) const {
    check_same_universe(o);
    const std::uint64_t* w = data();
    const std::uint64_t* ow = o.data();
    for (std::size_t i = 0; i < num_words(); ++i)
      if (w[i] & ow[i]) return true;
    return false;
  }

  bool operator==(const CommoditySet& o) const noexcept {
    return universe_ == o.universe_ &&
           std::equal(data(), data() + num_words(), o.data());
  }

  /// Visit every contained commodity in increasing order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::uint64_t* words = data();
    for (std::size_t wi = 0; wi < num_words(); ++wi) {
      std::uint64_t w = words[wi];
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
    const std::uint64_t* words = data();
    for (std::size_t wi = 0; wi < num_words(); ++wi)
      if (words[wi])
        return static_cast<CommodityId>(
            wi * 64 + static_cast<std::size_t>(__builtin_ctzll(words[wi])));
    return kInvalidCommodity;  // unreachable
  }

  /// Debug rendering, e.g. "{0,3,7}/8".
  std::string to_string() const;

  /// FNV-style over the universe and the words, each word first mixed by
  /// the SplitMix64 finalizer: unmixed, structured words cancel out (the
  /// full set over 129 commodities and {0, 64, 128} collided).
  std::size_t hash() const noexcept {
    std::uint64_t h = 1469598103934665603ULL ^ universe_;
    for (std::uint64_t w : words()) {
      w = (w ^ (w >> 30)) * 0xbf58476d1ce4e5b9ULL;
      w = (w ^ (w >> 27)) * 0x94d049bb133111ebULL;
      h ^= w ^ (w >> 31);
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }

 private:
  static constexpr std::size_t kInlineWords = kInlineUniverse / 64;

  std::size_t num_words() const noexcept {
    return (static_cast<std::size_t>(universe_) + 63) / 64;
  }

  std::uint64_t* data() noexcept {
    return heap_ ? heap_.get() : inline_.data();
  }
  const std::uint64_t* data() const noexcept {
    return heap_ ? heap_.get() : inline_.data();
  }

  void check_same_universe(const CommoditySet& o) const {
    OMFLP_REQUIRE(universe_ == o.universe_,
                  "CommoditySet: operation on sets over different universes");
  }

  void trim() noexcept {
    const CommodityId tail = universe_ & 63;
    if (tail != 0) data()[num_words() - 1] &= (1ULL << tail) - 1ULL;
  }

  CommodityId universe_ = 0;
  /// The words of a universe of at most kInlineUniverse commodities; all
  /// zero otherwise and past the word count.
  std::array<std::uint64_t, kInlineWords> inline_{};
  /// The words of a larger universe; null for an inline one.
  std::unique_ptr<std::uint64_t[]> heap_;
};

static_assert(sizeof(CommoditySet) <= 32,
              "a CommoditySet stays a 32-byte value");

struct CommoditySetHash {
  std::size_t operator()(const CommoditySet& s) const noexcept {
    return s.hash();
  }
};

}  // namespace omflp
