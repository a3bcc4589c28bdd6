// IdSlotPool<T> — entries keyed by ever-growing ids, held in reusable
// slots, so memory follows the entries still held rather than every id
// ever added.
//
// Ids are added in ascending order; ids skipped over count as released.
// A dense uint32 map takes each id in [first_id(), next_id()) to its
// slot, or to "released" (4 bytes per id from the oldest resident entry
// on). release() puts the slot on a free list and trims released ids
// off the front of the map; the map's dead head is erased once it makes
// up half of it, so trimming is amortized O(1) and first_id() is always
// the lowest resident id (next_id() when nothing is resident). Ids never
// change. A reused slot hands back the released entry's old contents,
// vectors with their capacity, for the caller to overwrite: a
// steady-state add allocates nothing.
//
// SolutionLedger keeps its request records here and PD-OMFLP its archive
// of frozen duals, both keyed by RequestId.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace omflp {

template <typename T>
class IdSlotPool {
 public:
  using Id = std::size_t;

  /// Lowest resident id; every id below it has been released.
  Id first_id() const noexcept { return first_id_; }
  /// One past the highest id ever added or skipped.
  Id next_id() const noexcept {
    return first_id_ + (slot_of_.size() - head_);
  }
  /// Entries currently held.
  std::size_t size() const noexcept { return slots_.size() - free_.size(); }

  /// The entry of id `id`, or nullptr when it is not resident.
  const T* find(Id id) const noexcept {
    if (id < first_id_ || id >= next_id()) return nullptr;
    const std::uint32_t slot = slot_of_[head_ + (id - first_id_)];
    return slot == kReleased ? nullptr : &slots_[slot];
  }
  T* find(Id id) noexcept {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  bool resident(Id id) const noexcept { return find(id) != nullptr; }

  /// Adds id `id`, at least next_id(), and returns its entry: a fresh T,
  /// or a released entry's old contents when a slot is reused.
  T& add(Id id) {
    OMFLP_REQUIRE(id >= next_id(), "IdSlotPool: ids must grow");
    skip_to(id);
    std::uint32_t slot;
    if (free_.empty()) {
      OMFLP_REQUIRE(slots_.size() < kReleased,
                    "IdSlotPool: too many resident entries");
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    slot_of_.push_back(slot);
    return slots_[slot];
  }
  T& add() { return add(next_id()); }

  /// Advances next_id() to `id`; the ids skipped over count as released.
  void skip_to(Id id) {
    if (id <= next_id()) return;
    if (size() == 0) {  // nothing resident: the map restarts at `id`
      slot_of_.clear();
      head_ = 0;
      first_id_ = id;
      return;
    }
    slot_of_.resize(slot_of_.size() + (id - next_id()), kReleased);
  }

  /// Releases resident id `id`: its slot goes on the free list with its
  /// contents intact until a later add() reuses it.
  void release(Id id) {
    OMFLP_REQUIRE(resident(id), "IdSlotPool: releasing a non-resident id");
    std::uint32_t& slot = slot_of_[head_ + (id - first_id_)];
    free_.push_back(slot);
    slot = kReleased;
    while (head_ < slot_of_.size() && slot_of_[head_] == kReleased) {
      ++head_;
      ++first_id_;
    }
    if (head_ * 2 > slot_of_.size()) {
      slot_of_.erase(slot_of_.begin(),
                     slot_of_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  /// Calls fn(id, entry) for every resident entry in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = head_; i < slot_of_.size(); ++i) {
      if (slot_of_[i] == kReleased) continue;
      fn(static_cast<Id>(first_id_ + (i - head_)), slots_[slot_of_[i]]);
    }
  }

  void reserve(std::size_t entries) { slots_.reserve(entries); }
  void clear() {
    slots_.clear();
    free_.clear();
    slot_of_.clear();
    head_ = 0;
    first_id_ = 0;
  }

 private:
  static constexpr std::uint32_t kReleased = ~std::uint32_t{0};

  /// The entries; slots listed in free_ hold no id.
  std::vector<T> slots_;
  std::vector<std::uint32_t> free_;
  /// slot_of_[head_ + k] is the slot of id first_id_ + k, or kReleased.
  /// Entries before head_ are dead.
  std::vector<std::uint32_t> slot_of_;
  std::size_t head_ = 0;
  Id first_id_ = 0;
};

}  // namespace omflp
