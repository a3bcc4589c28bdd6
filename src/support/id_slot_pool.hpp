// IdSlotPool<T> — entries keyed by ever-growing ids, held in reusable
// slots, so memory follows the entries still held rather than every id
// ever added or the age of the oldest one.
//
// Ids are added in ascending order; ids skipped over count as released.
//
// Slots. Entries live in fixed chunks of kChunkEntries slots that never
// move once allocated, so a reference add() returns stays valid until
// its id is released, and growing the pool copies nothing (no transient
// old + new block). release() puts the slot on a free list; a reused
// slot hands back the released entry's old contents, vectors with their
// capacity, for the caller to overwrite.
//
// Id map. Ids map to slots through pages of kPageIds uint32 entries
// (4 KiB), each holding the slot of every id in its range or
// "released". The page directory lists only the pages that still hold a
// resident id, in ascending order: a page is freed when its last
// resident id goes, and ids no page covers are released. A lookup
// indexes the directory from its newest page, directly while the pages
// from there back to the id's are contiguous, and binary-searches that
// stretch otherwise. So one long-lived id costs one page, not
// 4 bytes per later id, and for_each() walks the present pages only, in
// id order. first_id() is the lowest resident id (next_id() when nothing
// is resident).
//
// Allocation. Freed pages go to a spare list of kSparePages and are
// reused before a new one is allocated. Once the pool has held as many
// entries, pages and free-list entries as a steady add/release cycle
// needs, that cycle allocates nothing — also behind a pinned old id.
//
// Three users keep state keyed by RequestId here: SolutionLedger its
// request records, PD-OMFLP its archive of frozen duals and
// StreamVerifier its recomputed entries of the active requests.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace omflp {

template <typename T>
class IdSlotPool {
 public:
  using Id = std::size_t;

  static constexpr std::size_t kChunkEntries = 256;
  static constexpr std::size_t kPageIds = 1024;
  static constexpr std::size_t kSparePages = 4;

  /// Lowest resident id; every id below it has been released.
  Id first_id() const noexcept { return first_id_; }
  /// One past the highest id ever added or skipped.
  Id next_id() const noexcept { return next_id_; }
  /// Entries currently held.
  std::size_t size() const noexcept { return num_slots_ - free_.size(); }

  /// The entry of id `id`, or nullptr when it is not resident.
  const T* find(Id id) const noexcept {
    if (id < first_id_ || id >= next_id_) return nullptr;
    const std::size_t k = page_index(id);
    if (k == kNoPage) return nullptr;
    const std::uint32_t slot = pages_[k].slots[id % kPageIds];
    return slot == kReleased ? nullptr : &entry(slot);
  }
  T* find(Id id) noexcept {
    return const_cast<T*>(std::as_const(*this).find(id));
  }
  bool resident(Id id) const noexcept { return find(id) != nullptr; }

  /// Adds id `id`, at least next_id(), and returns its entry: a fresh T,
  /// or a released entry's old contents when a slot is reused.
  T& add(Id id) {
    OMFLP_REQUIRE(id >= next_id_, "IdSlotPool: ids must grow");
    skip_to(id);
    const std::uint32_t slot = take_slot();
    const Id number = id / kPageIds;
    if (pages_.empty() || pages_.back().number != number)
      pages_.push_back(Page{number, 0, take_page()});
    Page& page = pages_.back();
    page.slots[id % kPageIds] = slot;
    ++page.live;
    next_id_ = id + 1;
    return entry(slot);
  }
  T& add() { return add(next_id_); }

  /// Advances next_id() to `id`; the ids skipped over count as released.
  void skip_to(Id id) {
    if (id <= next_id_) return;
    if (size() == 0) first_id_ = id;
    next_id_ = id;
  }

  /// Releases resident id `id`: its slot goes on the free list with its
  /// contents intact until a later add() reuses it.
  void release(Id id) {
    const std::size_t k =
        id >= first_id_ && id < next_id_ ? page_index(id) : kNoPage;
    OMFLP_REQUIRE(k != kNoPage && pages_[k].slots[id % kPageIds] != kReleased,
                  "IdSlotPool: releasing a non-resident id");
    Page& page = pages_[k];
    std::uint32_t& slot = page.slots[id % kPageIds];
    free_.push_back(slot);
    slot = kReleased;
    if (--page.live == 0) {
      if (spares_ < kSparePages) spare_[spares_++] = std::move(page.slots);
      pages_.erase(pages_.begin() + static_cast<std::ptrdiff_t>(k));
    }
    if (id != first_id_) return;
    if (pages_.empty()) {
      first_id_ = next_id_;
      return;
    }
    // The lowest resident id is the front page's first one at or past id.
    const Page& front = pages_.front();
    first_id_ = std::max(id + 1, front.number * kPageIds);
    while (front.slots[first_id_ % kPageIds] == kReleased) ++first_id_;
  }

  /// Calls fn(id, entry) for every resident entry in ascending id order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Page& page : pages_) {
      for (std::size_t i = 0; i < kPageIds; ++i) {
        if (page.slots[i] == kReleased) continue;
        fn(static_cast<Id>(page.number * kPageIds + i),
           entry(page.slots[i]));
      }
    }
  }

  void clear() {
    chunks_.clear();
    free_.clear();
    pages_.clear();
    num_slots_ = 0;
    first_id_ = 0;
    next_id_ = 0;
  }

 private:
  static constexpr std::uint32_t kReleased = ~std::uint32_t{0};
  static constexpr std::size_t kNoPage = ~std::size_t{0};

  /// The slots of ids [number * kPageIds, (number + 1) * kPageIds).
  struct Page {
    Id number = 0;
    /// Resident ids in the page; the page is freed when it reaches 0.
    std::size_t live = 0;
    std::unique_ptr<std::uint32_t[]> slots;
  };

  const T& entry(std::uint32_t slot) const noexcept {
    return chunks_[slot / kChunkEntries][slot % kChunkEntries];
  }
  T& entry(std::uint32_t slot) noexcept {
    return chunks_[slot / kChunkEntries][slot % kChunkEntries];
  }

  /// Index in pages_ of the page holding `id`, or kNoPage.
  std::size_t page_index(Id id) const noexcept {
    const Id number = id / kPageIds;
    if (pages_.empty() || number > pages_.back().number) return kNoPage;
    // Page numbers ascend strictly, so page `number` sits no further from
    // the back than its distance in numbers: exactly there while the
    // pages from it to the newest are contiguous. Pages are freed mostly
    // among the oldest ids, so lookups rarely search.
    const std::size_t distance = pages_.back().number - number;
    if (distance >= pages_.size() - 1) {
      if (pages_.front().number == number) return 0;
    } else if (pages_[pages_.size() - 1 - distance].number == number) {
      return pages_.size() - 1 - distance;
    }
    const auto first =
        distance < pages_.size()
            ? pages_.end() - 1 - static_cast<std::ptrdiff_t>(distance)
            : pages_.begin();
    const auto it = std::lower_bound(
        first, pages_.end(), number,
        [](const Page& page, Id n) { return page.number < n; });
    return it != pages_.end() && it->number == number
               ? static_cast<std::size_t>(it - pages_.begin())
               : kNoPage;
  }

  /// A page with every id released: a spare one when there is one (a
  /// page is freed only once all its ids are released again).
  std::unique_ptr<std::uint32_t[]> take_page() {
    if (spares_ > 0) return std::move(spare_[--spares_]);
    auto page = std::make_unique_for_overwrite<std::uint32_t[]>(kPageIds);
    std::fill_n(page.get(), kPageIds, kReleased);
    return page;
  }

  std::uint32_t take_slot() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    OMFLP_REQUIRE(num_slots_ < kReleased,
                  "IdSlotPool: too many resident entries");
    if (num_slots_ % kChunkEntries == 0)
      chunks_.push_back(std::make_unique<T[]>(kChunkEntries));
    return static_cast<std::uint32_t>(num_slots_++);
  }

  /// Slots [0, num_slots_) have been handed out; those listed in free_
  /// hold no id.
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t num_slots_ = 0;
  std::vector<std::uint32_t> free_;
  /// The pages holding a resident id, ascending by number.
  std::vector<Page> pages_;
  std::array<std::unique_ptr<std::uint32_t[]>, kSparePages> spare_;
  std::size_t spares_ = 0;
  Id first_id_ = 0;
  Id next_id_ = 0;
};

}  // namespace omflp
