// InlineList<T, N> — a list of trivially copyable T that keeps up to N
// elements inside the object and moves them to one heap block above that.
//
// Layout. An 8-byte header (size, capacity) is followed by a union of the
// N inline elements and the heap pointer; capacity N means inline storage,
// anything larger a heap block of that capacity. Filling, copying or
// assigning a list of at most N elements therefore never allocates, and
// its elements sit next to the object that owns it instead of behind a
// pointer. Above N the list grows like a std::vector (capacity doubles),
// and clear() or a copy-assign that fits keeps the block, so a reused
// list that once spilled does not allocate again.
//
// It offers the std::vector subset its users need: iteration (plain
// pointers, so std::sort and friends apply), size/empty/capacity, front,
// operator[], at, push_back, clear, reserve, range erase and ==.
// A moved-from list is empty and inline.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "support/assert.hpp"

namespace omflp {

template <typename T, std::uint32_t N>
class InlineList {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineList copies its elements bytewise");
  static_assert(N > 0, "InlineList needs at least one inline element");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  /// Elements held without a heap block.
  static constexpr std::uint32_t kInlineCapacity = N;

  InlineList() noexcept : heap_(nullptr) {}
  InlineList(const InlineList& o) : InlineList() { *this = o; }
  InlineList(InlineList&& o) noexcept : InlineList() { take(o); }
  ~InlineList() { free_heap(); }

  InlineList& operator=(const InlineList& o) {
    if (this == &o) return *this;
    size_ = 0;
    reserve(o.size_);
    std::copy_n(o.data(), o.size_, data());
    size_ = o.size_;
    return *this;
  }

  InlineList& operator=(InlineList&& o) noexcept {
    if (this == &o) return *this;
    free_heap();
    take(o);
    return *this;
  }

  T* begin() noexcept { return data(); }
  T* end() noexcept { return data() + size_; }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  T& operator[](std::size_t i) noexcept { return data()[i]; }
  const T& operator[](std::size_t i) const noexcept { return data()[i]; }
  T& front() noexcept { return data()[0]; }
  const T& front() const noexcept { return data()[0]; }

  const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("InlineList::at: out of range");
    return data()[i];
  }
  T& at(std::size_t i) {
    return const_cast<T&>(std::as_const(*this).at(i));
  }

  void push_back(const T& value) {
    const T copy = value;  // `value` may live in the block reserve() frees
    if (size_ == capacity_) reserve(std::size_t{2} * capacity_);
    std::construct_at(data() + size_, copy);
    ++size_;
  }

  /// Empties the list, keeping its storage (and any heap block).
  void clear() noexcept { size_ = 0; }

  /// Makes room for `n` elements, moving them to a heap block of exactly
  /// that capacity when the current storage holds fewer.
  void reserve(std::size_t n) {
    if (n <= capacity_) return;
    OMFLP_REQUIRE(n <= kMaxSize, "InlineList: too many elements");
    T* const block = std::allocator<T>().allocate(n);
    std::uninitialized_copy_n(data(), size_, block);
    const std::uint32_t size = size_;
    free_heap();
    heap_ = block;
    size_ = size;
    capacity_ = static_cast<std::uint32_t>(n);
  }

  /// Removes [first, last); returns the position after the removed run.
  T* erase(const T* first, const T* last) noexcept {
    T* const at = begin() + (first - begin());
    std::copy(last, static_cast<const T*>(end()), at);
    size_ -= static_cast<std::uint32_t>(last - first);
    return at;
  }

  friend bool operator==(const InlineList& a, const InlineList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  static constexpr std::size_t kMaxSize = ~std::uint32_t{0};

  bool on_heap() const noexcept { return capacity_ > N; }
  T* data() noexcept { return on_heap() ? heap_ : inline_; }
  const T* data() const noexcept { return on_heap() ? heap_ : inline_; }

  /// Back to the empty inline list, freeing any heap block.
  void free_heap() noexcept {
    if (on_heap()) std::allocator<T>().deallocate(heap_, capacity_);
    size_ = 0;
    capacity_ = N;
  }

  /// Takes o's elements (its heap block, or a copy of its inline ones)
  /// into this empty inline list; o is left empty and inline.
  void take(InlineList& o) noexcept {
    if (o.on_heap())
      heap_ = o.heap_;
    else
      std::copy_n(o.inline_, o.size_, inline_);
    size_ = o.size_;
    capacity_ = o.capacity_;
    o.size_ = 0;
    o.capacity_ = N;
  }

  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  union {
    T inline_[N];
    T* heap_;
  };
};

}  // namespace omflp
