// Append-only storage in blocks that never move.
//
// A run appends one Message per post and one reliable-send record per
// tracked send, thousands per stream.  A std::vector would regrow and
// copy every element each time it doubles.  Here block b holds
// kFirst << b entries and is never moved: growth allocates one block
// each time the size doubles, copies nothing, and a reference to an
// element stays valid for the container's lifetime.  The first block is
// small (a one-shot multicast on a fresh Simulator posts tens of
// messages), and the block table sits inside the object, so an access
// costs a std::vector's loads plus a bit scan.  Indices are dense from 0.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <iterator>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace pcm::sim {

template <class T>
class StableVector {
  // Elements are never destroyed one by one: a block is freed whole.
  static_assert(std::is_trivially_destructible_v<T>);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  static constexpr int kFirstLog = 5;  ///< the first block holds 32 entries
  static constexpr std::size_t kFirst = std::size_t{1} << kFirstLog;
  static constexpr std::size_t kMaxBlocks = 32;  ///< 2^37 - 32 entries

 public:
  StableVector() = default;
  // Neither copied nor moved: a moved-from size_ would outlive its blocks.
  StableVector(StableVector&&) = delete;

  /// Appends a copy of `v`; returns the new element, which never moves.
  T& push_back(const T& v) {
    const Where w = locate(size_);
    if (w.off == 0) {
      if (w.block == kMaxBlocks) throw std::length_error("StableVector: full");
      blocks_[w.block].reset(static_cast<T*>(::operator new((kFirst << w.block) * sizeof(T))));
    }
    T* p = blocks_[w.block].get() + w.off;
    std::construct_at(p, v);
    ++size_;
    return *p;
  }

  [[nodiscard]] T& operator[](std::size_t i) {
    const Where w = locate(i);
    return blocks_[w.block].get()[w.off];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    const Where w = locate(i);
    return blocks_[w.block].get()[w.off];
  }
  /// Bounds-checked access; throws std::out_of_range.
  [[nodiscard]] T& at(std::size_t i) {
    if (i >= size_) throw std::out_of_range("StableVector::at");
    return (*this)[i];
  }
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) throw std::out_of_range("StableVector::at");
    return (*this)[i];
  }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Read-only iteration in index order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const StableVector* v, std::size_t i) : v_(v), i_(i) {}
    reference operator*() const { return (*v_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++i_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }

   private:
    const StableVector* v_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  struct Where {
    std::size_t block;
    std::size_t off;
  };
  // Block b starts at index kFirst * (2^b - 1), so i / kFirst + 1 lies in
  // [2^b, 2^(b+1)).
  static Where locate(std::size_t i) {
    const auto b = static_cast<std::size_t>(std::bit_width((i >> kFirstLog) + 1)) - 1;
    return {b, i + kFirst - (kFirst << b)};
  }
  struct Free {
    void operator()(T* p) const { ::operator delete(p); }
  };

  std::array<std::unique_ptr<T, Free>, kMaxBlocks> blocks_;
  std::size_t size_ = 0;
};

}  // namespace pcm::sim
