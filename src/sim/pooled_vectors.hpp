// Many short vectors sharing one buffer.
//
// The event engine keeps a small ordered list per router (the arbiter
// activity segments that precede the router's newest one, which it keeps
// inline) and per channel (hold windows).  One std::vector each would
// regrow 1 -> 2 -> 4 ... for every router and channel a run touches.  Here
// every list is a contiguous segment of one shared buffer, with a
// power-of-two capacity; a full segment moves to one twice its size and
// its old space goes on a free list for that size.  A run's allocations
// then depend on the peak number of live entries, not on the number of
// lists, and reset() keeps the buffer for the next run.  Spans returned
// by view() are invalidated by the next insert.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pcm::sim {

template <class T>
class PooledVectors {
 public:
  /// Empties every list and sizes the pool for `lists` lists.
  void reset(std::size_t lists) {
    segs_.assign(lists, Seg{});
    store_.clear();
    for (std::vector<std::uint32_t>& f : free_) f.clear();
  }

  [[nodiscard]] std::span<T> view(std::size_t l) {
    const Seg& s = segs_[l];
    return {store_.data() + s.off, s.size};
  }
  [[nodiscard]] std::span<const T> view(std::size_t l) const {
    const Seg& s = segs_[l];
    return {store_.data() + s.off, s.size};
  }
  [[nodiscard]] std::size_t size(std::size_t l) const { return segs_[l].size; }

  /// Inserts `v` at index `i` of list `l`, shifting the tail up.
  void insert(std::size_t l, std::size_t i, const T& v) {
    Seg& s = segs_[l];
    if (s.size == (s.cls < 0 ? 0U : 1U << s.cls)) grow(s);
    T* p = store_.data() + s.off;
    std::copy_backward(p + i, p + s.size, p + s.size + 1);
    p[i] = v;
    ++s.size;
  }
  void push_back(std::size_t l, const T& v) { insert(l, size(l), v); }

  /// Drops the first `n` entries of list `l`.
  void erase_front(std::size_t l, std::size_t n) {
    Seg& s = segs_[l];
    T* p = store_.data() + s.off;
    std::copy(p + n, p + s.size, p);
    s.size -= static_cast<std::uint32_t>(n);
  }
  /// Keeps only the first `n` entries of list `l`.
  void truncate(std::size_t l, std::size_t n) { segs_[l].size = static_cast<std::uint32_t>(n); }

 private:
  struct Seg {
    std::uint32_t off = 0;
    std::uint32_t size = 0;
    int cls = -1;  ///< capacity 1 << cls; -1 before the first insert
  };
  static constexpr int kFirstClass = 2;

  void grow(Seg& s) {
    const int cls = s.cls < 0 ? kFirstClass : s.cls + 1;
    std::vector<std::uint32_t>& reuse = free_[static_cast<std::size_t>(cls)];
    std::uint32_t off = 0;
    if (reuse.empty()) {
      off = static_cast<std::uint32_t>(store_.size());
      store_.resize(store_.size() + (std::size_t{1} << cls));
    } else {
      off = reuse.back();
      reuse.pop_back();
    }
    std::copy_n(store_.data() + s.off, s.size, store_.data() + off);
    if (s.cls >= 0) free_[static_cast<std::size_t>(s.cls)].push_back(s.off);
    s.off = off;
    s.cls = cls;
  }

  std::vector<Seg> segs_;
  std::vector<T> store_;
  std::array<std::vector<std::uint32_t>, 32> free_;  ///< per class: free offsets
};

}  // namespace pcm::sim
