// Flit buffer at a router input port: a small ring buffer that remembers
// each flit's arrival cycle so the router pipeline delay can be modelled
// as a minimum residency time.  The ring's slots live outside the FIFO
// (the simulator's router arena, or a test's local array), so a FIFO is
// a trivially copyable header and building a network allocates once.
#pragma once

#include <cstdint>

#include "core/types.hpp"
#include "sim/message.hpp"

namespace pcm::sim {

struct Flit {
  MsgId msg = kInvalidMsg;
  bool head = false;
  bool tail = false;
};

class FlitFifo {
 public:
  /// One buffered flit and its arrival cycle.
  struct Slot {
    Flit flit;
    Time entry = 0;
  };

  FlitFifo() = default;
  /// Views `capacity` slots at `slots`, which must outlive the FIFO.
  FlitFifo(Slot* slots, int capacity);

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == capacity_; }

  /// Oldest flit; FIFO must be non-empty.
  [[nodiscard]] const Flit& front() const noexcept { return slots_[head_].flit; }
  [[nodiscard]] Time front_entry() const noexcept { return slots_[head_].entry; }
  /// Newest flit's arrival cycle; FIFO must be non-empty.
  [[nodiscard]] Time back_entry() const noexcept {
    return slots_[(head_ + size_ - 1) % capacity_].entry;
  }
  /// Cycle of the most recent pop, -1 before the first.
  [[nodiscard]] Time last_pop() const noexcept { return last_pop_; }

  // Inline, and wrapping without a division: one push and one pop per
  // flit hop, on the cycle engine's hottest path.
  void push(const Flit& f, Time now) {
    if (full()) [[unlikely]]
      fail("FlitFifo::push on full buffer (flow-control bug)");
    int pos = head_ + size_;
    if (pos >= capacity_) pos -= capacity_;
    slots_[pos] = Slot{f, now};
    ++size_;
  }
  Flit pop(Time now) {
    if (empty()) [[unlikely]]
      fail("FlitFifo::pop on empty buffer");
    const Flit f = slots_[head_].flit;
    if (++head_ == capacity_) head_ = 0;
    --size_;
    last_pop_ = now;
    return f;
  }

  /// Flit at logical index `i` (0 == front); for fault purging and
  /// forensic dumps only.
  [[nodiscard]] const Flit& at(int i) const {
    return slots_[(head_ + i) % capacity_].flit;
  }

  /// Removes every flit of `msg` (they form one contiguous segment under
  /// the wormhole invariant, but this handles any layout), preserving the
  /// order and entry times of the rest.  Returns the number removed.
  /// Fault path only — never called on healthy runs.
  int remove_msg(MsgId msg);

  /// Steady-state leap only (Simulator::leap): true when every buffered
  /// flit is a body flit of one message and the arrival cycles are
  /// consecutive, ending at `last`.  FIFO must be non-empty.
  [[nodiscard]] bool body_run_ending(Time last) const noexcept;
  /// Steady-state leap only: moves every arrival cycle and the pop stamp
  /// `d` cycles later, the state `d` more cycles of one-in-one-out
  /// streaming would leave.
  void shift_time(Time d) noexcept;

  /// Flow control against start-of-cycle occupancy: a flit popped earlier
  /// in the same cycle has not yet freed its slot for same-cycle pushes
  /// (one-cycle credit turnaround).  Each FIFO has a single writer, so at
  /// most one push per cycle can ask.
  [[nodiscard, gnu::always_inline]] bool can_accept(Time now) const noexcept {
    return size_ + (last_pop_ == now ? 1 : 0) < capacity_;
  }

 private:
  [[noreturn]] static void fail(const char* what);

  Slot* slots_ = nullptr;
  int capacity_ = 0;
  int head_ = 0;
  int size_ = 0;
  Time last_pop_ = -1;
};

}  // namespace pcm::sim
