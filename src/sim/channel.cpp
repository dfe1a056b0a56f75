#include "sim/channel.hpp"

#include <stdexcept>

namespace pcm::sim {

FlitFifo::FlitFifo(Slot* slots, int capacity) : slots_(slots), capacity_(capacity) {
  if (capacity < 1) throw std::invalid_argument("FlitFifo: capacity must be >= 1");
}

void FlitFifo::fail(const char* what) { throw std::logic_error(what); }

int FlitFifo::remove_msg(MsgId msg) {
  int kept = 0;
  for (int i = 0; i < size_; ++i) {
    const Slot s = slots_[(head_ + i) % capacity_];
    if (s.flit.msg == msg) continue;
    slots_[(head_ + kept) % capacity_] = s;
    ++kept;
  }
  const int removed = size_ - kept;
  size_ = kept;
  return removed;
}

bool FlitFifo::body_run_ending(Time last) const noexcept {
  const MsgId msg = front().msg;
  for (int i = 0; i < size_; ++i) {
    const Slot& s = slots_[(head_ + i) % capacity_];
    if (s.flit.msg != msg || s.flit.head || s.flit.tail) return false;
    if (s.entry != last - (size_ - 1 - i)) return false;
  }
  return true;
}

void FlitFifo::shift_time(Time d) noexcept {
  for (int i = 0; i < size_; ++i) slots_[(head_ + i) % capacity_].entry += d;
  last_pop_ += d;
}

}  // namespace pcm::sim
