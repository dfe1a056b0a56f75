#include "sim/router.hpp"

#include <stdexcept>

namespace pcm::sim {

Router::Router(int radix, int fifo_capacity)
    : in_(radix, FlitFifo(fifo_capacity)),
      in_assigned_(radix, -1),
      out_holder_(radix, -1) {}

void Router::reserve(int in_port, int out_port) {
  if (in_assigned_[in_port] != -1 || out_holder_[out_port] != -1)
    throw std::logic_error("Router::reserve on busy port");
  in_assigned_[in_port] = out_port;
  out_holder_[out_port] = in_port;
  ++activity_;
  ++held_;
  --pending_;  // the input's front head is now assigned
}

void Router::release(int in_port, int out_port) {
  if (in_assigned_[in_port] != out_port || out_holder_[out_port] != in_port)
    throw std::logic_error("Router::release on unmatched ports");
  in_assigned_[in_port] = -1;
  out_holder_[out_port] = -1;
  --activity_;
  --held_;
  // Anything still buffered on the freed input is the next message's head
  // (wormhole invariant), so the input re-enters the arbitration set.
  if (!in_[in_port].empty()) ++pending_;
}

int Router::purge_msg(MsgId msg) {
  int removed = 0;
  for (FlitFifo& fifo : in_) removed += fifo.remove_msg(msg);
  if (removed == 0) return 0;
  // Recount rather than patch: removal can expose a new front (or empty a
  // FIFO entirely), and the counters are cheap to rebuild exactly.
  activity_ = held_;
  pending_ = 0;
  for (std::size_t p = 0; p < in_.size(); ++p) {
    activity_ += in_[p].size();
    if (!in_[p].empty() && in_assigned_[p] == -1) ++pending_;
  }
  return removed;
}

}  // namespace pcm::sim
