#include "sim/router.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <type_traits>

namespace pcm::sim {

// Nothing in the arena needs a destructor, so freeing the bytes is enough.
static_assert(std::is_trivially_destructible_v<Router> &&
              std::is_trivially_destructible_v<FlitFifo> &&
              std::is_trivially_destructible_v<FlitFifo::Slot>);

RouterArena::RouterArena(int routers, int radix, int fifo_capacity) {
  if (radix > 64)
    throw std::invalid_argument("RouterArena: radix above 64 (held-output mask)");
  const auto nr = static_cast<std::size_t>(routers);
  const std::size_t ports = nr * static_cast<std::size_t>(radix);
  const std::size_t nslots = ports * static_cast<std::size_t>(fifo_capacity);
  // Sections in decreasing alignment, each a whole number of its own
  // elements, so every section starts suitably aligned.
  static_assert(alignof(Router) <= alignof(std::max_align_t) &&
                alignof(FlitFifo) <= alignof(Router) &&
                alignof(FlitFifo::Slot) <= alignof(FlitFifo) &&
                alignof(int) <= alignof(FlitFifo::Slot) &&
                sizeof(Router) % alignof(FlitFifo) == 0 &&
                sizeof(FlitFifo) % alignof(FlitFifo::Slot) == 0);
  const std::size_t fifo_at = nr * sizeof(Router);
  const std::size_t slot_at = fifo_at + ports * sizeof(FlitFifo);
  const std::size_t table_at = slot_at + nslots * sizeof(FlitFifo::Slot);
  mem_ = std::make_unique_for_overwrite<std::byte[]>(table_at +
                                                     2 * ports * sizeof(int));
  auto* fifos = reinterpret_cast<FlitFifo*>(mem_.get() + fifo_at);
  // Slots need no initialization: a FIFO writes a slot before reading it.
  auto* slots = reinterpret_cast<FlitFifo::Slot*>(mem_.get() + slot_at);
  auto* tables = reinterpret_cast<int*>(mem_.get() + table_at);
  std::fill_n(tables, 2 * ports, -1);
  for (std::size_t p = 0; p < ports; ++p)
    ::new (fifos + p) FlitFifo(slots + p * fifo_capacity, fifo_capacity);
  auto* views = reinterpret_cast<Router*>(mem_.get());
  for (std::size_t r = 0; r < nr; ++r) {
    const std::size_t base = r * static_cast<std::size_t>(radix);
    ::new (views + r) Router(fifos + base, tables + base, tables + ports + base, radix);
  }
  routers_ = std::span<Router>(views, nr);
}

void Router::reserve(int in_port, int out_port) {
  if (in_assigned_[in_port] != -1 || out_holder_[out_port] != -1)
    throw std::logic_error("Router::reserve on busy port");
  in_assigned_[in_port] = out_port;
  out_holder_[out_port] = in_port;
  ++activity_;
  held_ |= std::uint64_t{1} << out_port;
  --pending_;  // the input's front head is now assigned
}

void Router::release(int in_port, int out_port) {
  if (in_assigned_[in_port] != out_port || out_holder_[out_port] != in_port)
    throw std::logic_error("Router::release on unmatched ports");
  in_assigned_[in_port] = -1;
  out_holder_[out_port] = -1;
  --activity_;
  held_ &= ~(std::uint64_t{1} << out_port);
  standing_ &= ~(std::uint64_t{1} << out_port);
  // Anything still buffered on the freed input is the next message's head
  // (wormhole invariant), so the input re-enters the arbitration set.
  if (!in_[in_port].empty()) ++pending_;
}

int Router::purge_msg(MsgId msg) {
  int removed = 0;
  for (int p = 0; p < radix_; ++p) removed += in_[p].remove_msg(msg);
  if (removed == 0) return 0;
  // Recount rather than patch: removal can expose a new front (or empty a
  // FIFO entirely).  Held and parked outputs are untouched, so activity
  // loses exactly the removed flits.
  activity_ -= removed;
  pending_ = 0;
  for (int p = 0; p < radix_; ++p)
    if (!in_[p].empty() && in_assigned_[p] == -1) ++pending_;
  return removed;
}

}  // namespace pcm::sim
