// Input-buffered wormhole router.
//
// Per cycle the router (driven by the Simulator) performs:
//   * routing/arbitration: head flits at the front of an unassigned input
//     request an output; a free output is reserved for the whole message
//     (head through tail), which is the defining property of wormhole
//     switching — a blocked message holds its channels in place;
//   * switch traversal: every reserved (input, output) pair forwards at
//     most one flit per cycle, subject to downstream buffer space and the
//     minimum router residency (`router_delay`).
//
// Arbitration is rotating-priority over inputs, which is starvation-free
// for the bounded traffic the multicast runtime generates.
//
// Besides the channel state the router maintains three counters the
// simulator's worklists key on:
//   * activity():  buffered flits + held outputs (zero == fully drained);
//   * pending():   unassigned inputs with a flit at the front — by the
//                  wormhole invariant that flit is always a head, so this
//                  counts exactly the inputs arbitration could serve;
//   * held():      outputs currently reserved, i.e. the switch traversals
//                  transfer could perform.
//
// A Router is a view: its input FIFOs, their slots and its two port tables
// live in a RouterArena, one allocation for every router of a network, so
// building a simulator costs the same few allocations at any size.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "sim/channel.hpp"

namespace pcm::sim {

class Router {
 public:
  Router() = default;
  /// Views `radix` input FIFOs and the per-port reservation tables
  /// (entries -1 when free); the storage must outlive the router.
  Router(FlitFifo* in, int* in_assigned, int* out_holder, int radix) noexcept
      : in_(in), in_assigned_(in_assigned), out_holder_(out_holder), radix_(radix) {}

  [[nodiscard]] int radix() const noexcept { return radix_; }

  [[nodiscard]] FlitFifo& in(int port) noexcept { return in_[port]; }
  [[nodiscard]] const FlitFifo& in(int port) const noexcept { return in_[port]; }

  /// Output port currently reserved by input `port`, or -1.
  [[nodiscard]] int assigned_out(int port) const noexcept {
    return in_assigned_[port];
  }
  /// Input currently holding output `port`, or -1.
  [[nodiscard]] int out_holder(int port) const noexcept {
    return out_holder_[port];
  }

  void reserve(int in_port, int out_port);
  void release(int in_port, int out_port);

  /// Buffers an arriving flit on `port` (injection or upstream transfer).
  void accept(int port, const Flit& f, Time now) {
    FlitFifo& fifo = in_[port];
    if (fifo.empty() && in_assigned_[port] == -1) ++pending_;
    fifo.push(f, now);
    ++activity_;
  }
  /// Removes and returns the front flit of `port`; the port must be
  /// assigned (wormhole flits only advance along reserved paths).
  Flit take(int port, Time now) {
    --activity_;
    return in_[port].pop(now);
  }

  /// Rotating arbitration start index; call bump() after each cycle that
  /// performed arbitration so priority rotates.
  [[nodiscard]] int rr_start() const noexcept { return rr_start_; }
  [[gnu::always_inline]] void bump() noexcept {
    if (++rr_start_ == radix()) rr_start_ = 0;
  }
  /// Event-engine materialization only: restores the priority the rotating
  /// arbiter would have after the reconstructed bump history.
  void set_rr_start(int s) noexcept { rr_start_ = s; }

  /// Number of flits buffered across all inputs plus held outputs; the
  /// simulator drops routers whose activity reaches zero from its
  /// worklist.
  [[nodiscard]] int activity() const noexcept { return activity_; }
  /// Unassigned inputs with a (head) flit at the front.
  [[nodiscard]] int pending() const noexcept { return pending_; }
  /// Reserved output channels.
  [[nodiscard]] int held() const noexcept { return held_; }

  /// Fault path: removes every buffered flit of `msg` from all inputs and
  /// recomputes the worklist counters from first principles.  The caller
  /// must release any reservations held by `msg` (the router does not
  /// track reservation ownership) *before* purging.  Returns the number
  /// of flits removed.
  int purge_msg(MsgId msg);

 private:
  FlitFifo* in_ = nullptr;
  int* in_assigned_ = nullptr;
  int* out_holder_ = nullptr;
  int radix_ = 0;
  int rr_start_ = 0;
  int activity_ = 0;
  int pending_ = 0;
  int held_ = 0;
};

/// Storage for every router of one network in a single allocation: the
/// Router views, their input-FIFO headers and slots, and the in_assigned /
/// out_holder tables.  Non-movable, like the simulator that owns it.
class RouterArena {
 public:
  RouterArena(int routers, int radix, int fifo_capacity);
  RouterArena(const RouterArena&) = delete;
  RouterArena& operator=(const RouterArena&) = delete;

  [[nodiscard]] std::span<Router> routers() const noexcept { return routers_; }

 private:
  std::unique_ptr<std::byte[]> mem_;
  std::span<Router> routers_;
};

}  // namespace pcm::sim
