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
// for the bounded traffic the multicast runtime generates.  The start
// advances by one every cycle the router is active; it is kept lazily, as
// the position it had when it last became active and that cycle, so an
// active router costs nothing per cycle until it arbitrates.
//
// Besides the channel state the router maintains three counters the
// simulator's worklists key on:
//   * activity():  buffered flits + held outputs (zero == fully drained);
//   * pending():   unassigned inputs with a flit at the front — by the
//                  wormhole invariant that flit is always a head, so this
//                  counts exactly the inputs arbitration could serve;
//   * held():      outputs currently reserved, i.e. the switch traversals
//                  transfer could perform (held_mask(): which ones);
//   * movable_mask(): the held outputs that are not standing, the ones
//                  transfer visits.
//
// A Router is a view: its input FIFOs, their slots and its two port tables
// live in a RouterArena, one allocation for every router of a network, so
// building a simulator costs the same few allocations at any size.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
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
  /// Input currently holding output `port`, -1 when free, or below -1
  /// while the output is parked.
  [[nodiscard]] int out_holder(int port) const noexcept {
    return out_holder_[port];
  }

  void reserve(int in_port, int out_port);
  void release(int in_port, int out_port);

  /// Per-worm leap (Simulator): a parked output stays reserved — no other
  /// head can win it — but drops out of held(), and its out_holder() reads
  /// below -1, so the transfer sweep skips it.  unpark() restores it.
  void park(int out_port) noexcept {
    out_holder_[out_port] = -2 - out_holder_[out_port];
    held_ &= ~(std::uint64_t{1} << out_port);
  }
  void unpark(int out_port) noexcept {
    out_holder_[out_port] = -2 - out_holder_[out_port];
    held_ |= std::uint64_t{1} << out_port;
  }
  [[nodiscard]] bool parked(int out_port) const noexcept {
    return out_holder_[out_port] < -1;
  }

  /// Standing hop (Simulator): a held output whose downstream FIFO is full
  /// behind a head that lost arbitration cannot move before that head's
  /// grant.  It stays reserved and in held_mask(), but leaves
  /// movable_mask() until wake().
  void stand(int out_port) noexcept { standing_ |= std::uint64_t{1} << out_port; }
  void wake(int out_port) noexcept { standing_ &= ~(std::uint64_t{1} << out_port); }
  [[nodiscard]] bool standing(int out_port) const noexcept {
    return (standing_ >> out_port & 1U) != 0;
  }

  /// Buffers an arriving flit on `port` (injection or upstream transfer,
  /// both after the cycle's arbitration: a router this activates rotates
  /// from the next cycle on).
  void accept(int port, const Flit& f, Time now) {
    FlitFifo& fifo = in_[port];
    if (fifo.empty() && in_assigned_[port] == -1) ++pending_;
    fifo.push(f, now);
    if (activity_++ == 0) rr_since_ = now + 1;
  }
  /// Removes and returns the front flit of `port`; the port must be
  /// assigned (wormhole flits only advance along reserved paths).
  Flit take(int port, Time now) {
    --activity_;
    return in_[port].pop(now);
  }

  /// Rotating arbitration start at cycle `now`: the start advances once
  /// per cycle the router is active, from its anchor at the cycle it
  /// became active.  A drained router keeps its anchor.
  [[nodiscard]] int rr_start(Time now) const noexcept {
    return activity_ == 0
               ? rr_anchor_
               : static_cast<int>((rr_anchor_ + (now - rr_since_)) % radix_);
  }
  /// The simulator calls this once the router has drained: `end` is the
  /// first cycle it is not active in.
  void rr_fold(Time end) noexcept {
    rr_anchor_ = static_cast<int>((rr_anchor_ + (end - rr_since_)) % radix_);
  }
  /// Event engine: a drained router's start, advanced by the `cycles` of
  /// activity it accounts for in closed form.
  [[nodiscard]] int rr_anchor() const noexcept { return rr_anchor_; }
  void rr_advance(long long cycles) noexcept {
    rr_anchor_ = static_cast<int>((rr_anchor_ + cycles) % radix_);
  }
  /// Event-engine materialization: the router rotates from cycle `since`.
  void rr_resume(Time since) noexcept { rr_since_ = since; }

  /// Number of flits buffered across all inputs plus held outputs; the
  /// simulator drops routers whose activity reaches zero from its
  /// worklist.
  [[nodiscard]] int activity() const noexcept { return activity_; }
  /// Unassigned inputs with a (head) flit at the front.
  [[nodiscard]] int pending() const noexcept { return pending_; }
  /// Reserved output channels, parked ones excluded.
  [[nodiscard]] int held() const noexcept { return std::popcount(held_); }
  /// Bit q set while output q is held and not parked (radix <= 64).
  [[nodiscard]] std::uint64_t held_mask() const noexcept { return held_; }
  /// held_mask() without the standing outputs.
  [[nodiscard]] std::uint64_t movable_mask() const noexcept {
    return held_ & ~standing_;
  }

  /// Fault path: removes every buffered flit of `msg` from all inputs and
  /// recounts the pending inputs.  The caller
  /// must release any reservations held by `msg` (the router does not
  /// track reservation ownership) *before* purging.  Returns the number
  /// of flits removed.
  int purge_msg(MsgId msg);

 private:
  FlitFifo* in_ = nullptr;
  int* in_assigned_ = nullptr;
  int* out_holder_ = nullptr;
  int radix_ = 0;
  int rr_anchor_ = 0;
  Time rr_since_ = 0;
  int activity_ = 0;
  int pending_ = 0;
  std::uint64_t held_ = 0;
  std::uint64_t standing_ = 0;
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
