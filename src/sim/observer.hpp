// Observation hooks for the simulator: channel reservations, releases,
// and the start of each blocked-head wait, in commit order.  Observers
// see the ground truth of wormhole switching (which message held which
// channel when), which the analysis layer uses for trace recording,
// utilization accounting, and machine-checking contention-freedom.
#pragma once

#include <string>
#include <vector>

#include "core/types.hpp"
#include "sim/fault.hpp"
#include "sim/message.hpp"

namespace pcm::sim {

/// Forensic snapshot taken when the watchdog expires (and available on
/// demand via Simulator::stall_report()): what is stuck, who holds what,
/// and — when the wait-for graph is cyclic — the suspected deadlock.
struct WatchdogReport {
  Time cycle = 0;            ///< when the snapshot was taken
  Time stalled_cycles = 0;   ///< consecutive cycles without progress

  struct StalledMessage {
    MsgId msg = kInvalidMsg;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    bool injected = false;   ///< head has entered the network
    Time block_cycles = 0;
  };
  std::vector<StalledMessage> stalled;  ///< undelivered, unlost messages

  struct Reservation {
    int router = 0;
    int out_port = 0;
    MsgId holder = kInvalidMsg;
    std::string channel;     ///< human-readable channel name
  };
  std::vector<Reservation> reservations;  ///< the channel reservation graph

  /// Message-level wait-for cycle (each waits on a channel held by the
  /// next; last waits on the first).  Empty when no cycle was found —
  /// the stall is then flow-control or fault related, not a routing
  /// deadlock.
  std::vector<MsgId> deadlock_cycle;

  /// Per-channel occupancy dump (the classic "occ=" lines).
  std::string channel_occupancy;

  [[nodiscard]] std::string to_string() const;
};

class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// `m` was registered with Simulator::post at cycle `t` (m.id is
  /// assigned by then).  Default: ignore, so existing observers compile.
  virtual void on_post(const Message& m, Time t) { (void)m, (void)t; }

  /// `m`'s tail flit was consumed at its destination at cycle `t`
  /// (m.delivered and m.corrupted are final).  Fires at the commit point,
  /// before the delivery handler runs.
  virtual void on_deliver(const Message& m, Time t) { (void)m, (void)t; }

  /// Output channel (router, out_port) reserved for `msg` (its head won
  /// arbitration) at cycle `t`.
  virtual void on_reserve(int router, int out_port, MsgId msg, Time t) = 0;

  /// The reservation ended (tail flit crossed) at cycle `t`.
  virtual void on_release(int router, int out_port, MsgId msg, Time t) = 0;

  /// A wait starts: at cycle `t` `msg`'s head, which had not lost the
  /// cycle before, requested an output at (router, in_port) but every
  /// candidate channel was held by another message.  The wait ends at
  /// `msg`'s next on_reserve at `router` or its on_drop; every cycle of
  /// it is charged to Message::block_cycles, only the first is reported.
  virtual void on_blocked(int router, int in_port, MsgId msg, Time t) = 0;

  /// `msg` was removed from the network by a fault (see Message::drop_
  /// reason for why).  Default: ignore, so existing observers compile.
  virtual void on_drop(MsgId msg, DropReason reason, Time t) {
    (void)msg, (void)reason, (void)t;
  }

  /// A fault-plan event was applied (link state change or node failure).
  virtual void on_fault_event(Time t) { (void)t; }

  /// The watchdog expired; `report` is the forensic dump the simulator
  /// throws with.  Called before the WatchdogError is raised.
  virtual void on_watchdog(const WatchdogReport& report) { (void)report; }

  /// The engine jumped the clock from `from` directly to `to` without
  /// evaluating the skipped cycles (cycle engine: network quiescent;
  /// event engine: closed-form laminar fast-forward).  Unlike every other
  /// hook this is an *engine* artifact, not a workload observable — when
  /// and how often it fires differs between engines, so observers that
  /// promise cross-engine identical output must not derive events from it
  /// (the flight recorder records nothing for it and only forwards the
  /// call to its chained observer).
  virtual void on_fast_forward(Time from, Time to) { (void)from, (void)to; }
};

}  // namespace pcm::sim
