// Fault-tolerant streaming multicast: a windowed pipelining layer on top
// of MulticastRuntime (DESIGN.md §6.6).
//
// A stream pushes `slots` back-to-back messages through the *same*
// contention-free multicast tree.  The sender owns a slot ring of
// `window_size` entries: slot s may be injected once every slot up to
// s - window_size has been cumulatively acknowledged by every surviving
// receiver (backpressure), and consecutive injections are naturally spaced
// at the t_hold rate by the source's send engine.  Cumulative acks
// garbage-collect ring entries as the frontier advances.
//
// Robustness is first-class (reliable mode): every send is a record of
// the tracked-send core run_reliable uses too (runtime/reliable_sends.hpp);
// a receiver that exhausts its retries *bumps the group epoch*: the chain
// is re-split over the survivors, every unacked slot is replayed into the
// new tree, and deliveries of older-epoch messages are rejected as stale
// acks.  Streams never wedge on a dead receiver: the result reports every
// receiver's contiguous delivered prefix.
//
// The fault-free fast path is handler-driven (no record table, no timeout
// sweeps) and, at window_size == 1, executes each slot cycle-for-cycle
// identically to a chain of MulticastRuntime::run() calls — the
// equivalence tests/test_stream.cpp pins.
// Group membership rides on top (DESIGN.md §6.7): when
// StreamConfig::membership enables a heartbeat cadence, a deterministic
// MembershipService lease ladder distinguishes crashed receivers from
// partitioned (unreachable) ones, a confirmed-dead *source* hands the
// stream to a deterministic successor (highest committed prefix, ties by
// node id) under `failover`, and healed partitions rejoin the group with
// delta catch-up of missed slots under `rejoin`.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/membership.hpp"
#include "sim/simulator.hpp"

namespace pcm::rt {

/// Tunables of one streaming multicast group.
struct StreamConfig {
  int window_size = 8;  ///< slot-ring capacity; 1 = stop-and-wait
  int slots = 1;        ///< messages to stream through the tree
  Bytes bytes = 1024;   ///< payload bytes per slot
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  const MeshShape* shape = nullptr;  ///< required by the mesh-tuned algorithms
  /// Track acks/timeouts/epochs (required when the simulator has a fault
  /// plan; the fault-free fast path refuses to run under one).
  bool reliable = false;
  FtConfig ft;  ///< retransmission policy (reliable mode only)
  /// Keep per-slot per-position receive-completion times (slot_recv);
  /// memory is slots x group size, so leave off for long streams.
  bool record_slot_times = false;
  /// Lease-based failure detection (reliable mode only).  A zero
  /// heartbeat_period disables membership entirely — behaviour is then
  /// bit-identical to a membership-free build.
  MembershipConfig membership;
  /// On a confirmed source death, elect a successor and resume the stream
  /// (requires membership).  Without it a dead source ends the stream.
  bool failover = false;
  /// Re-admit healed (previously unreachable) receivers at the current
  /// epoch with delta catch-up of their missed slots (requires membership).
  bool rejoin = false;
  /// Called with every multicast tree the stream adopts (the initial tree
  /// and each epoch rebuild).  CLI/chaos hook this to pcmlint so
  /// Theorem-1 contention-freedom is re-checked on every re-split.
  std::function<void(const MulticastTree&)> on_reconfigure;
  /// Flight recorder for the protocol-level trace (send lifecycles, slot
  /// frontier, epoch bumps, membership verdicts), which
  /// InvariantAuditor::audit_stream replays.  Not owned; nullptr (the
  /// default) records nothing and allocates nothing.
  obs::FlightRecorder* recorder = nullptr;
};

/// Outcome of one stream execution.  All positions are indices into the
/// *original* chain (the tree over every requested destination), so
/// per-receiver accounting stays stable across epoch reconfigurations.
struct StreamResult {
  int slots = 0;        ///< requested stream length
  int window_size = 0;  ///< ring capacity the run used
  int committed = 0;    ///< slots the cumulative frontier passed (== slots
                        ///< on any run that ends; survivors define commit)
  Time makespan = 0;    ///< t0 -> last frontier advance (software time)
  Time model_slot_latency = 0;  ///< contention-free bound for one slot
  long long messages = 0;       ///< network sends posted (incl. retries)
  long long channel_conflicts = 0;  ///< head-blocked cycles across the stream
  long long flit_hops = 0;          ///< SimStats delta over the stream
  Time sim_cycles = 0;              ///< simulated cycles the stream spanned
  int epoch = 0;                ///< final epoch (0 = never reconfigured)
  int retries = 0;              ///< timeout retransmissions issued
  int stale_acks = 0;           ///< old-epoch deliveries rejected
  int duplicate_deliveries = 0;
  int max_window_occupancy = 0;  ///< peak injected-but-uncommitted slots
  int failovers = 0;             ///< source successions performed
  int rejoins = 0;               ///< healed receivers re-admitted
  int suspects = 0;              ///< suspicion episodes raised
  std::vector<NodeId> dead_nodes;  ///< sorted, unique
  /// Nodes still evicted-as-unreachable when the run ended (a rejoin
  /// removes the node from this set).  Sorted, unique.
  std::vector<NodeId> unreachable_nodes;
  /// Per original chain position: contiguous slots delivered starting at
  /// slot 0 (the "delivered prefix"); the source's entry is `slots`.
  std::vector<int> delivered_prefix;
  /// Per slot: software time the cumulative frontier passed it (-1 if the
  /// run ended before the slot committed — cannot happen today, the
  /// protocol always drains, but truncated futures may use it).
  std::vector<Time> commit_time;
  bool complete = true;  ///< every *original* receiver holds every slot
  /// Delivered (receiver, slot) pairs over all requested pairs.
  double delivered_fraction = 1.0;
  std::vector<std::vector<Time>> slot_recv;  ///< see record_slot_times
};

/// Streaming driver.  Holds a reference to the per-message runtime (which
/// supplies machine parameters and wire formats); both must outlive any
/// run() call.
class StreamRuntime {
 public:
  explicit StreamRuntime(const MulticastRuntime& rtm) : rtm_(rtm) {}

  /// Streams cfg.slots messages from `source` to `dests` on `sim`.
  /// Builds the cfg.alg tree internally (and rebuilds it over survivors on
  /// every epoch bump).  The simulator must be idle; `t0` must be >=
  /// sim.now().  Throws std::invalid_argument on a bad config and
  /// std::logic_error when a fault plan is installed without
  /// cfg.reliable.
  StreamResult run(sim::Simulator& sim, NodeId source,
                   std::span<const NodeId> dests, const StreamConfig& cfg,
                   Time t0 = 0) const;

 private:
  const MulticastRuntime& rtm_;
};

}  // namespace pcm::rt
