// Software (unicast-based) multicast runtime executed on the flit-level
// simulator.
//
// This layer models what the paper's node programs do: the source holds
// the sorted chain and the split table; every message carries the address
// sub-list its receiver becomes responsible for; a receiver spends
// t_recv(m) software cycles after the tail flit arrives, then re-enters
// the same split loop over its sub-list, issuing sends spaced t_hold(m)
// apart, each of which reaches the NI t_send(m) after the send op starts.
//
// We execute the *expanded* tree (build_chain_split_tree), which is
// provably the same set of sends the distributed loop generates
// (check_tree + unit tests enforce this), so one code path serves every
// algorithm.
#pragma once

#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "core/model.hpp"
#include "core/multicast_tree.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace pcm::rt {

struct RuntimeConfig {
  MachineParams machine = MachineParams::classic();
  /// Bytes of header per carried destination address (the "address field
  /// D" of Algorithms 3.1/4.1) and fixed per-message header.
  Bytes addr_bytes = 2;
  Bytes base_header_bytes = 8;
  bool carry_address_list = true;
  /// Concurrent send engines per node (p-port extension; the paper's
  /// machines are one-port).  Each engine issues sends t_hold apart;
  /// distinct engines overlap.  Pair with a topology built with the same
  /// number of NI ports or the extra engines just queue at the NI.  The
  /// OPT-tree DP and model bounds remain one-port.
  int send_engines = 1;
};

/// Outcome of one multicast execution.
struct McastResult {
  Time latency = 0;          ///< source start -> last destination finishes receiving
  Time model_latency = 0;    ///< contention-free model prediction for this tree
  long long channel_conflicts = 0;  ///< head-blocked cycles across all messages
  Time block_cycles = 0;            ///< same, summed per message (== conflicts)
  int messages = 0;
  std::vector<Time> recv_complete;  ///< per chain position; -1 for the source

  // --- fault-tolerant execution only (run_reliable); defaults describe a
  //     clean fault-free run ---
  int expected_dests = 0;    ///< destinations the tree was built for
  int delivered_dests = 0;   ///< destinations that finished receiving
  int retries = 0;           ///< retransmissions issued
  int repairs = 0;           ///< tree-repair re-splits performed
  int duplicate_deliveries = 0;
  /// Nodes the protocol declared dead.  A declaration is retracted if a
  /// still-in-flight attempt later delivers (a late ack proves life), so
  /// no node is ever counted both dead and delivered.
  std::vector<NodeId> dead_nodes;
  /// Participants holding the payload at the end over all k participants
  /// (source included): 1.0 on a healthy run, (k-1)/k with one dead
  /// destination, ...
  double delivered_fraction = 1.0;
  /// latency minus the contention-free model bound: the price of faults,
  /// timeouts, and repair traffic (also non-zero on contended trees).
  Time added_latency = 0;
  bool complete = true;      ///< every destination received
};

/// The retry policy of every reliable protocol (run_reliable and the
/// reliable stream): three numbers, validated in one place, the
/// ReliableSends constructor (runtime/reliable_sends.hpp).
struct FtConfig {
  /// Retransmissions per send before the receiver is declared dead.
  int max_retries = 3;
  /// Timeout = timeout_scale * (model bound) + timeout_slack, then
  /// exponential backoff in t_hold units: attempt a adds (2^a - 1) holds.
  double timeout_scale = 2.0;
  Time timeout_slack = 128;
};

class MulticastRuntime {
 public:
  explicit MulticastRuntime(RuntimeConfig cfg) : cfg_(cfg) {}

  [[nodiscard]] const RuntimeConfig& config() const { return cfg_; }

  /// Message size on the wire for a send whose receiver becomes
  /// responsible for `interval_nodes` chain nodes.
  [[nodiscard]] Bytes wire_bytes(Bytes payload, int interval_nodes) const;
  [[nodiscard]] int wire_flits(Bytes payload, int interval_nodes) const;

  /// Posts the tree sends of position `pos`, which became active at `at`:
  /// `ops` holds one next-op time per send engine, each raised to `at`;
  /// the engines take the sends in turn, each issuing t_hold apart.  Tags
  /// are tag_base + send index.  Returns the number of sends posted.
  int post_sends(sim::Simulator& sim, const MulticastTree& tree, int pos,
                 Bytes payload, Time at, std::span<Time> ops, int tag_base) const;

  /// Executes `tree` carrying `payload` bytes on a fresh pass over `sim`
  /// (the simulator must be idle).  `t0` is the source's start time,
  /// which must be >= sim.now().
  McastResult run(sim::Simulator& sim, const MulticastTree& tree, Bytes payload,
                  Time t0 = 0) const;

  /// Fault-tolerant execution of `tree` on the tracked-send core
  /// (runtime/reliable_sends.hpp): the healthy schedule is identical to
  /// run(), but every send is tracked with an ack deadline derived from
  /// the model's t_end bound (see FtConfig).  A send that times out
  /// max_retries times declares its receiver dead and the *parent
  /// re-splits the orphaned chain interval over the survivors* with the
  /// OPT split rule on the same sorted chain, so repair traffic inherits
  /// Theorem 1's contention-freedom.  Never throws on missing
  /// destinations: reports delivered_fraction, retries, repairs, and
  /// added_latency instead.  `recorder` (not owned; nullptr records
  /// nothing) receives the send lifecycle (kSendAttempt / kSendAcked, slot
  /// -1), which InvariantAuditor::audit_result replays.
  McastResult run_reliable(sim::Simulator& sim, const MulticastTree& tree,
                           Bytes payload, FtConfig ft = {}, Time t0 = 0,
                           obs::FlightRecorder* recorder = nullptr) const;

  /// Convenience: build the tree for `alg` and run it.  `shape` is
  /// required for the mesh-tuned algorithms.
  McastResult run_algorithm(sim::Simulator& sim, McastAlgorithm alg, NodeId source,
                            std::span<const NodeId> dests, Bytes payload,
                            const MeshShape* shape = nullptr) const;

  /// One multicast group of a concurrent workload.
  struct GroupRun {
    MulticastTree tree;
    Bytes payload = 0;
    Time start = 0;  ///< source start time (relative to the common origin)
  };

  /// Executes several multicasts concurrently on one network.  A node
  /// participating in more than one group serializes its software
  /// operations (sends and receives share one CPU; operations are spaced
  /// by the respective t_hold / t_recv).  Returns one McastResult per
  /// group, in input order; each group's latency is measured from its own
  /// start time and its channel_conflicts counts only its own messages'
  /// blocked cycles.
  ///
  /// Note the paper's theorems cover a *single* multicast: tuned trees
  /// stay conflict-free within each group, but distinct groups may still
  /// contend with each other (see bench_concurrent_groups).
  std::vector<McastResult> run_concurrent(sim::Simulator& sim,
                                          std::vector<GroupRun> groups) const;

 private:
  RuntimeConfig cfg_;
};

}  // namespace pcm::rt
