// Abstract switched-network topology consumed by the flit-level simulator.
//
// A topology is a set of routers, each with up to `radix()` ports.  Every
// (router, out-port) pair is a directed physical channel leading either to
// an input port of another router, to a consuming node (ejection channel),
// or nowhere (unwired edge port).  Processing nodes attach through exactly
// one injection port and one ejection port (the paper's one-port
// architecture).
//
// Routing is purely local and stateless: given the arrival port and the
// message's (src, dst), a router enumerates candidate output ports in
// preference order.  Deterministic routers return one candidate; adaptive
// BMIN up-routing returns several and the arbiter takes the first free one.
//
// The wiring (link, ejector and attach tables) is immutable, so each
// topology flattens it once, on the first wiring() call, and every
// simulator on that topology reads the same tables.  The build is lazy
// because static analysis never simulates: a pcmlint certification on a
// 64x64 mesh must not pay for a walk it never reads.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace pcm::sim {

/// Reference to one port of one router.
struct PortRef {
  int router = -1;
  int port = -1;
  [[nodiscard]] bool valid() const { return router >= 0; }
};

/// Identifier of a directed channel: router * radix + out_port.
using ChannelId = int;

/// The flattened, immutable wiring of a topology: table loads instead of
/// virtual calls on the simulator's per-flit-hop path.
struct Wiring {
  std::vector<PortRef> link;    ///< per channel id: Topology::link
  std::vector<NodeId> eject;    ///< per channel id: Topology::ejector
  std::vector<PortRef> attach;  ///< per node * ports_per_node + port
};

class Topology {
 public:
  virtual ~Topology() = default;

  /// The wiring tables, built on the first call (thread-safe: concurrent
  /// first calls build once and all see the result).  Valid for the
  /// topology's lifetime.
  [[nodiscard]] const Wiring& wiring() const;

  [[nodiscard]] virtual int num_routers() const = 0;
  [[nodiscard]] virtual int radix() const = 0;
  [[nodiscard]] virtual int num_nodes() const = 0;

  /// Downstream input port of channel (router, out_port); invalid if the
  /// channel is unwired or is an ejection channel.
  [[nodiscard]] virtual PortRef link(int router, int out_port) const = 0;

  /// Input port where node `n` injects.
  [[nodiscard]] virtual PortRef node_attach(NodeId n) const = 0;

  /// Number of injection/ejection channel pairs per node (the paper's
  /// networks are one-port; topologies may override for p-port NIs).
  [[nodiscard]] virtual int ports_per_node() const { return 1; }

  /// Injection attach point for NI port `p` in [0, ports_per_node());
  /// port 0 must equal node_attach(n).
  [[nodiscard]] virtual PortRef node_attach_port(NodeId n, int p) const {
    (void)p;
    return node_attach(n);
  }

  /// Node consuming channel (router, out_port), or kInvalidNode.
  [[nodiscard]] virtual NodeId ejector(int router, int out_port) const = 0;

  /// Appends candidate output ports (preference order) for a message from
  /// `src` to `dst` arriving at `router` on `in_port` (in_port is the
  /// injection port when the message enters the network here).
  virtual void route(int router, int in_port, NodeId src, NodeId dst,
                     std::vector<int>& candidates) const = 0;

  /// Human-readable channel name for diagnostics.
  [[nodiscard]] virtual std::string channel_name(int router, int out_port) const;

  /// Appends the channels of the deterministic route (first candidate at
  /// every hop, ejection channel included) from src to dst — the path the
  /// simulator takes on an uncontended run — and returns whether it ejects
  /// at dst.  It is the static analyzer's hot loop and the event engine's
  /// whole-worm admission path (one call per admitted worm), so the walk
  /// must be the same from every attach port of src.  The base
  /// implementation walks route() hop by hop and never throws: it stops,
  /// returning false, at a missing candidate, an unwired channel, an
  /// ejection at another node or the hop limit (trace_path names the
  /// defect).  Topologies with closed-form routing (mesh dimension-order,
  /// BMIN turnaround, butterfly destination tag) override it to skip the
  /// per-hop virtual dispatch; overrides must agree with the generic walk
  /// (tests enforce this).  Appends nothing when src == dst.
  virtual bool append_path(NodeId src, NodeId dst, std::vector<ChannelId>& out) const;

  /// Dally–Seitz channel numbering: a closed-form rank >= 0 under which
  /// every deterministic route (append_path) visits strictly ascending
  /// ranks, or -1 for "no rank" (the base class).  A set of strictly
  /// ascending paths cannot close a channel-wait cycle, so the deadlock
  /// check certifies such a set without building its dependency graph.
  /// The rank is only that certificate: a missing or wrong rank can cost
  /// the check its fast path, never change its verdict.
  [[nodiscard]] virtual int channel_rank(ChannelId c) const {
    (void)c;
    return -1;
  }

  [[nodiscard]] ChannelId channel_id(int router, int out_port) const {
    return router * radix() + out_port;
  }
  [[nodiscard]] int num_channels() const { return num_routers() * radix(); }

 private:
  mutable std::once_flag wiring_once_;
  mutable Wiring wiring_;
};

/// Walks the deterministic route (always the first candidate) from src to
/// dst and returns the traversed channel ids, ejection channel included.
/// Throws std::runtime_error where the base append_path stops short:
/// routing loops (> 4 * num_routers hops), a missing candidate, an
/// unwired channel or an ejection at another node.
std::vector<ChannelId> trace_path(const Topology& topo, NodeId src, NodeId dst);

/// Structural validation: every wired channel's reverse lookup is
/// consistent, every node has an attach and an ejector, and every
/// src->dst pair routes to dst.  Returns "" if sound, else a diagnostic.
/// Intended for tests (O(N^2) pairs when exhaustive=true, else sampled).
std::string check_topology(const Topology& topo, bool exhaustive);

}  // namespace pcm::sim
