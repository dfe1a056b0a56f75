// n-dimensional wormhole mesh with dimension-ordered (XY) routing — the
// paper's 16x16 network (Intel Paragon class), and, with every side equal
// to 2, a hypercube with e-cube routing.
//
// Port layout per router: for dimension d, port 2d goes toward decreasing
// coordinate ("d-"), port 2d+1 toward increasing ("d+"); the final port
// (2 * ndims) is the local injection/ejection port (one-port
// architecture).  Dimension-ordered routing corrects dimension 0 first,
// which on a 2-D mesh is exactly XY routing; it is minimal and
// deadlock-free.
#pragma once

#include <memory>

#include "core/address.hpp"
#include "sim/topology.hpp"

namespace pcm::mesh {

/// Which dimension dimension-ordered routing corrects first.  The
/// dimension-ordered chain (<d) compares the highest dimension first, so
/// contention-freedom of the chain-split schedules requires routing to
/// resolve the *highest* dimension first as well (the chain's most
/// significant key and the routing's first-corrected dimension must
/// agree).  On a 2-D mesh this is conventionally called XY routing with
/// X = dimension 1 (the high digit) and Y = dimension 0.
enum class RouteOrder { kHighestFirst, kLowestFirst };

class MeshTopology final : public sim::Topology {
 public:
  /// `nports` injection/ejection channel pairs per node (1 = the paper's
  /// one-port architecture).  Ejection channels are pooled: a message
  /// ejects through any free local channel.
  explicit MeshTopology(MeshShape shape,
                        RouteOrder order = RouteOrder::kHighestFirst,
                        int nports = 1);

  [[nodiscard]] const MeshShape& shape() const { return shape_; }

  [[nodiscard]] int num_routers() const override { return shape_.num_nodes(); }
  [[nodiscard]] int radix() const override { return 2 * shape_.ndims() + nports_; }
  [[nodiscard]] int num_nodes() const override { return shape_.num_nodes(); }
  [[nodiscard]] int local_port() const { return 2 * shape_.ndims(); }
  [[nodiscard]] int ports_per_node() const override { return nports_; }

  [[nodiscard]] sim::PortRef link(int router, int out_port) const override;
  [[nodiscard]] sim::PortRef node_attach(NodeId n) const override;
  [[nodiscard]] sim::PortRef node_attach_port(NodeId n, int p) const override;
  [[nodiscard]] NodeId ejector(int router, int out_port) const override;
  void route(int router, int in_port, NodeId src, NodeId dst,
             std::vector<int>& candidates) const override;
  [[nodiscard]] std::string channel_name(int router, int out_port) const override;

  /// Closed-form dimension-ordered path enumeration (no per-hop route()
  /// dispatch); ends with ejection channel local0, the first candidate.
  bool append_path(NodeId src, NodeId dst,
                   std::vector<sim::ChannelId>& out) const override;

  /// Dimension-order rank: the dimension's position in the route order
  /// times the largest side, plus the coordinate along the travel
  /// direction (x on a d+ channel, side-1-x on a d- channel); ejection
  /// channels rank highest.  A route crosses its dimensions in route
  /// order and moves one way along each, so its ranks ascend.
  [[nodiscard]] int channel_rank(sim::ChannelId c) const override;

  /// The XY-routing path length (== Manhattan distance).
  [[nodiscard]] int path_hops(NodeId src, NodeId dst) const {
    return shape_.distance(src, dst);
  }

  [[nodiscard]] RouteOrder route_order() const { return order_; }

 private:
  MeshShape shape_;
  RouteOrder order_;
  int nports_;
  int max_side_;
};

/// Convenience factory for the paper's square 2-D meshes.
std::unique_ptr<MeshTopology> make_mesh2d(int side);

}  // namespace pcm::mesh
