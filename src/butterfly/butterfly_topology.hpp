// Unidirectional multistage interconnection network (Omega/butterfly) of
// 2x2 switches — the network class the paper's conclusion singles out as
// *not* partitionable into contention-free clusters ("In some networks,
// such as a butterfly unidirectional MIN, this partitioning may not be
// possible [4]").
//
// For n = 2^q nodes there are q stages of n/2 switches.  Every message
// traverses all q stages: node a passes through the perfect shuffle into
// stage 0, each stage-i switch self-routes on destination bit q-1-i, and
// the stage q-1 outputs eject to the nodes.  Every (src, dst) pair has
// exactly one path, so concurrent messages that share a channel *must*
// contend — the best software multicast can do is temporal ordering (see
// temporal_order.hpp).
#pragma once

#include <memory>

#include "sim/topology.hpp"

namespace pcm::butterfly {

class ButterflyTopology final : public sim::Topology {
 public:
  /// `num_nodes` must be a power of two >= 4.
  explicit ButterflyTopology(int num_nodes);

  [[nodiscard]] int stages() const { return stages_; }

  [[nodiscard]] int num_routers() const override { return stages_ * switches_per_stage_; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return num_nodes_; }

  [[nodiscard]] sim::PortRef link(int router, int out_port) const override;
  [[nodiscard]] sim::PortRef node_attach(NodeId n) const override;
  [[nodiscard]] NodeId ejector(int router, int out_port) const override;
  void route(int router, int in_port, NodeId src, NodeId dst,
             std::vector<int>& candidates) const override;
  [[nodiscard]] std::string channel_name(int router, int out_port) const override;

  /// Closed-form destination-tag path (no per-hop route() dispatch): the
  /// stage-i switch on the shuffled wire takes out-port bit q-1-i of dst,
  /// and the last stage's out-port is the ejection channel at dst.
  bool append_path(NodeId src, NodeId dst,
                   std::vector<sim::ChannelId>& out) const override;

  /// The stage: every route takes one channel per stage, in stage order.
  [[nodiscard]] int channel_rank(sim::ChannelId c) const override {
    return stage_of(c / radix());
  }

  /// Every path crosses all stages plus the ejection channel.
  [[nodiscard]] int path_hops(NodeId, NodeId) const { return stages_; }

  [[nodiscard]] int stage_of(int router) const { return router / switches_per_stage_; }
  [[nodiscard]] int index_of(int router) const { return router % switches_per_stage_; }
  [[nodiscard]] int router_at(int stage, int index) const {
    return stage * switches_per_stage_ + index;
  }

  /// Perfect shuffle on q-bit wire addresses (rotate left one bit).
  [[nodiscard]] int shuffle(int wire) const {
    return ((wire << 1) | (wire >> (stages_ - 1))) & (num_nodes_ - 1);
  }

 private:
  int num_nodes_;
  int stages_;
  int switches_per_stage_;
};

std::unique_ptr<ButterflyTopology> make_butterfly(int num_nodes);

}  // namespace pcm::butterfly
