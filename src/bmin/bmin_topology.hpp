// Bidirectional multistage interconnection network (BMIN) of 2x2
// switches with turnaround routing — the paper's 128-node network
// (IBM SP class).
//
// For n = 2^q nodes there are q stages of n/2 switches.  Each switch has
// two "down" ports (0, 1: toward the nodes) and two "up" ports (2, 3:
// toward higher stages).  The butterfly wiring used here is
//
//     up port u of switch (stage i, index j)
//       <-->  down port bit_i(j) of switch (stage i+1, j with bit i := u)
//
// which yields classic turnaround routing: a message from a to b climbs
// until it reaches stage t = msb_diff(a, b) — the first stage whose
// switch can reach b going down, checkable locally as
// (j >> i) == (b >> (i+1)) — then descends, selecting down port
// bit_i(b) at each stage i, and finally ejects at port bit_0(b).
//
// Up-routing is a free choice (this is where a BMIN has "more
// communication paths between any pair of nodes than the mesh", Sec. 5);
// the policy is configurable:
//   * kSourceAddress  - up port = bit_i(source): deterministic, and the
//     choice under which U-min / OPT-min schedules are contention-free;
//   * kDestAddress    - up port = bit_i(destination);
//   * kAdaptive       - prefer the source-address port but take the other
//     one when it is busy (models adaptive turnaround hardware);
//   * kRandomHash     - pseudo-random but per-message deterministic.
#pragma once

#include <memory>

#include "sim/topology.hpp"

namespace pcm::bmin {

enum class UpPolicy { kSourceAddress, kDestAddress, kAdaptive, kRandomHash };

class BminTopology final : public sim::Topology {
 public:
  /// `num_nodes` must be a power of two >= 4.
  explicit BminTopology(int num_nodes, UpPolicy policy = UpPolicy::kSourceAddress);

  [[nodiscard]] int stages() const { return stages_; }
  [[nodiscard]] UpPolicy up_policy() const { return policy_; }

  [[nodiscard]] int num_routers() const override { return stages_ * switches_per_stage_; }
  [[nodiscard]] int radix() const override { return 4; }
  [[nodiscard]] int num_nodes() const override { return num_nodes_; }

  [[nodiscard]] sim::PortRef link(int router, int out_port) const override;
  [[nodiscard]] sim::PortRef node_attach(NodeId n) const override;
  [[nodiscard]] NodeId ejector(int router, int out_port) const override;
  void route(int router, int in_port, NodeId src, NodeId dst,
             std::vector<int>& candidates) const override;
  [[nodiscard]] std::string channel_name(int router, int out_port) const override;

  /// Closed-form turnaround path enumeration (no per-hop route()
  /// dispatch); follows the first up candidate of the policy and ends
  /// with the stage-0 ejection channel at dst.
  bool append_path(NodeId src, NodeId dst,
                   std::vector<sim::ChannelId>& out) const override;

  /// Turnaround rank: an up channel at stage s ranks s, a down channel
  /// 2 * stages - s.  A route climbs stages 0..t-1, then descends stages
  /// t..0 with t < stages, so its ranks ascend under every up policy.
  [[nodiscard]] int channel_rank(sim::ChannelId c) const override {
    const int s = stage_of(c / radix());
    return c % radix() >= 2 ? s : 2 * stages_ - s;
  }

  /// Channel count of the (deterministic) turnaround path: 2t + 1 where
  /// t = msb_diff(src, dst).
  [[nodiscard]] int path_hops(NodeId src, NodeId dst) const;

  [[nodiscard]] int stage_of(int router) const { return router / switches_per_stage_; }
  [[nodiscard]] int index_of(int router) const { return router % switches_per_stage_; }
  [[nodiscard]] int router_at(int stage, int index) const {
    return stage * switches_per_stage_ + index;
  }

 private:
  int num_nodes_;
  int stages_;
  int switches_per_stage_;
  UpPolicy policy_;
};

std::unique_ptr<BminTopology> make_bmin(int num_nodes,
                                        UpPolicy policy = UpPolicy::kSourceAddress);

}  // namespace pcm::bmin
