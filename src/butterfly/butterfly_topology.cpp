#include "butterfly/butterfly_topology.hpp"

#include <sstream>
#include <stdexcept>

#include "core/address.hpp"

namespace pcm::butterfly {

ButterflyTopology::ButterflyTopology(int num_nodes) : num_nodes_(num_nodes) {
  if (num_nodes < 4 || (num_nodes & (num_nodes - 1)) != 0)
    throw std::invalid_argument("ButterflyTopology: num_nodes must be a power of two >= 4");
  stages_ = ceil_log2(num_nodes);
  switches_per_stage_ = num_nodes / 2;
}

sim::PortRef ButterflyTopology::link(int router, int out_port) const {
  const int i = stage_of(router);
  if (i == stages_ - 1) return {};  // final stage: ejection channels
  // Out-wire of this stage, shuffled into the next stage's in-wire.
  const int wire = 2 * index_of(router) + out_port;
  const int next = shuffle(wire);
  return sim::PortRef{router_at(i + 1, next >> 1), next & 1};
}

sim::PortRef ButterflyTopology::node_attach(NodeId n) const {
  // Sources pass through the shuffle before stage 0 (Omega convention).
  const int wire = shuffle(static_cast<int>(n));
  return sim::PortRef{router_at(0, wire >> 1), wire & 1};
}

NodeId ButterflyTopology::ejector(int router, int out_port) const {
  if (stage_of(router) != stages_ - 1) return kInvalidNode;
  return static_cast<NodeId>(2 * index_of(router) + out_port);
}

void ButterflyTopology::route(int router, int /*in_port*/, NodeId /*src*/, NodeId dst,
                              std::vector<int>& candidates) const {
  // Destination-tag self-routing: stage i consumes bit q-1-i of dst.
  const int i = stage_of(router);
  candidates.push_back((dst >> (stages_ - 1 - i)) & 1);
}

bool ButterflyTopology::append_path(NodeId src, NodeId dst,
                                    std::vector<sim::ChannelId>& out) const {
  if (src == dst) return true;
  int wire = shuffle(static_cast<int>(src));  // stage 0's in-wire
  for (int i = 0; i < stages_; ++i) {
    const int q = (dst >> (stages_ - 1 - i)) & 1;
    const int j = wire >> 1;
    out.push_back(channel_id(router_at(i, j), q));
    wire = shuffle(2 * j + q);
  }
  return true;
}

std::string ButterflyTopology::channel_name(int router, int out_port) const {
  std::ostringstream os;
  os << "bfly(s" << stage_of(router) << ",#" << index_of(router) << ").o" << out_port;
  return os.str();
}

std::unique_ptr<ButterflyTopology> make_butterfly(int num_nodes) {
  return std::make_unique<ButterflyTopology>(num_nodes);
}

}  // namespace pcm::butterfly
