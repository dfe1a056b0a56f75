#include "bmin/bmin_topology.hpp"

#include <sstream>
#include <stdexcept>

#include "core/address.hpp"

namespace pcm::bmin {
namespace {

constexpr int bit(int v, int i) { return (v >> i) & 1; }
constexpr int with_bit(int v, int i, int b) { return (v & ~(1 << i)) | (b << i); }

// Up-port bit for UpPolicy::kRandomHash: deterministic per
// (message, switch) so repeated runs agree and trace_path / append_path
// match the simulator.
int hash_up_bit(NodeId src, NodeId dst, int stage, int index) {
  unsigned h = static_cast<unsigned>(src * 2654435761u) ^
               static_cast<unsigned>(dst * 40503u) ^
               static_cast<unsigned>((stage << 8) + index) * 2246822519u;
  h ^= h >> 13;
  return static_cast<int>(h & 1);
}

}  // namespace

BminTopology::BminTopology(int num_nodes, UpPolicy policy)
    : num_nodes_(num_nodes), policy_(policy) {
  if (num_nodes < 4 || (num_nodes & (num_nodes - 1)) != 0)
    throw std::invalid_argument("BminTopology: num_nodes must be a power of two >= 4");
  stages_ = ceil_log2(num_nodes);
  switches_per_stage_ = num_nodes / 2;
}

sim::PortRef BminTopology::link(int router, int out_port) const {
  const int i = stage_of(router);
  const int j = index_of(router);
  if (out_port >= 2) {  // up
    if (i == stages_ - 1) return {};  // top stage: up ports unwired
    const int u = out_port - 2;
    return sim::PortRef{router_at(i + 1, with_bit(j, i, u)), bit(j, i)};
  }
  // down
  if (i == 0) return {};  // stage 0 down channels are ejection channels
  const int c = out_port;
  return sim::PortRef{router_at(i - 1, with_bit(j, i - 1, c)), 2 + bit(j, i - 1)};
}

sim::PortRef BminTopology::node_attach(NodeId n) const {
  return sim::PortRef{router_at(0, n >> 1), n & 1};
}

NodeId BminTopology::ejector(int router, int out_port) const {
  if (stage_of(router) != 0 || out_port >= 2) return kInvalidNode;
  return static_cast<NodeId>(2 * index_of(router) + out_port);
}

void BminTopology::route(int router, int in_port, NodeId src, NodeId dst,
                         std::vector<int>& candidates) const {
  const int i = stage_of(router);
  const int j = index_of(router);
  const bool descending = in_port >= 2;  // arrived from a higher stage
  const bool can_turn = (j >> i) == (dst >> (i + 1));
  if (descending || can_turn) {
    candidates.push_back(bit(dst, i));
    return;
  }
  switch (policy_) {
    case UpPolicy::kSourceAddress:
      candidates.push_back(2 + bit(src, i));
      return;
    case UpPolicy::kDestAddress:
      candidates.push_back(2 + bit(dst, i));
      return;
    case UpPolicy::kAdaptive:
      candidates.push_back(2 + bit(src, i));
      candidates.push_back(2 + (1 - bit(src, i)));
      return;
    case UpPolicy::kRandomHash:
      candidates.push_back(2 + hash_up_bit(src, dst, i, j));
      return;
  }
  throw std::logic_error("BminTopology::route: unknown up policy");
}

bool BminTopology::append_path(NodeId src, NodeId dst,
                               std::vector<sim::ChannelId>& out) const {
  if (src == dst) return true;
  // Climb along the first up candidate of the policy (adaptive routing's
  // first preference is the source-address port) until the switch covers
  // dst, then descend selecting bit_i(dst); the stage-0 down port is the
  // ejection channel at dst.
  int i = 0;
  int j = src >> 1;
  while ((j >> i) != (dst >> (i + 1))) {
    int u = 0;
    switch (policy_) {
      case UpPolicy::kSourceAddress:
      case UpPolicy::kAdaptive:
        u = bit(src, i);
        break;
      case UpPolicy::kDestAddress:
        u = bit(dst, i);
        break;
      case UpPolicy::kRandomHash:
        u = hash_up_bit(src, dst, i, j);
        break;
    }
    out.push_back(channel_id(router_at(i, j), 2 + u));
    j = with_bit(j, i, u);
    ++i;
  }
  while (i > 0) {
    const int c = bit(dst, i);
    out.push_back(channel_id(router_at(i, j), c));
    j = with_bit(j, i - 1, c);
    --i;
  }
  out.push_back(channel_id(router_at(0, j), bit(dst, 0)));
  return true;
}

std::string BminTopology::channel_name(int router, int out_port) const {
  std::ostringstream os;
  os << "bmin(s" << stage_of(router) << ",#" << index_of(router) << ")."
     << (out_port >= 2 ? "up" : "dn") << (out_port >= 2 ? out_port - 2 : out_port);
  return os.str();
}

int BminTopology::path_hops(NodeId src, NodeId dst) const {
  if (src == dst) return 0;
  return 2 * msb_diff(src, dst) + 1;
}

std::unique_ptr<BminTopology> make_bmin(int num_nodes, UpPolicy policy) {
  return std::make_unique<BminTopology>(num_nodes, policy);
}

}  // namespace pcm::bmin
