#include "analysis/viz.hpp"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace pcm::analysis {

std::string tree_ascii(const MulticastTree& tree, const TwoParam* tp) {
  std::vector<Time> finish;
  if (tp != nullptr) finish = model_finish_times(tree, *tp);
  std::ostringstream os;
  std::function<void(int, int)> visit = [&](int pos, int depth) {
    os << std::string(static_cast<size_t>(2 * depth), ' ') << "node "
       << tree.node(pos);
    if (pos == tree.chain.source_pos) os << " (source)";
    if (tp != nullptr && pos != tree.chain.source_pos)
      os << " @" << finish[pos];
    os << "\n";
    for (int idx : tree.out[pos]) visit(tree.sends[idx].receiver_pos, depth + 1);
  };
  visit(tree.chain.source_pos, 0);
  return os.str();
}

std::string tree_dot(const MulticastTree& tree, const std::string& graph_name) {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n"
     << "  rankdir=TB;\n"
     << "  node [shape=circle, fontsize=10];\n"
     << "  n" << tree.node(tree.chain.source_pos)
     << " [style=filled, fillcolor=lightblue, label=\""
     << tree.node(tree.chain.source_pos) << "\\nsrc\"];\n";
  for (const SendEvent& ev : tree.sends) {
    os << "  n" << tree.node(ev.sender_pos) << " -> n" << tree.node(ev.receiver_pos)
       << " [label=\"" << ev.seq << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string mesh_heatmap(const mesh::MeshTopology& topo,
                         std::span<const obs::TraceEvent> events, Time makespan) {
  const MeshShape& shape = topo.shape();
  if (shape.ndims() != 2)
    throw std::invalid_argument("mesh_heatmap: requires a 2-D mesh");
  if (makespan <= 0) throw std::invalid_argument("mesh_heatmap: makespan must be > 0");

  // Per channel: total held cycles; per router: its busiest output's.
  std::vector<Time> held(topo.num_channels(), 0);
  for (const obs::TraceEvent& ev : events)
    if (ev.event_kind() == obs::EventKind::kRelease)
      held[topo.channel_id(ev.a, ev.b)] += ev.d;
  std::vector<Time> busy(topo.num_routers(), 0);
  for (sim::ChannelId c = 0; c < topo.num_channels(); ++c)
    busy[c / topo.radix()] = std::max(busy[c / topo.radix()], held[c]);

  std::ostringstream os;
  os << "channel utilization (0-9, per router's busiest output)\n";
  for (int y = shape.dim(1) - 1; y >= 0; --y) {
    for (int x = 0; x < shape.dim(0); ++x) {
      const NodeId r = shape.node_at({x, y});
      const double frac =
          std::min(1.0, static_cast<double>(busy[r]) / static_cast<double>(makespan));
      const int level = static_cast<int>(frac * 9.0 + 0.5);
      os << (busy[r] == 0 ? '.' : static_cast<char>('0' + level));
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace pcm::analysis
