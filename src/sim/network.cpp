#include <sstream>
#include <stdexcept>

#include "sim/topology.hpp"

namespace pcm::sim {

std::string Topology::channel_name(int router, int out_port) const {
  std::ostringstream os;
  os << "r" << router << ".p" << out_port;
  return os.str();
}

const Wiring& Topology::wiring() const {
  std::call_once(wiring_once_, [this] {
    const int channels = num_channels();
    wiring_.link.resize(static_cast<std::size_t>(channels));
    wiring_.eject.resize(static_cast<std::size_t>(channels));
    for (int r = 0; r < num_routers(); ++r) {
      for (int q = 0; q < radix(); ++q) {
        wiring_.link[static_cast<std::size_t>(channel_id(r, q))] = link(r, q);
        wiring_.eject[static_cast<std::size_t>(channel_id(r, q))] = ejector(r, q);
      }
    }
    const int ports = ports_per_node();
    wiring_.attach.resize(static_cast<std::size_t>(num_nodes()) *
                          static_cast<std::size_t>(ports));
    for (NodeId n = 0; n < num_nodes(); ++n)
      for (int p = 0; p < ports; ++p)
        wiring_.attach[static_cast<std::size_t>(n) * ports + p] =
            node_attach_port(n, p);
  });
  return wiring_;
}

void Topology::append_path(NodeId src, NodeId dst, std::vector<ChannelId>& out) const {
  const std::vector<ChannelId> path = trace_path(*this, src, dst);
  out.insert(out.end(), path.begin(), path.end());
}

std::vector<ChannelId> trace_path(const Topology& topo, NodeId src, NodeId dst) {
  if (src == dst) return {};
  std::vector<ChannelId> path;
  std::vector<int> candidates;
  PortRef cur = topo.node_attach(src);
  const int hop_limit = 4 * topo.num_routers() + 8;
  while (true) {
    if (static_cast<int>(path.size()) > hop_limit)
      throw std::runtime_error("trace_path: routing loop from " + std::to_string(src) +
                               " to " + std::to_string(dst));
    candidates.clear();
    topo.route(cur.router, cur.port, src, dst, candidates);
    if (candidates.empty())
      throw std::runtime_error("trace_path: no route at " +
                               topo.channel_name(cur.router, cur.port));
    const int q = candidates.front();
    path.push_back(topo.channel_id(cur.router, q));
    if (topo.ejector(cur.router, q) == dst) return path;
    if (topo.ejector(cur.router, q) != kInvalidNode)
      throw std::runtime_error("trace_path: ejected at wrong node");
    const PortRef next = topo.link(cur.router, q);
    if (!next.valid())
      throw std::runtime_error("trace_path: routed onto unwired channel " +
                               topo.channel_name(cur.router, q));
    cur = next;
  }
}

std::string check_topology(const Topology& topo, bool exhaustive) {
  std::ostringstream err;
  // Wiring: every wired channel lands on a real input; ejection channels
  // name a real node; every node has an attach point.
  for (int r = 0; r < topo.num_routers(); ++r) {
    for (int q = 0; q < topo.radix(); ++q) {
      const PortRef d = topo.link(r, q);
      const NodeId ej = topo.ejector(r, q);
      if (d.valid() && ej != kInvalidNode)
        err << topo.channel_name(r, q) << " is both wired and an ejector; ";
      if (d.valid() && (d.router < 0 || d.router >= topo.num_routers() ||
                        d.port < 0 || d.port >= topo.radix()))
        err << topo.channel_name(r, q) << " links out of range; ";
      if (ej != kInvalidNode && (ej < 0 || ej >= topo.num_nodes()))
        err << topo.channel_name(r, q) << " ejects to bad node; ";
    }
  }
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    const PortRef a = topo.node_attach(n);
    if (!a.valid() || a.router >= topo.num_routers() || a.port >= topo.radix())
      err << "node " << n << " has invalid attach; ";
  }
  if (!err.str().empty()) return err.str();

  // Routability: every (sampled) pair must reach its destination.
  const int n = topo.num_nodes();
  const int s_step = exhaustive ? 1 : 3;
  const int d_step = exhaustive ? 1 : std::max(1, n / 7);
  for (NodeId s = 0; s < n; s += s_step) {
    for (NodeId d = 0; d < n; d += d_step) {
      if (d == s) continue;
      try {
        (void)trace_path(topo, s, d);
      } catch (const std::exception& e) {
        err << e.what() << "; ";
        return err.str();
      }
    }
  }
  return err.str();
}

}  // namespace pcm::sim
