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

namespace {

/// How a first-candidate walk ended; every end but kEjected is a routing
/// defect trace_path reports.
enum class WalkEnd { kEjected, kLoop, kNoRoute, kWrongNode, kUnwired };

struct Walk {
  WalkEnd end;
  PortRef at;  ///< input port of the last router visited
  int q = -1;  ///< out-port taken there (-1: none)
};

/// Appends the deterministic route (first candidate at every hop) from src
/// to dst to `out`, the channel that stopped it included.
Walk walk_route(const Topology& topo, NodeId src, NodeId dst,
                std::vector<ChannelId>& out) {
  std::vector<int> candidates;
  Walk w{WalkEnd::kEjected, topo.node_attach(src)};
  const std::size_t base = out.size();
  const auto hop_limit = static_cast<std::size_t>(4 * topo.num_routers() + 8);
  while (true) {
    if (out.size() - base > hop_limit) return {WalkEnd::kLoop, w.at};
    candidates.clear();
    topo.route(w.at.router, w.at.port, src, dst, candidates);
    if (candidates.empty()) return {WalkEnd::kNoRoute, w.at};
    w.q = candidates.front();
    out.push_back(topo.channel_id(w.at.router, w.q));
    const NodeId ej = topo.ejector(w.at.router, w.q);
    if (ej == dst) return w;
    if (ej != kInvalidNode) return {WalkEnd::kWrongNode, w.at, w.q};
    const PortRef next = topo.link(w.at.router, w.q);
    if (!next.valid()) return {WalkEnd::kUnwired, w.at, w.q};
    w.at = next;
  }
}

}  // namespace

bool Topology::append_path(NodeId src, NodeId dst, std::vector<ChannelId>& out) const {
  return src == dst || walk_route(*this, src, dst, out).end == WalkEnd::kEjected;
}

std::vector<ChannelId> trace_path(const Topology& topo, NodeId src, NodeId dst) {
  if (src == dst) return {};
  std::vector<ChannelId> path;
  const Walk w = walk_route(topo, src, dst, path);
  switch (w.end) {
    case WalkEnd::kEjected:
      return path;
    case WalkEnd::kLoop:
      throw std::runtime_error("trace_path: routing loop from " + std::to_string(src) +
                               " to " + std::to_string(dst));
    case WalkEnd::kNoRoute:
      throw std::runtime_error("trace_path: no route at " +
                               topo.channel_name(w.at.router, w.at.port));
    case WalkEnd::kWrongNode:
      throw std::runtime_error("trace_path: ejected at wrong node");
    case WalkEnd::kUnwired:
      throw std::runtime_error("trace_path: routed onto unwired channel " +
                               topo.channel_name(w.at.router, w.q));
  }
  return path;
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
