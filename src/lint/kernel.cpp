// The window kernel (kernel.hpp): per-send placement, the delivery queue,
// the offline overlap sweep and the channel-dependency cycle search.
#include "lint/kernel.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace pcm::lint {

void validate_lint_config(const sim::SimConfig& sim_cfg, const char* who) {
  if (sim_cfg.router_delay < 1)
    throw std::invalid_argument(
        std::string(who) +
        ": router_delay must be >= 1 (at 0 the simulator's sub-cycle sweep "
        "order decides channel hand-offs)");
  if (sim_cfg.fifo_capacity < sim_cfg.router_delay + 1)
    throw std::invalid_argument(
        std::string(who) +
        ": fifo_capacity must be >= router_delay + 1 for a bubble-free "
        "wormhole pipeline");
}

namespace kernel {

std::vector<SendPlan> plan_sends(const MulticastTree& tree,
                                 const sim::Topology& topo,
                                 const rt::RuntimeConfig& cfg, Bytes payload) {
  const MachineParams& mp = cfg.machine;
  const rt::MulticastRuntime runtime(cfg);
  std::vector<SendPlan> plan(tree.sends.size());
  for (std::size_t idx = 0; idx < plan.size(); ++idx) {
    const SendEvent& ev = tree.sends[idx];
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    const Bytes wire = runtime.wire_bytes(payload, interval);
    SendPlan& p = plan[idx];
    p.receiver_pos = ev.receiver_pos;
    p.flits = runtime.wire_flits(payload, interval);
    p.t_send = mp.t_send(wire);
    p.t_hold = mp.t_hold(wire);
    p.t_recv = mp.t_recv(wire);
    topo.append_path(tree.node(ev.sender_pos), tree.node(ev.receiver_pos),
                     p.path);
  }
  return plan;
}

WindowKernel::WindowKernel(int nodes, int engines, int ni_ports,
                           Time router_delay)
    : engines_(engines),
      ports_(ni_ports),
      rd_(router_delay),
      engine_(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(engines), 0),
      ni_(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(ni_ports), 0) {}

std::span<const Placement> WindowKernel::activate(int tree, int node, Time at,
                                                  std::span<const int> out,
                                                  std::span<const SendPlan> plan) {
  const std::span<Time> ops(&engine(node, 0), static_cast<std::size_t>(engines_));
  for (Time& t : ops) t = std::max(t, at);
  batch_.clear();
  std::size_t e = 0;
  for (const int idx : out) {
    const SendPlan& p = plan[static_cast<std::size_t>(idx)];
    Placement& s = batch_.emplace_back();
    s.send = idx;
    s.op_start = ops[e];
    s.ready = s.op_start + p.t_send;
    ops[e] += p.t_hold;
    e = (e + 1) % ops.size();
  }
  // NI order is (ready, out index).  With one engine the batch is already
  // in that order; checking first spares stable_sort's buffer allocation.
  auto by_ready = [](const Placement& a, const Placement& b) {
    return a.ready < b.ready;
  };
  if (!std::is_sorted(batch_.begin(), batch_.end(), by_ready))
    std::stable_sort(batch_.begin(), batch_.end(), by_ready);
  const auto ports = ni_.begin() + static_cast<std::ptrdiff_t>(node) * ports_;
  for (Placement& s : batch_) {
    const SendPlan& p = plan[static_cast<std::size_t>(s.send)];
    const auto port = std::min_element(ports, ports + ports_);
    s.inject_start = std::max(s.ready, *port);
    *port = s.inject_start + p.flits;
    s.delivered =
        reserve_time(s.inject_start, p.path.size() - 1, rd_) + p.flits - 1;
    queue_.push_back(Delivery{s.delivered, p.path.back(), tree, s.send});
    std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  }
  return batch_;
}

Delivery WindowKernel::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  const Delivery d = queue_.back();
  queue_.pop_back();
  return d;
}

void sweep_holds(std::span<const Hold> holds, int max_diagnostics,
                 ForestReport& rep) {
  // (channel, hold index), grouped by channel.
  std::vector<std::pair<sim::ChannelId, std::uint32_t>> order;
  order.reserve(holds.size());
  for (std::uint32_t i = 0; i < holds.size(); ++i) order.emplace_back(holds[i].ch, i);
  radix_sort(order, [](const auto& o) { return o.first; });
  auto by_begin = [&](const auto& a, const auto& b) {
    const Hold& x = holds[a.second];
    const Hold& y = holds[b.second];
    return std::tie(x.begin, x.tree, x.send) < std::tie(y.begin, y.tree, y.send);
  };

  std::vector<LintDiagnostic> contention;
  constexpr std::size_t kRawPairCap = 4096;  // verdict stays exact; listing capped
  for (std::size_t lo = 0; lo < order.size();) {
    const sim::ChannelId ch = order[lo].first;
    std::size_t hi = lo;
    while (hi < order.size() && order[hi].first == ch) ++hi;
    rep.channels_used++;
    rep.max_channel_windows =
        std::max(rep.max_channel_windows, static_cast<int>(hi - lo));
    // Past the cap only the counters above are still needed.
    if (hi - lo > 1 && contention.size() < kRawPairCap) {
      const auto run = std::span(order).subspan(lo, hi - lo);
      std::sort(run.begin(), run.end(), by_begin);
      for (std::size_t j = 0; j < run.size() && contention.size() < kRawPairCap; ++j) {
        const Hold& a = holds[run[j].second];
        for (std::size_t k = j + 1; k < run.size(); ++k) {
          const Hold& b = holds[run[k].second];
          if (b.begin >= a.end) break;
          rep.contention_free = false;
          if (contention.size() >= kRawPairCap) break;
          LintDiagnostic& d = contention.emplace_back();
          d.kind = DiagKind::kContention;
          d.tree_a = a.tree;  // reserves first (ties: lower indices)
          d.send_a = a.send;
          d.tree_b = b.tree;
          d.send_b = b.send;
          d.channel = ch;
          d.overlap_begin = b.begin;
          d.overlap_end = std::min(a.end, b.end);
        }
      }
    }
    lo = hi;
  }

  // One finding per send pair, keeping its earliest overlap, then listed
  // chronologically.
  auto pair = [](const LintDiagnostic& d) {
    return std::tie(d.tree_a, d.send_a, d.tree_b, d.send_b);
  };
  std::sort(contention.begin(), contention.end(),
            [&](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tuple_cat(pair(a), std::tie(a.overlap_begin, a.channel)) <
                     std::tuple_cat(pair(b), std::tie(b.overlap_begin, b.channel));
            });
  contention.erase(std::unique(contention.begin(), contention.end(),
                               [&](const LintDiagnostic& a, const LintDiagnostic& b) {
                                 return pair(a) == pair(b);
                               }),
                   contention.end());
  for (const LintDiagnostic& d : contention)
    ++(d.tree_a == d.tree_b ? rep.intra_pairs : rep.cross_pairs);
  std::sort(contention.begin(), contention.end(),
            [&](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tuple_cat(std::tie(a.overlap_begin), pair(a)) <
                     std::tuple_cat(std::tie(b.overlap_begin), pair(b));
            });
  if (contention.size() > static_cast<std::size_t>(max_diagnostics))
    contention.resize(static_cast<std::size_t>(max_diagnostics));
  for (LintDiagnostic& d : contention) rep.diagnostics.push_back(std::move(d));
}

namespace {

/// Iterative three-color DFS over the channel-dependency graph of
/// `paths`, deterministic: roots and out-edges in ascending channel
/// order.
std::vector<sim::ChannelId> dependency_cycle(
    std::span<const std::span<const sim::ChannelId>> paths) {
  // Every hop as (channel, hop number), grouped by channel: a channel's
  // rank among the distinct ones is its compact id, so compact ids
  // ascend with channel ids.
  std::vector<std::pair<sim::ChannelId, std::uint32_t>> hops;
  for (const std::span<const sim::ChannelId> path : paths)
    for (const sim::ChannelId c : path)
      hops.emplace_back(c, static_cast<std::uint32_t>(hops.size()));
  radix_sort(hops, [](const auto& h) { return h.first; });
  std::vector<sim::ChannelId> node;  // compact id -> channel
  std::vector<int> id(hops.size());  // hop number -> compact id
  for (const auto& [c, h] : hops) {
    if (node.empty() || node.back() != c) node.push_back(c);
    id[h] = static_cast<int>(node.size()) - 1;
  }

  // CSR adjacency over compact ids: a counting pass places every
  // hop-to-hop edge under its source, then each source's short list is
  // sorted and deduplicated in place.
  const auto for_each_edge = [&](auto&& visit) {
    std::size_t h = 0;
    for (const std::span<const sim::ChannelId> path : paths) {
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        visit(static_cast<std::size_t>(id[h + i]), id[h + i + 1]);
      h += path.size();
    }
  };
  const std::size_t nodes = node.size();
  std::vector<int> head(nodes + 1, 0);
  for_each_edge([&](std::size_t u, int) { ++head[u + 1]; });
  std::partial_sum(head.begin(), head.end(), head.begin());
  std::vector<int> adj(static_cast<std::size_t>(head[nodes]));
  {
    std::vector<int> cursor(head.begin(), head.end() - 1);
    for_each_edge([&](std::size_t u, int v) {
      adj[static_cast<std::size_t>(cursor[u]++)] = v;
    });
  }
  int kept = 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    const auto first = adj.begin() + head[u];
    const auto last = adj.begin() + head[u + 1];
    std::sort(first, last);
    head[u] = kept;
    for (auto it = first; it != last; ++it)
      if (it == first || *it != it[-1]) adj[static_cast<std::size_t>(kept++)] = *it;
  }
  head[nodes] = kept;

  enum : char { kWhite = 0, kGray = 1, kBlack = 2 };
  std::vector<char> color(nodes, kWhite);
  std::vector<int> stack;     // gray path
  std::vector<int> edge_pos;  // next out-edge to try per stack entry
  for (int root = 0; root < static_cast<int>(nodes); ++root) {
    if (color[static_cast<std::size_t>(root)] != kWhite) continue;
    stack.assign(1, root);
    edge_pos.assign(1, head[static_cast<std::size_t>(root)]);
    color[static_cast<std::size_t>(root)] = kGray;
    while (!stack.empty()) {
      const int u = stack.back();
      int& pos = edge_pos.back();
      if (pos == head[static_cast<std::size_t>(u) + 1]) {
        color[static_cast<std::size_t>(u)] = kBlack;
        stack.pop_back();
        edge_pos.pop_back();
        continue;
      }
      const int v = adj[static_cast<std::size_t>(pos++)];
      if (color[static_cast<std::size_t>(v)] == kGray) {
        // Back edge: the cycle is the gray path from v to u, closed by u->v.
        std::vector<sim::ChannelId> cycle;
        for (auto it = std::find(stack.begin(), stack.end(), v); it != stack.end(); ++it)
          cycle.push_back(node[static_cast<std::size_t>(*it)]);
        return cycle;
      }
      if (color[static_cast<std::size_t>(v)] == kWhite) {
        color[static_cast<std::size_t>(v)] = kGray;
        stack.push_back(v);
        edge_pos.push_back(head[static_cast<std::size_t>(v)]);
      }
    }
  }
  return {};
}

}  // namespace

void find_deadlock(std::span<const std::span<const sim::ChannelId>> paths,
                   int max_diagnostics, bool& deadlock_free,
                   std::vector<LintDiagnostic>& diags) {
  std::vector<sim::ChannelId> cycle = dependency_cycle(paths);
  if (cycle.empty()) return;
  deadlock_free = false;
  if (diags.size() >= static_cast<std::size_t>(max_diagnostics)) return;
  LintDiagnostic d;
  d.kind = DiagKind::kDeadlock;
  d.cycle = std::move(cycle);
  diags.push_back(std::move(d));
}

std::string channel_name(const sim::Topology& topo, sim::ChannelId c) {
  return topo.channel_name(c / topo.radix(), c % topo.radix());
}

std::string describe_cycle(const sim::Topology& topo,
                           std::span<const sim::ChannelId> cycle) {
  std::string s = "deadlock: cyclic channel wait:";
  for (const sim::ChannelId c : cycle) s += " " + channel_name(topo, c);
  return s;
}

}  // namespace kernel
}  // namespace pcm::lint
