// Tree and forest certification on the window kernel (kernel.hpp), and
// the earliest-clean-offset admission primitive.
//
// lint_forest mirrors MulticastRuntime::run_concurrent: every source is
// activated in member order at its start offset, then deliveries are
// replayed in the kernel's (the simulator's) order, each receive
// occupying its node's CPU before the node activates.  lint_tree and
// lint_schedule are a forest of one with cfg.send_engines engines per
// node, mirroring MulticastRuntime::run: within a tree every node but the
// source receives exactly once, before it ever sends, so the shared CPU
// never delays a receive.  A clean report is a proof — the simulator
// follows this exact timeline — and conversely the earliest static
// overlap is the first dynamic block.
#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "lint/kernel.hpp"

namespace pcm::lint {
namespace {

using kernel::SendPlan;

/// One tree of a forest, by reference (lint_tree times its tree in place).
struct TreeRef {
  const MulticastTree* tree = nullptr;
  Bytes payload = 0;
  Time start = 0;
};

/// The kernel's timeline of a forest: per-member plans, windows (path and
/// reserve still empty) and makespans.
struct Timeline {
  std::vector<std::vector<SendPlan>> plans;
  std::vector<std::vector<SendWindow>> sched;
  std::vector<Time> tree_makespan;
};

Timeline derive(std::span<const TreeRef> members, const sim::Topology& topo,
                const rt::RuntimeConfig& cfg, const sim::SimConfig& sim_cfg,
                int engines) {
  Timeline tl;
  for (const TreeRef& m : members) {
    tl.plans.push_back(kernel::plan_sends(*m.tree, topo, cfg, m.payload));
    tl.sched.emplace_back(m.tree->sends.size());
  }
  tl.tree_makespan.assign(members.size(), 0);
  kernel::WindowKernel kern(topo.num_nodes(), engines, topo.ports_per_node(),
                            sim_cfg.router_delay);

  auto activate = [&](int t, int pos, Time at) {
    const MulticastTree& tree = *members[static_cast<size_t>(t)].tree;
    const std::vector<SendPlan>& plan = tl.plans[static_cast<size_t>(t)];
    const NodeId node = tree.node(pos);
    for (const kernel::Placement& p :
         kern.activate(t, node, at, tree.out[static_cast<size_t>(pos)], plan)) {
      SendWindow& w = tl.sched[static_cast<size_t>(t)][static_cast<size_t>(p.send)];
      w.send = p.send;
      w.src = node;
      w.dst = tree.node(plan[static_cast<size_t>(p.send)].receiver_pos);
      w.flits = plan[static_cast<size_t>(p.send)].flits;
      w.op_start = p.op_start;
      w.ready = p.ready;
      w.inject_start = p.inject_start;
      w.delivered = p.delivered;
    }
  };

  // run_concurrent activates every source before the first simulated
  // cycle, in member order: at a shared source a later member queues
  // behind an earlier one even when its start offset is smaller.
  for (size_t t = 0; t < members.size(); ++t)
    activate(static_cast<int>(t), members[t].tree->chain.source_pos,
             members[t].start);
  while (!kern.idle()) {
    const kernel::Delivery d = kern.pop();
    const auto t = static_cast<size_t>(d.tree);
    const SendPlan& p = tl.plans[t][static_cast<size_t>(d.send)];
    // Receive processing occupies the node's CPU (engine 0).
    Time& cpu = kern.engine(members[t].tree->node(p.receiver_pos), 0);
    cpu = std::max(d.delivered, cpu) + p.t_recv;
    tl.sched[t][static_cast<size_t>(d.send)].recv_done = cpu;
    tl.tree_makespan[t] = std::max(tl.tree_makespan[t], cpu);
    activate(d.tree, p.receiver_pos, cpu);
  }
  return tl;
}

/// Completes member t's windows with their paths and reserve times.
std::vector<SendWindow> take_windows(Timeline& tl, size_t t, Time rd) {
  std::vector<SendWindow> windows = std::move(tl.sched[t]);
  for (size_t idx = 0; idx < windows.size(); ++idx) {
    SendWindow& w = windows[idx];
    w.path = std::move(tl.plans[t][idx].path);
    w.reserve.resize(w.path.size());
    for (size_t i = 0; i < w.path.size(); ++i)
      w.reserve[i] = kernel::reserve_time(w.inject_start, i, rd);
  }
  return windows;
}

ForestReport certify(std::span<const TreeRef> members, const sim::Topology& topo,
                     const rt::RuntimeConfig& cfg, const sim::SimConfig& sim_cfg,
                     int engines, int max_diagnostics, bool keep_schedules) {
  ForestReport rep;
  rep.trees = static_cast<int>(members.size());
  rep.tree_makespan.assign(members.size(), 0);
  for (size_t t = 0; t < members.size(); ++t) {
    rep.sends += static_cast<int>(members[t].tree->sends.size());
    const std::string structure = check_tree(*members[t].tree);
    if (!structure.empty()) {
      rep.structure_ok = false;
      LintDiagnostic d;
      d.kind = DiagKind::kStructure;
      d.tree_a = static_cast<int>(t);
      d.detail = structure;
      rep.diagnostics.push_back(std::move(d));
    }
  }
  if (!rep.structure_ok) return rep;  // timing malformed trees is meaningless

  Timeline tl = derive(members, topo, cfg, sim_cfg, engines);
  rep.tree_makespan = tl.tree_makespan;
  for (const Time t : rep.tree_makespan) rep.makespan = std::max(rep.makespan, t);

  const Time rd = sim_cfg.router_delay;
  {
    size_t hops = 0;
    for (const std::vector<SendPlan>& plan : tl.plans)
      for (const SendPlan& p : plan) hops += p.path.size();
    std::vector<kernel::Hold> holds;
    holds.reserve(hops);
    for (size_t t = 0; t < tl.sched.size(); ++t)
      for (size_t idx = 0; idx < tl.sched[t].size(); ++idx) {
        const SendWindow& w = tl.sched[t][idx];
        const std::vector<sim::ChannelId>& path = tl.plans[t][idx].path;
        for (size_t i = 0; i < path.size(); ++i) {
          const Time b = kernel::reserve_time(w.inject_start, i, rd);
          holds.push_back({path[i], b, b + w.flits, static_cast<int>(t), w.send});
        }
      }
    kernel::sweep_holds(holds, max_diagnostics, rep);
  }

  std::vector<std::span<const sim::ChannelId>> paths;
  for (const std::vector<SendPlan>& plan : tl.plans)
    for (const SendPlan& p : plan) paths.emplace_back(p.path);
  kernel::find_deadlock(topo, paths, max_diagnostics, rep.deadlock_free,
                        rep.diagnostics);

  if (keep_schedules)
    for (size_t t = 0; t < members.size(); ++t)
      rep.schedules.push_back(take_windows(tl, t, rd));
  return rep;
}

}  // namespace

std::vector<SendWindow> lint_schedule(const MulticastTree& tree,
                                      const sim::Topology& topo,
                                      const rt::RuntimeConfig& cfg,
                                      const sim::SimConfig& sim_cfg,
                                      Bytes payload, Time t0) {
  validate_lint_config(sim_cfg, "lint_schedule");
  const TreeRef one{&tree, payload, t0};
  Timeline tl = derive({&one, 1}, topo, cfg, sim_cfg, std::max(1, cfg.send_engines));
  return take_windows(tl, 0, sim_cfg.router_delay);
}

LintReport lint_tree(const MulticastTree& tree, const sim::Topology& topo,
                     const rt::RuntimeConfig& cfg, const sim::SimConfig& sim_cfg,
                     Bytes payload, const LintOptions& opts) {
  validate_lint_config(sim_cfg, "lint_tree");
  const TreeRef one{&tree, payload, 0};
  ForestReport f = certify({&one, 1}, topo, cfg, sim_cfg,
                           std::max(1, cfg.send_engines), opts.max_diagnostics,
                           opts.keep_schedule);
  LintReport rep;
  rep.diagnostics = std::move(f.diagnostics);
  if (!f.schedules.empty()) rep.schedule = std::move(f.schedules.front());
  rep.structure_ok = f.structure_ok;
  rep.contention_free = f.contention_free;
  rep.deadlock_free = f.deadlock_free;
  rep.sends = f.sends;
  rep.channels_used = f.channels_used;
  rep.max_channel_windows = f.max_channel_windows;
  rep.makespan = f.makespan;
  return rep;
}

ForestReport lint_forest(std::span<const ForestMember> members,
                         const sim::Topology& topo, const rt::RuntimeConfig& cfg,
                         const sim::SimConfig& sim_cfg,
                         const ForestOptions& opts) {
  validate_lint_config(sim_cfg, "lint_forest");
  std::vector<TreeRef> refs;
  refs.reserve(members.size());
  for (const ForestMember& m : members) {
    if (m.start < 0)
      throw std::invalid_argument("lint_forest: negative start offset");
    if (m.start > kMaxStartOffset)
      throw std::invalid_argument("lint_forest: start offset above kMaxStartOffset");
    refs.push_back(TreeRef{&m.tree, m.payload, m.start});
  }
  return certify(refs, topo, cfg, sim_cfg, 1, opts.max_diagnostics,
                 opts.keep_schedules);
}

std::string LintReport::describe(const MulticastTree& tree,
                                 const sim::Topology& topo) const {
  std::ostringstream os;
  if (clean()) {
    os << "clean: " << sends << " send(s), " << channels_used
       << " channel(s), makespan " << makespan;
    return os.str();
  }
  os << diagnostics.size() << " diagnostic(s)";
  for (const LintDiagnostic& d : diagnostics) {
    os << "\n  ";
    switch (d.kind) {
      case DiagKind::kStructure:
        os << "structure: " << d.detail;
        break;
      case DiagKind::kContention: {
        const SendEvent& a = tree.sends[static_cast<size_t>(d.send_a)];
        const SendEvent& b = tree.sends[static_cast<size_t>(d.send_b)];
        os << "contention: send#" << d.send_a << " " << tree.node(a.sender_pos)
           << "->" << tree.node(a.receiver_pos) << " (chain " << a.sender_pos
           << "->" << a.receiver_pos << ") vs send#" << d.send_b << " "
           << tree.node(b.sender_pos) << "->" << tree.node(b.receiver_pos)
           << " (chain " << b.sender_pos << "->" << b.receiver_pos << ") on "
           << kernel::channel_name(topo, d.channel) << " during ["
           << d.overlap_begin << ", " << d.overlap_end << ")";
        break;
      }
      case DiagKind::kDeadlock:
        os << kernel::describe_cycle(topo, d.cycle);
        break;
    }
  }
  return os.str();
}

std::string ForestReport::describe(std::span<const ForestMember> members,
                                   const sim::Topology& topo) const {
  std::ostringstream os;
  if (clean()) {
    os << "clean: " << trees << " tree(s), " << sends << " send(s), "
       << channels_used << " channel(s), makespan " << makespan;
    return os.str();
  }
  os << diagnostics.size() << " diagnostic(s)";
  for (const LintDiagnostic& d : diagnostics) {
    os << "\n  ";
    switch (d.kind) {
      case DiagKind::kStructure:
        os << "structure: tree#" << d.tree_a << ": " << d.detail;
        break;
      case DiagKind::kContention: {
        const MulticastTree& ta = members[static_cast<size_t>(d.tree_a)].tree;
        const MulticastTree& tb = members[static_cast<size_t>(d.tree_b)].tree;
        const SendEvent& a = ta.sends[static_cast<size_t>(d.send_a)];
        const SendEvent& b = tb.sends[static_cast<size_t>(d.send_b)];
        os << (d.tree_a == d.tree_b ? "intra" : "cross")
           << "-tree contention: tree#" << d.tree_a << " send#" << d.send_a
           << " " << ta.node(a.sender_pos) << "->" << ta.node(a.receiver_pos)
           << " vs tree#" << d.tree_b << " send#" << d.send_b << " "
           << tb.node(b.sender_pos) << "->" << tb.node(b.receiver_pos)
           << " on " << kernel::channel_name(topo, d.channel) << " during ["
           << d.overlap_begin << ", " << d.overlap_end << ")";
        break;
      }
      case DiagKind::kDeadlock:
        os << kernel::describe_cycle(topo, d.cycle);
        break;
    }
  }
  return os.str();
}

void ChannelReservations::add(std::span<const SendWindow> sched) {
  std::vector<HoldWindow> fresh;
  for (const SendWindow& w : sched)
    for (size_t i = 0; i < w.path.size(); ++i)
      fresh.push_back(HoldWindow{w.path[i], w.reserve[i], w.reserve[i] + w.flits});
  kernel::radix_sort(fresh, [](const HoldWindow& h) { return h.channel; });
  // Merge from the back, so holds below the lowest fresh channel stay put
  // and the fresh ones follow the admitted ones within a channel.
  size_t i = holds_.size();
  size_t j = fresh.size();
  holds_.resize(i + j);
  for (size_t k = holds_.size(); j > 0;)
    holds_[--k] = i > 0 && holds_[i - 1].channel > fresh[j - 1].channel
                      ? holds_[--i]
                      : fresh[--j];
}

Time earliest_clean_offset(const MulticastTree& tree, const sim::Topology& topo,
                           const rt::RuntimeConfig& cfg,
                           const sim::SimConfig& sim_cfg, Bytes payload,
                           const ChannelReservations& existing) {
  // The candidate's isolated timeline shifts rigidly with its start
  // offset (the only absolute term, the initial NI-free time 0, never
  // binds because ready >= t_send > 0), so each (candidate hold h,
  // reservation r on the same channel) pair forbids the closed integer
  // shift interval [r.begin - h.end + 1, r.end - h.begin - 1].
  const std::vector<SendWindow> cand =
      lint_schedule(tree, topo, cfg, sim_cfg, payload, 0);
  const std::vector<HoldWindow>& res = existing.holds();

  std::vector<std::pair<Time, Time>> forbidden;
  for (const SendWindow& w : cand) {
    for (size_t i = 0; i < w.path.size(); ++i) {
      const Time hb = w.reserve[i];
      const Time he = hb + w.flits;
      auto it = std::lower_bound(
          res.begin(), res.end(), w.path[i],
          [](const HoldWindow& r, sim::ChannelId ch) { return r.channel < ch; });
      for (; it != res.end() && it->channel == w.path[i]; ++it) {
        const Time lo = it->begin - he + 1;
        const Time hi = it->end - hb - 1;
        if (hi >= 0) forbidden.emplace_back(std::max<Time>(lo, 0), hi);
      }
    }
  }
  std::sort(forbidden.begin(), forbidden.end());
  Time delta = 0;
  for (const auto& [lo, hi] : forbidden) {
    if (lo > delta) break;  // gap before every later interval: minimal
    if (hi >= delta) delta = hi + 1;
  }
  return delta;
}

}  // namespace pcm::lint
