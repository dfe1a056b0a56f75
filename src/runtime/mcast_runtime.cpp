#include "runtime/mcast_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/reliable_sends.hpp"

namespace pcm::rt {
namespace {

// Sets the latency of a multicast started at t0 (from its receive times)
// and its blocked cycles; returns the destinations that finished receiving.
int close_result(McastResult& res, const MulticastTree& tree, Time t0,
                 long long blocked) {
  res.channel_conflicts = res.block_cycles = blocked;
  Time last = t0;
  int delivered = 0;
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos || res.recv_complete[pos] < 0) continue;
    ++delivered;
    last = std::max(last, res.recv_complete[pos]);
  }
  res.latency = last - t0;
  return delivered;
}

}  // namespace

Bytes MulticastRuntime::wire_bytes(Bytes payload, int interval_nodes) const {
  Bytes header = cfg_.base_header_bytes;
  if (cfg_.carry_address_list) header += cfg_.addr_bytes * interval_nodes;
  return payload + header;
}

int MulticastRuntime::wire_flits(Bytes payload, int interval_nodes) const {
  const Time f = cfg_.machine.serialization(wire_bytes(payload, interval_nodes));
  return std::max<int>(1, static_cast<int>(f));
}

int MulticastRuntime::post_sends(sim::Simulator& sim, const MulticastTree& tree,
                                 int pos, Bytes payload, Time at,
                                 std::span<Time> ops, int tag_base) const {
  const MachineParams& mp = cfg_.machine;
  for (Time& t : ops) t = std::max(t, at);
  std::size_t e = 0;
  for (const int idx : tree.out[static_cast<std::size_t>(pos)]) {
    const SendEvent& ev = tree.sends[static_cast<std::size_t>(idx)];
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    const Bytes wire = wire_bytes(payload, interval);
    sim::Message m;
    m.src = tree.node(ev.sender_pos);
    m.dst = tree.node(ev.receiver_pos);
    m.flits = wire_flits(payload, interval);
    m.ready_time = ops[e] + mp.t_send(wire);
    m.tag = tag_base + idx;
    sim.post(m);
    ops[e] += mp.t_hold(wire);
    e = (e + 1) % ops.size();
  }
  return static_cast<int>(tree.out[static_cast<std::size_t>(pos)].size());
}

McastResult MulticastRuntime::run(sim::Simulator& sim, const MulticastTree& tree,
                                  Bytes payload, Time t0) const {
  if (!sim.idle()) throw std::logic_error("MulticastRuntime::run: simulator busy");
  if (t0 < sim.now()) t0 = sim.now();
  const MachineParams& mp = cfg_.machine;

  McastResult res;
  res.recv_complete.assign(tree.num_nodes(), -1);
  res.model_latency =
      model_latency(tree, mp.two_param(wire_bytes(payload, 1)));

  // Per chain position and send engine: the earliest cycle the engine may
  // start its next send operation (CPU serialization + t_hold spacing;
  // distinct engines overlap on p-port machines).
  const auto engines = static_cast<std::size_t>(std::max(1, cfg_.send_engines));
  std::vector<Time> next_op(static_cast<std::size_t>(tree.num_nodes()) * engines, 0);
  const long long base_conflicts = sim.stats().channel_conflicts;

  auto activate = [&](int pos, Time at) {
    const std::span<Time> ops(&next_op[static_cast<std::size_t>(pos) * engines], engines);
    res.messages += post_sends(sim, tree, pos, payload, at, ops, 0);
  };

  sim.set_delivery_handler([&](const sim::Message& m) {
    const SendEvent& ev = tree.sends.at(m.tag);
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    const Time done = m.delivered + mp.t_recv(wire_bytes(payload, interval));
    res.recv_complete[ev.receiver_pos] = done;
    activate(ev.receiver_pos, done);
  });

  activate(tree.chain.source_pos, t0);
  sim.run_until_idle();
  sim.set_delivery_handler(nullptr);
  const long long blocked = sim.stats().channel_conflicts - base_conflicts;
  if (close_result(res, tree, t0, blocked) != tree.num_nodes() - 1)
    throw std::logic_error("MulticastRuntime::run: destination never received");
  return res;
}

McastResult MulticastRuntime::run_reliable(sim::Simulator& sim,
                                           const MulticastTree& tree,
                                           Bytes payload, FtConfig ft, Time t0,
                                           obs::FlightRecorder* recorder) const {
  if (!sim.idle())
    throw std::logic_error("MulticastRuntime::run_reliable: simulator busy");
  // The one multicast is slot -1 of the tracked-send core.
  ReliableSends sends(*this, sim, tree, payload, ft, -1, 1, recorder);
  if (t0 < sim.now()) t0 = sim.now();
  const int k = tree.num_nodes();

  McastResult res;
  res.recv_complete.assign(k, -1);
  res.model_latency =
      model_latency(tree, cfg_.machine.two_param(wire_bytes(payload, 1)));
  res.expected_dests = k - 1;
  const long long base_conflicts = sim.stats().channel_conflicts;

  sim.set_delivery_handler([&](const sim::Message& m) {
    sends.deliver(m, [&](int, int pos, Time done) {
      res.recv_complete[pos] = done;
      if (!sends.dead(pos)) return;
      // The retry ladder gave up on this receiver, but an attempt that was
      // still in flight landed anyway: the death verdict was premature.
      // Retract it — a late ack proves life, as on a real machine — so the
      // result never counts one receiver as both dead and delivered.
      sends.revive(pos);
      std::erase(res.dead_nodes, tree.node(pos));
    });
  });
  sim.set_drop_handler([&](const sim::Message& m) { sends.drop(m); });

  sends.hold_all(tree.chain.source_pos);
  sends.activate(-1, tree.chain.source_pos, t0);

  // Protocol loop: run the network to the earliest outstanding deadline,
  // then sweep timeouts.  `now` is the deadline even when the simulator
  // went idle early (an expired timer needs no network activity).
  long guard = 0;
  const long guard_max = 1000 + 64L * k * (ft.max_retries + 2);
  for (;;) {
    const Time horizon = sends.horizon();
    if (sends.idle() || ++guard > guard_max) {
      sim.run_until_idle();  // drain duplicates and purging worms
      break;
    }
    sim.run_until_idle(horizon);
    const Time now = std::max(sim.now(), horizon);
    // Out of retries: the receiver is presumed fail-stopped, and the
    // parent re-splits the orphaned interval over the survivors.
    sends.sweep(now, [&](std::size_t ri) {
      const ReliableSends::Send& s = sends.send(ri);
      if (!sends.dead(s.recv)) {
        sends.mark_dead(s.recv);
        res.dead_nodes.push_back(tree.node(s.recv));
      }
      sends.reassign(ri, s.sender);
      return true;
    });
  }
  sim.set_delivery_handler(nullptr);
  sim.set_drop_handler(nullptr);

  res.delivered_dests =
      close_result(res, tree, t0, sim.stats().channel_conflicts - base_conflicts);
  res.complete = res.delivered_dests == res.expected_dests;
  res.delivered_fraction =
      k > 0 ? static_cast<double>(1 + res.delivered_dests) / static_cast<double>(k) : 1.0;
  res.messages = static_cast<int>(sends.counts().messages);
  res.retries = sends.counts().retries;
  res.repairs = sends.counts().repairs;
  res.duplicate_deliveries = sends.counts().duplicates;
  res.added_latency = res.latency - res.model_latency;
  std::sort(res.dead_nodes.begin(), res.dead_nodes.end());
  return res;
}

std::vector<McastResult> MulticastRuntime::run_concurrent(
    sim::Simulator& sim, std::vector<GroupRun> groups) const {
  if (!sim.idle()) throw std::logic_error("run_concurrent: simulator busy");
  const MachineParams& mp = cfg_.machine;
  const Time origin = sim.now();
  const int first_msg = sim.messages().size();

  // Group g's send idx travels as tag first_tag[g] + idx.
  std::vector<int> first_tag(groups.size() + 1, 0);
  std::vector<McastResult> results(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    results[g].recv_complete.assign(groups[g].tree.num_nodes(), -1);
    results[g].model_latency = model_latency(
        groups[g].tree, mp.two_param(wire_bytes(groups[g].payload, 1)));
    first_tag[g + 1] = first_tag[g] + static_cast<int>(groups[g].tree.sends.size());
  }
  auto group_of = [&](int tag) {
    const auto next = std::upper_bound(first_tag.begin(), first_tag.end(), tag);
    return static_cast<std::size_t>(next - first_tag.begin() - 1);
  };

  // One CPU per node, shared across groups: a node's software operations
  // (sends and receive processing) execute serially.
  std::vector<Time> next_free(sim.topology().num_nodes(), origin);
  auto activate = [&](std::size_t g, int pos, Time at) {
    const GroupRun& gr = groups[g];
    const std::span<Time> cpu(&next_free[gr.tree.node(pos)], 1);
    results[g].messages +=
        post_sends(sim, gr.tree, pos, gr.payload, at, cpu, first_tag[g]);
  };

  sim.set_delivery_handler([&](const sim::Message& m) {
    const std::size_t g = group_of(m.tag);
    const GroupRun& gr = groups[g];
    const SendEvent& ev = gr.tree.sends.at(m.tag - first_tag[g]);
    const NodeId node = gr.tree.node(ev.receiver_pos);
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    // Receive processing occupies the (possibly shared) CPU.
    const Time begin = std::max(m.delivered, next_free[node]);
    const Time done = begin + mp.t_recv(wire_bytes(gr.payload, interval));
    next_free[node] = done;
    results[g].recv_complete[ev.receiver_pos] = done;
    activate(g, ev.receiver_pos, done);
  });

  for (size_t g = 0; g < groups.size(); ++g)
    activate(g, groups[g].tree.chain.source_pos, origin + groups[g].start);
  sim.run_until_idle();
  sim.set_delivery_handler(nullptr);

  // Each group's conflicts are its own messages' blocked cycles.
  std::vector<long long> blocked(groups.size(), 0);
  for (sim::MsgId id = first_msg; id < sim.messages().size(); ++id) {
    const sim::Message& m = sim.messages().at(id);
    blocked[group_of(m.tag)] += m.block_cycles;
  }
  for (size_t g = 0; g < groups.size(); ++g)
    if (close_result(results[g], groups[g].tree, origin + groups[g].start, blocked[g]) !=
        groups[g].tree.num_nodes() - 1)
      throw std::logic_error("run_concurrent: destination never received");
  return results;
}

McastResult MulticastRuntime::run_algorithm(sim::Simulator& sim, McastAlgorithm alg,
                                            NodeId source,
                                            std::span<const NodeId> dests,
                                            Bytes payload,
                                            const MeshShape* shape) const {
  const TwoParam tp = cfg_.machine.two_param(wire_bytes(payload, 1));
  const MulticastTree tree = build_multicast(alg, source, dests, tp, shape);
  return run(sim, tree, payload, sim.now());
}

}  // namespace pcm::rt
