#include "runtime/mcast_runtime.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace pcm::rt {

Bytes MulticastRuntime::wire_bytes(Bytes payload, int interval_nodes) const {
  Bytes header = cfg_.base_header_bytes;
  if (cfg_.carry_address_list) header += cfg_.addr_bytes * interval_nodes;
  return payload + header;
}

int MulticastRuntime::wire_flits(Bytes payload, int interval_nodes) const {
  const Time f = cfg_.machine.serialization(wire_bytes(payload, interval_nodes));
  return std::max<int>(1, static_cast<int>(f));
}

RetryDeadlines::RetryDeadlines(const FtConfig& ft, const MachineParams& mp,
                               Bytes wire1, const SplitTable& repair)
    : scale_(ft.timeout_scale),
      slack_(ft.timeout_slack),
      mp_(mp),
      repair_(repair),
      retry_budget_((ft.max_retries + 1) * (scaled(mp.t_end(wire1)) + slack_) +
                    ((Time{1} << ft.max_retries) - 1) * mp.t_hold(wire1)) {}

Time RetryDeadlines::scaled(Time model) const {
  return static_cast<Time>(scale_ * static_cast<double>(model));
}

Time RetryDeadlines::ack(Time op_start, Bytes wire, int attempt) const {
  const Time backoff = ((Time{1} << attempt) - 1) * mp_.t_hold(wire);
  return op_start + scaled(mp_.t_end(wire)) + slack_ + backoff;
}

Time RetryDeadlines::subtree(Time from, int n) const {
  const Time model = repair_.latency(std::min(n, repair_.size()));
  return from + scaled(model) + slack_ + retry_budget_;
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
  const int engines = std::max(1, cfg_.send_engines);
  std::vector<std::vector<Time>> next_op(tree.num_nodes(),
                                         std::vector<Time>(engines, 0));
  const long long base_conflicts = sim.stats().channel_conflicts;

  // Issues all sends of node `pos`, which became active (finished
  // receiving, or started the multicast) at time `at`.
  auto activate = [&](int pos, Time at) {
    for (Time& t : next_op[pos]) t = std::max(t, at);
    int e = 0;
    for (int idx : tree.out[pos]) {
      const SendEvent& ev = tree.sends[idx];
      const int interval = ev.sub_hi - ev.sub_lo + 1;
      const Bytes wire = wire_bytes(payload, interval);
      sim::Message m;
      m.src = tree.node(ev.sender_pos);
      m.dst = tree.node(ev.receiver_pos);
      m.flits = wire_flits(payload, interval);
      m.ready_time = next_op[pos][e] + mp.t_send(wire);
      m.tag = idx;
      sim.post(m);
      ++res.messages;
      next_op[pos][e] += mp.t_hold(wire);
      e = (e + 1) % engines;
    }
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

  Time last = t0;
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos) continue;
    if (res.recv_complete[pos] < 0)
      throw std::logic_error("MulticastRuntime::run: destination never received");
    last = std::max(last, res.recv_complete[pos]);
  }
  res.latency = last - t0;
  res.channel_conflicts = sim.stats().channel_conflicts - base_conflicts;
  res.block_cycles = res.channel_conflicts;
  return res;
}

McastResult MulticastRuntime::run_reliable(sim::Simulator& sim,
                                           const MulticastTree& tree,
                                           Bytes payload, FtConfig ft,
                                           Time t0) const {
  if (!sim.idle())
    throw std::logic_error("MulticastRuntime::run_reliable: simulator busy");
  if (ft.max_retries < 0 || ft.max_retries > 40)
    throw std::invalid_argument("run_reliable: max_retries out of [0, 40]");
  if (ft.timeout_scale < 1.0)
    throw std::invalid_argument("run_reliable: timeout_scale must be >= 1");
  if (ft.timeout_slack < 0)
    throw std::invalid_argument("run_reliable: timeout_slack must be >= 0");
  if (t0 < sim.now()) t0 = sim.now();
  const MachineParams& mp = cfg_.machine;
  const int k = tree.num_nodes();
  const int src_pos = tree.chain.source_pos;

  McastResult res;
  res.recv_complete.assign(k, -1);
  res.model_latency = model_latency(tree, mp.two_param(wire_bytes(payload, 1)));
  res.expected_dests = k - 1;

  // Repair re-splits use the OPT rule for this machine's (t_hold, t_end);
  // the chain order is kept, so repaired sub-chains stay dimension-ordered
  // and the contention-freedom argument carries over.
  const TwoParam tp = mp.two_param(wire_bytes(payload, 1));
  const SplitTable repair_table = opt_split_table(tp.t_hold, tp.t_end, std::max(2, k));

  const int engines = std::max(1, cfg_.send_engines);
  std::vector<std::vector<Time>> next_op(k, std::vector<Time>(engines, 0));
  std::vector<int> engine_rr(k, 0);
  const long long base_conflicts = sim.stats().channel_conflicts;

  std::vector<char> received(k, 0), declared_dead(k, 0);
  received[src_pos] = 1;

  // One tracked send.  Retransmissions reuse the record (and its tag);
  // records are append-only so indices stay stable.
  struct Pending {
    int sender_pos = 0;
    int recv_pos = 0;
    std::vector<int> interval;  ///< responsibility positions, ascending, incl recv
    bool primary = true;        ///< interval straight from tree.sends
    int attempt = 0;
    bool acked = false;
    bool closed = false;
    Time ack_deadline = 0;
    Time subtree_deadline = kTimeInfinity;
  };
  std::vector<Pending> recs;

  const RetryDeadlines deadlines(ft, mp, wire_bytes(payload, 1), repair_table);

  // Posts one attempt of recs[ri]; `base` lower-bounds the send-op start.
  auto issue = [&](std::size_t ri, Time base) {
    Pending& rec = recs[ri];
    const int n = static_cast<int>(rec.interval.size());
    const Bytes wire = wire_bytes(payload, n);
    const int s = rec.sender_pos;
    int& e = engine_rr[s];
    Time& op = next_op[s][static_cast<std::size_t>(e)];
    op = std::max(op, base);
    if (ft.recorder != nullptr)
      ft.recorder->record(obs::EventKind::kSendAttempt, op,
                          static_cast<std::int32_t>(ri), rec.attempt,
                          rec.recv_pos, -1);
    sim::Message m;
    m.src = tree.node(s);
    m.dst = tree.node(rec.recv_pos);
    m.flits = wire_flits(payload, n);
    m.ready_time = op + mp.t_send(wire);
    m.tag = static_cast<int>(ri);
    sim.post(m);
    ++res.messages;
    rec.ack_deadline = deadlines.ack(op, wire, rec.attempt);
    op += mp.t_hold(wire);
    e = (e + 1) % engines;
  };

  auto new_rec = [&](int sender, int recv, std::vector<int> interval, bool primary,
                     Time base) {
    Pending rec;
    rec.sender_pos = sender;
    rec.recv_pos = recv;
    rec.interval = std::move(interval);
    rec.primary = primary;
    recs.push_back(std::move(rec));
    issue(recs.size() - 1, base);
  };

  // Re-splits `list` (sorted survivor positions, all on one side of
  // `sender` — orphan intervals never contain their sender) with the OPT
  // table, mirroring the expand() loop of build_chain_split_tree on the
  // virtual chain {sender} ∪ list.
  auto repair_split = [&](int sender, std::vector<int> list, Time at) {
    while (!list.empty()) {
      const int i = static_cast<int>(list.size()) + 1;
      const int j = repair_table.split(std::min(i, repair_table.size()));
      if (sender < list.front()) {
        // Virtual source at the bottom: hand the top i-j positions to
        // their lowest member.
        std::vector<int> child(list.begin() + (j - 1), list.end());
        const int recv = child.front();
        list.resize(static_cast<std::size_t>(j - 1));
        new_rec(sender, recv, std::move(child), false, at);
      } else {
        // Virtual source at the top: hand the bottom i-j positions to
        // their highest member.
        const int m = static_cast<int>(list.size()) - j;
        std::vector<int> child(list.begin(), list.begin() + m + 1);
        const int recv = child.back();
        list.erase(list.begin(), list.begin() + m + 1);
        new_rec(sender, recv, std::move(child), false, at);
      }
    }
  };

  // Issues the primary sends of `pos` (identical to run()'s activate on a
  // healthy run); a send whose receiver is already declared dead is
  // replaced by a repair re-split of its surviving interval.
  auto activate = [&](int pos, Time at) {
    for (Time& t : next_op[pos]) t = std::max(t, at);
    engine_rr[pos] = 0;
    for (int idx : tree.out[pos]) {
      const SendEvent& ev = tree.sends[idx];
      std::vector<int> interval;
      for (int p = ev.sub_lo; p <= ev.sub_hi; ++p)
        if (!received[p] && !declared_dead[p]) interval.push_back(p);
      if (interval.empty()) continue;
      if (!declared_dead[ev.receiver_pos] && !received[ev.receiver_pos]) {
        new_rec(pos, ev.receiver_pos, std::move(interval), true, at);
      } else {
        std::vector<int> orphan;
        for (int p : interval)
          if (p != ev.receiver_pos) orphan.push_back(p);
        if (!orphan.empty()) {
          ++res.repairs;
          repair_split(pos, std::move(orphan), at);
        }
      }
    }
  };

  sim.set_delivery_handler([&](const sim::Message& m) {
    // NOTE: activate/repair_split below may grow `recs`; copy what we
    // need before issuing anything.
    const std::size_t ri = static_cast<std::size_t>(m.tag);
    if (m.corrupted) return;  // undecodable: the ack timeout will retransmit
    const int pos = recs[ri].recv_pos;
    const int n = static_cast<int>(recs[ri].interval.size());
    const Time done = m.delivered + mp.t_recv(wire_bytes(payload, n));
    if (received[pos]) {
      // A slow earlier attempt (or an overlapping repair) landed after
      // the position was already served.
      ++res.duplicate_deliveries;
      if (!recs[ri].acked) {
        recs[ri].acked = true;
        recs[ri].subtree_deadline = deadlines.subtree(done, n);
        if (ft.recorder != nullptr)
          ft.recorder->record(obs::EventKind::kSendAcked, done,
                              static_cast<std::int32_t>(ri), recs[ri].attempt,
                              pos, -1);
      }
      return;
    }
    received[pos] = 1;
    res.recv_complete[pos] = done;
    if (declared_dead[pos]) {
      // The retry ladder gave up on this receiver, but an attempt that was
      // still in flight landed anyway: the death verdict was premature.
      // Retract it — a late ack proves life, as on a real machine — so the
      // result never counts one receiver as both dead and delivered.
      declared_dead[pos] = 0;
      const NodeId revived = tree.node(pos);
      res.dead_nodes.erase(
          std::remove(res.dead_nodes.begin(), res.dead_nodes.end(), revived),
          res.dead_nodes.end());
    }
    recs[ri].acked = true;
    if (ft.recorder != nullptr)
      ft.recorder->record(obs::EventKind::kSendAcked, done,
                          static_cast<std::int32_t>(ri), recs[ri].attempt, pos,
                          -1);
    const bool primary = recs[ri].primary;
    if (n <= 1) {
      recs[ri].closed = true;
      return;
    }
    recs[ri].subtree_deadline = deadlines.subtree(done, n);
    if (primary) {
      activate(pos, done);
    } else {
      std::vector<int> rest;
      for (int p : recs[ri].interval)
        if (p != pos && !received[p] && !declared_dead[p]) rest.push_back(p);
      if (!rest.empty()) repair_split(pos, std::move(rest), done);
    }
  });

  sim.set_drop_handler([&](const sim::Message& m) {
    // A fail-stopped sender cannot run its retry ladder: its outstanding
    // sends simply die at the NI.  Close the record without declaring the
    // receiver dead — coverage falls to the ancestor whose subtree
    // deadline watches this interval (a live node).  Every other drop
    // reason stays invisible to the protocol, as on a real machine: the
    // sender only ever observes its ack timeout.
    if (m.drop_reason != sim::DropReason::kSenderDead) return;
    recs[static_cast<std::size_t>(m.tag)].closed = true;
  });

  activate(src_pos, t0);

  // Protocol loop: run the network to the earliest outstanding deadline,
  // then sweep timeouts.  `now` is the deadline even when the simulator
  // went idle early (an expired timer needs no network activity).
  long guard = 0;
  const long guard_max = 1000 + 64L * k * (ft.max_retries + 2);
  for (;;) {
    Time horizon = kTimeInfinity;
    bool open = false;
    for (const Pending& rec : recs) {
      if (rec.closed) continue;
      open = true;
      horizon = std::min(horizon, rec.acked ? rec.subtree_deadline : rec.ack_deadline);
    }
    if (!open || ++guard > guard_max) {
      sim.run_until_idle();  // drain duplicates and purging worms
      break;
    }
    sim.run_until_idle(horizon);
    const Time now = std::max(sim.now(), horizon);

    std::vector<std::size_t> retx;
    struct RepairJob {
      int sender;
      std::vector<int> list;
    };
    std::vector<RepairJob> jobs;
    for (std::size_t ri = 0; ri < recs.size(); ++ri) {
      Pending& rec = recs[ri];
      if (rec.closed) continue;
      if (!rec.acked) {
        if (received[rec.recv_pos]) {
          // Served via another record; keep watching the interval.
          rec.acked = true;
          rec.subtree_deadline =
              deadlines.subtree(now, static_cast<int>(rec.interval.size()));
          if (ft.recorder != nullptr)
            ft.recorder->record(obs::EventKind::kSendAcked, now,
                                static_cast<std::int32_t>(ri), rec.attempt,
                                rec.recv_pos, -1);
          continue;
        }
        if (now < rec.ack_deadline) continue;
        if (rec.attempt < ft.max_retries) {
          ++rec.attempt;
          ++res.retries;
          retx.push_back(ri);
        } else {
          // Out of retries: receiver presumed fail-stopped.  The parent
          // re-splits the orphaned interval over the survivors.
          if (declared_dead[rec.recv_pos] == 0) {
            declared_dead[rec.recv_pos] = 1;
            res.dead_nodes.push_back(tree.node(rec.recv_pos));
          }
          rec.closed = true;
          std::vector<int> orphan;
          for (int p : rec.interval)
            if (p != rec.recv_pos && !received[p] && !declared_dead[p])
              orphan.push_back(p);
          if (!orphan.empty()) {
            ++res.repairs;
            jobs.push_back({rec.sender_pos, std::move(orphan)});
          }
        }
      } else {
        bool resolved = true;
        for (int p : rec.interval)
          if (!received[p] && !declared_dead[p]) {
            resolved = false;
            break;
          }
        if (resolved) {
          rec.closed = true;
          continue;
        }
        if (now < rec.subtree_deadline) continue;
        // The receiver is alive but its subtree went quiet (e.g. a
        // grandchild's sender died after acking): the receiver re-splits
        // what is left of its own interval.
        rec.closed = true;
        std::vector<int> orphan;
        for (int p : rec.interval)
          if (p != rec.recv_pos && !received[p] && !declared_dead[p])
            orphan.push_back(p);
        if (!orphan.empty()) {
          ++res.repairs;
          jobs.push_back({rec.recv_pos, std::move(orphan)});
        }
      }
    }
    for (std::size_t ri : retx) issue(ri, now);
    for (RepairJob& job : jobs) repair_split(job.sender, std::move(job.list), now);
  }
  sim.set_delivery_handler(nullptr);
  sim.set_drop_handler(nullptr);

  Time last = t0;
  int delivered = 0;
  for (int pos = 0; pos < k; ++pos) {
    if (pos == src_pos) continue;
    if (res.recv_complete[pos] >= 0) {
      ++delivered;
      last = std::max(last, res.recv_complete[pos]);
    }
  }
  res.delivered_dests = delivered;
  res.complete = delivered == res.expected_dests;
  res.delivered_fraction =
      k > 0 ? static_cast<double>(1 + delivered) / static_cast<double>(k) : 1.0;
  res.latency = last - t0;
  res.added_latency = res.latency - res.model_latency;
  res.channel_conflicts = sim.stats().channel_conflicts - base_conflicts;
  res.block_cycles = res.channel_conflicts;
  std::sort(res.dead_nodes.begin(), res.dead_nodes.end());
  return res;
}

std::vector<McastResult> MulticastRuntime::run_concurrent(
    sim::Simulator& sim, std::vector<GroupRun> groups) const {
  if (!sim.idle()) throw std::logic_error("run_concurrent: simulator busy");
  const MachineParams& mp = cfg_.machine;
  const Time origin = sim.now();

  struct TaggedSend {
    int group;
    int send_idx;
  };
  std::vector<TaggedSend> tags;
  std::vector<McastResult> results(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    results[g].recv_complete.assign(groups[g].tree.num_nodes(), -1);
    results[g].model_latency = model_latency(
        groups[g].tree, mp.two_param(wire_bytes(groups[g].payload, 1)));
  }

  // One CPU per node, shared across groups: a node's software operations
  // (sends and receive processing) execute serially.
  std::vector<Time> next_free(sim.topology().num_nodes(), origin);

  // Message ids per group, to attribute blocked cycles afterwards.
  std::vector<std::vector<sim::MsgId>> group_msgs(groups.size());

  std::function<void(int, int, Time)> activate = [&](int g, int pos, Time at) {
    const GroupRun& gr = groups[g];
    const NodeId node = gr.tree.node(pos);
    next_free[node] = std::max(next_free[node], at);
    for (int idx : gr.tree.out[pos]) {
      const SendEvent& ev = gr.tree.sends[idx];
      const int interval = ev.sub_hi - ev.sub_lo + 1;
      const Bytes wire = wire_bytes(gr.payload, interval);
      sim::Message m;
      m.src = node;
      m.dst = gr.tree.node(ev.receiver_pos);
      m.flits = wire_flits(gr.payload, interval);
      m.ready_time = next_free[node] + mp.t_send(wire);
      m.tag = static_cast<int>(tags.size());
      tags.push_back(TaggedSend{g, idx});
      group_msgs[g].push_back(sim.post(m));
      ++results[g].messages;
      next_free[node] += mp.t_hold(wire);
    }
  };

  sim.set_delivery_handler([&](const sim::Message& m) {
    const TaggedSend& ts = tags.at(m.tag);
    const GroupRun& gr = groups[ts.group];
    const SendEvent& ev = gr.tree.sends.at(ts.send_idx);
    const NodeId node = gr.tree.node(ev.receiver_pos);
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    // Receive processing occupies the (possibly shared) CPU.
    const Time begin = std::max(m.delivered, next_free[node]);
    const Time done = begin + mp.t_recv(wire_bytes(gr.payload, interval));
    next_free[node] = done;
    results[ts.group].recv_complete[ev.receiver_pos] = done;
    activate(ts.group, ev.receiver_pos, done);
  });

  for (size_t g = 0; g < groups.size(); ++g)
    activate(static_cast<int>(g), groups[g].tree.chain.source_pos,
             origin + groups[g].start);
  sim.run_until_idle();
  sim.set_delivery_handler(nullptr);

  for (size_t g = 0; g < groups.size(); ++g) {
    const GroupRun& gr = groups[g];
    Time last = origin + gr.start;
    for (int pos = 0; pos < gr.tree.num_nodes(); ++pos) {
      if (pos == gr.tree.chain.source_pos) continue;
      if (results[g].recv_complete[pos] < 0)
        throw std::logic_error("run_concurrent: destination never received");
      last = std::max(last, results[g].recv_complete[pos]);
    }
    results[g].latency = last - (origin + gr.start);
    for (sim::MsgId id : group_msgs[g])
      results[g].block_cycles += sim.messages().at(id).block_cycles;
    results[g].channel_conflicts = results[g].block_cycles;
  }
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
