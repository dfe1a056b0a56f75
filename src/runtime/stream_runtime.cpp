#include "runtime/stream_runtime.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "core/opt_tree.hpp"

namespace pcm::rt {
namespace {

// ---------------------------------------------------------------------------
// Fault-free fast path.
//
// Handler-driven: no record table and no timeout sweeps.  Every send of
// slot s carries tag = s * |sends| + send_idx; per-slot completion is a
// countdown of k-1 receivers on the ring entry.  Each node's per-engine
// next_op timeline is carried across slots — that is exactly the t_hold-
// rate pipelining the window buys — and is resynchronized to zero whenever
// the window fully drains, which makes a window-1 stream identical, cycle
// for cycle, to a chain of MulticastRuntime::run() calls (each started at
// the previous slot's commit time).
// ---------------------------------------------------------------------------
StreamResult stream_fast(const MulticastRuntime& rtm, sim::Simulator& sim,
                         const MulticastTree& tree, const StreamConfig& cfg,
                         Time t0) {
  const MachineParams& mp = rtm.config().machine;
  const int k = tree.num_nodes();
  const int src = tree.chain.source_pos;
  const int engines = std::max(1, rtm.config().send_engines);
  const int n_sends = static_cast<int>(tree.sends.size());
  const int window = cfg.window_size;
  const int slots = cfg.slots;
  const Bytes payload = cfg.bytes;

  StreamResult res;
  res.slots = slots;
  res.window_size = window;
  res.model_slot_latency =
      model_latency(tree, mp.two_param(rtm.wire_bytes(payload, 1)));
  res.commit_time.assign(static_cast<std::size_t>(slots), -1);
  res.delivered_prefix.assign(static_cast<std::size_t>(k), slots);
  if (cfg.record_slot_times)
    res.slot_recv.assign(static_cast<std::size_t>(slots),
                         std::vector<Time>(static_cast<std::size_t>(k), -1));

  const long long base_conflicts = sim.stats().channel_conflicts;
  const long long base_hops = sim.stats().flit_hops;
  const Time base_cycles = sim.stats().cycles;

  std::vector<std::vector<Time>> next_op(
      static_cast<std::size_t>(k),
      std::vector<Time>(static_cast<std::size_t>(engines), 0));

  struct Ring {
    int remaining = 0;   ///< receivers still missing this slot
    Time max_done = 0;   ///< latest finish-receive time so far
  };
  std::vector<Ring> ring(static_cast<std::size_t>(window));
  int injected = 0;
  int frontier = 0;

  // Identical to run()'s activate, with the slot folded into the tag.
  auto activate = [&](int slot, int pos, Time at) {
    auto& ops = next_op[static_cast<std::size_t>(pos)];
    for (Time& t : ops) t = std::max(t, at);
    int e = 0;
    for (int idx : tree.out[static_cast<std::size_t>(pos)]) {
      const SendEvent& ev = tree.sends[static_cast<std::size_t>(idx)];
      const int interval = ev.sub_hi - ev.sub_lo + 1;
      const Bytes wire = rtm.wire_bytes(payload, interval);
      sim::Message m;
      m.src = tree.node(ev.sender_pos);
      m.dst = tree.node(ev.receiver_pos);
      m.flits = rtm.wire_flits(payload, interval);
      m.ready_time = ops[static_cast<std::size_t>(e)] + mp.t_send(wire);
      m.tag = slot * n_sends + idx;
      sim.post(m);
      ++res.messages;
      ops[static_cast<std::size_t>(e)] += mp.t_hold(wire);
      e = (e + 1) % engines;
    }
  };

  // Backpressure: slot s enters the ring only once slot s - window
  // committed.  The source's send engines serialize the initial burst at
  // the t_hold rate, so injecting the whole open window at once is safe.
  auto inject = [&](Time at) {
    while (injected < slots && injected - frontier < window) {
      const int slot = injected++;
      ring[static_cast<std::size_t>(slot % window)] = Ring{k - 1, at};
      if (cfg.recorder != nullptr)
        cfg.recorder->record(obs::EventKind::kSlotInject, at, slot, 0, src);
      res.max_window_occupancy =
          std::max(res.max_window_occupancy, injected - frontier);
      activate(slot, src, at);
    }
  };

  sim.set_delivery_handler([&](const sim::Message& m) {
    const int slot = m.tag / n_sends;
    const SendEvent& ev = tree.sends[static_cast<std::size_t>(m.tag % n_sends)];
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    const Time done = m.delivered + mp.t_recv(rtm.wire_bytes(payload, interval));
    const int pos = ev.receiver_pos;
    if (cfg.record_slot_times)
      res.slot_recv[static_cast<std::size_t>(slot)][static_cast<std::size_t>(pos)] =
          done;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kSlotDeliver, done, slot, 0, pos);
    activate(slot, pos, done);
    Ring& rg = ring[static_cast<std::size_t>(slot % window)];
    rg.max_done = std::max(rg.max_done, done);
    if (--rg.remaining > 0) return;
    // Cumulative ack frontier: commit every contiguous completed slot
    // (completion times are monotone in the slot index, see the header),
    // garbage-collecting their ring entries for reuse.
    Time at = rg.max_done;
    while (frontier < injected &&
           ring[static_cast<std::size_t>(frontier % window)].remaining == 0) {
      at = ring[static_cast<std::size_t>(frontier % window)].max_done;
      res.commit_time[static_cast<std::size_t>(frontier)] = at;
      if (cfg.recorder != nullptr)
        cfg.recorder->record(obs::EventKind::kSlotCommit, at, frontier, 0);
      ++frontier;
    }
    if (frontier == injected) {
      // Window drained: no CPU owes work beyond the commit time, so
      // resynchronize the op timelines.  This is what pins the window-1
      // stream to N back-to-back run() calls bit-for-bit.
      for (auto& ops : next_op) std::fill(ops.begin(), ops.end(), Time{0});
    }
    inject(at);
  });

  inject(t0);
  sim.run_until_idle();
  sim.set_delivery_handler(nullptr);

  if (frontier != slots)
    throw std::logic_error(
        "StreamRuntime: stream did not drain (install StreamConfig::reliable "
        "when messages can be lost)");

  res.committed = frontier;
  res.makespan = res.commit_time[static_cast<std::size_t>(slots - 1)] - t0;
  res.channel_conflicts = sim.stats().channel_conflicts - base_conflicts;
  res.flit_hops = sim.stats().flit_hops - base_hops;
  res.sim_cycles = sim.stats().cycles - base_cycles;
  return res;
}

// ---------------------------------------------------------------------------
// Reliable path: the fast path's slot ring plus run_reliable's tracked
// records, ack timeouts with exponential backoff, and subtree deadlines —
// generalized over slots and epochs.  On a declared-dead receiver the
// whole group reconfigures: epoch++ closes every open record (their
// in-flight deliveries become stale acks), the chain is re-split over the
// survivors, and every injected-but-uncommitted slot is replayed from the
// source into the new tree.  Commit is defined over survivors, so a dead
// receiver never wedges the window.
// ---------------------------------------------------------------------------
StreamResult stream_reliable(const MulticastRuntime& rtm, sim::Simulator& sim,
                             const MulticastTree& orig, TwoParam tp,
                             const StreamConfig& cfg, Time t0) {
  const FtConfig& ft = cfg.ft;
  if (ft.max_retries < 0 || ft.max_retries > 40)
    throw std::invalid_argument("stream: max_retries out of [0, 40]");
  if (ft.timeout_scale < 1.0)
    throw std::invalid_argument("stream: timeout_scale must be >= 1");
  if (ft.timeout_slack < 0)
    throw std::invalid_argument("stream: timeout_slack must be >= 0");

  const MachineParams& mp = rtm.config().machine;
  const int k = orig.num_nodes();
  const int src = orig.chain.source_pos;
  const int engines = std::max(1, rtm.config().send_engines);
  const int window = cfg.window_size;
  const int slots = cfg.slots;
  const Bytes payload = cfg.bytes;

  StreamResult res;
  res.slots = slots;
  res.window_size = window;
  res.model_slot_latency = model_latency(orig, tp);
  res.commit_time.assign(static_cast<std::size_t>(slots), -1);
  res.delivered_prefix.assign(static_cast<std::size_t>(k), 0);
  if (cfg.record_slot_times)
    res.slot_recv.assign(static_cast<std::size_t>(slots),
                         std::vector<Time>(static_cast<std::size_t>(k), -1));

  const long long base_conflicts = sim.stats().channel_conflicts;
  const long long base_hops = sim.stats().flit_hops;
  const Time base_cycles = sim.stats().cycles;

  int epoch = 0;
  // All protocol state is keyed by *original* chain positions; the
  // current tree (rebuilt per epoch) maps into them via orig_of_cur.
  std::vector<int> orig_pos_of(
      static_cast<std::size_t>(sim.topology().num_nodes()), -1);
  for (int p = 0; p < k; ++p)
    orig_pos_of[static_cast<std::size_t>(orig.node(p))] = p;

  MulticastTree cur = orig;
  std::vector<int> orig_of_cur(static_cast<std::size_t>(k));
  std::vector<int> cur_of_orig(static_cast<std::size_t>(k));
  for (int p = 0; p < k; ++p) {
    orig_of_cur[static_cast<std::size_t>(p)] = p;
    cur_of_orig[static_cast<std::size_t>(p)] = p;
  }

  // `acting` is the orig position currently producing the stream; failover
  // reassigns it.  All "source" special cases below key off `acting`, so a
  // successor inherits them wholesale.
  int acting = src;
  std::vector<char> dead(static_cast<std::size_t>(k), 0);
  // Evicted-as-unreachable positions (dead[] is also set); a heal may
  // clear both and rejoin the position at the then-current epoch.
  std::vector<char> parted(static_cast<std::size_t>(k), 0);
  // delivered[pos][slot]; the acting source trivially holds every slot.
  std::vector<std::vector<char>> delivered(
      static_cast<std::size_t>(k),
      std::vector<char>(static_cast<std::size_t>(slots), 0));
  delivered[static_cast<std::size_t>(src)].assign(
      static_cast<std::size_t>(slots), 1);

  // Deterministic lease-based failure detection (heartbeats are modeled
  // against live fault state, see membership.hpp; member index == orig
  // chain position by construction).
  const Time hb_period = cfg.membership.heartbeat_period;
  const bool hb_on = hb_period > 0;
  std::optional<MembershipService> member;
  if (hb_on) {
    std::vector<NodeId> nodes(static_cast<std::size_t>(k));
    for (int p = 0; p < k; ++p) nodes[static_cast<std::size_t>(p)] = orig.node(p);
    member.emplace(sim, std::move(nodes), cfg.membership);
    member->set_recorder(cfg.recorder);
  }
  Time next_hb = hb_on ? t0 + hb_period : kTimeInfinity;
  // No heal can arrive after the last fault-plan event plus one full
  // confirm ladder; past this the run stops waiting for rejoins.
  Time heal_horizon = t0;
  if (hb_on) {
    Time last_ev = 0;
    for (const sim::FaultPlan::LinkEvent& ev : sim.fault_plan().link_events)
      last_ev = std::max(last_ev, ev.cycle);
    for (const sim::FaultPlan::NodeEvent& ev : sim.fault_plan().node_events)
      last_ev = std::max(last_ev, ev.cycle);
    heal_horizon =
        last_ev + hb_period * (cfg.membership.confirm_after + 2);
  }

  struct Ring {
    int slot = -1;
    int need = 0;      ///< surviving receivers still missing this slot
    Time max_done = 0;
  };
  std::vector<Ring> ring(static_cast<std::size_t>(window));
  int injected = 0;
  int frontier = 0;
  // The cumulative frontier advances when the *cumulative* condition
  // holds, so commit times are monotone by definition even when a
  // retransmitted slot finishes after its successors.
  Time last_commit = t0;

  // One tracked send of one slot; retransmissions reuse the record (and
  // its tag).  A record belongs to the epoch it was issued under: the
  // delivery handler rejects anything older than the current epoch.
  struct Rec {
    int slot = 0;
    int epoch = 0;
    int sender = 0;             ///< orig position
    int recv = 0;               ///< orig position
    int recv_cur = -1;          ///< current-tree position (primary forwarding)
    std::vector<int> interval;  ///< orig positions, ascending, incl recv
    bool primary = true;
    int attempt = 0;
    bool acked = false;
    bool closed = false;
    Time ack_deadline = 0;
    Time subtree_deadline = kTimeInfinity;
  };
  std::vector<Rec> recs;
  // Indices of the records not yet known closed, ascending: new records
  // are appended, the wait loop drops closed ones as it meets them, and
  // the epoch transitions close and clear them all.  Visiting only these
  // keeps each wake-up proportional to the open records, in the same
  // ascending order a scan of every record would use.
  std::vector<std::size_t> open_recs;
  auto close_open_recs = [&]() {
    for (const std::size_t ri : open_recs) recs[ri].closed = true;
    open_recs.clear();
  };

  std::vector<std::vector<Time>> next_op(
      static_cast<std::size_t>(k),
      std::vector<Time>(static_cast<std::size_t>(engines), 0));
  std::vector<int> engine_rr(static_cast<std::size_t>(k), 0);

  const SplitTable repair_table =
      opt_split_table(tp.t_hold, tp.t_end, std::max(2, k));
  const RetryDeadlines deadlines(ft, mp, rtm.wire_bytes(payload, 1),
                                 repair_table);

  auto issue = [&](std::size_t ri, Time base) {
    Rec& rec = recs[ri];
    const int n = static_cast<int>(rec.interval.size());
    const Bytes wire = rtm.wire_bytes(payload, n);
    const int s = rec.sender;
    int& e = engine_rr[static_cast<std::size_t>(s)];
    Time& op =
        next_op[static_cast<std::size_t>(s)][static_cast<std::size_t>(e)];
    op = std::max(op, base);
    sim::Message m;
    m.src = orig.node(s);
    m.dst = orig.node(rec.recv);
    m.flits = rtm.wire_flits(payload, n);
    m.ready_time = op + mp.t_send(wire);
    m.tag = static_cast<int>(ri);
    sim.post(m);
    ++res.messages;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kSendAttempt, op,
                           static_cast<std::int32_t>(ri), rec.attempt,
                           rec.recv, rec.slot);
    rec.ack_deadline = deadlines.ack(op, wire, rec.attempt);
    op += mp.t_hold(wire);
    e = (e + 1) % engines;
  };

  auto new_rec = [&](int slot, int sender, int recv, int recv_cur,
                     std::vector<int> interval, bool primary, Time base) {
    Rec rec;
    rec.slot = slot;
    rec.epoch = epoch;
    rec.sender = sender;
    rec.recv = recv;
    rec.recv_cur = recv_cur;
    rec.interval = std::move(interval);
    rec.primary = primary;
    recs.push_back(std::move(rec));
    open_recs.push_back(recs.size() - 1);
    issue(recs.size() - 1, base);
  };

  // Orphan re-split over sorted surviving orig positions (the survivor
  // chain keeps the original chain's relative order, so the Theorem-1
  // argument carries over exactly as in run_reliable).
  auto repair_split = [&](int slot, int sender, std::vector<int> list, Time at) {
    while (!list.empty()) {
      const int i = static_cast<int>(list.size()) + 1;
      const int j = repair_table.split(std::min(i, repair_table.size()));
      if (sender < list.front()) {
        std::vector<int> child(list.begin() + (j - 1), list.end());
        const int recv = child.front();
        list.resize(static_cast<std::size_t>(j - 1));
        new_rec(slot, sender, recv, cur_of_orig[static_cast<std::size_t>(recv)],
                std::move(child), false, at);
      } else {
        const int m = static_cast<int>(list.size()) - j;
        std::vector<int> child(list.begin(), list.begin() + m + 1);
        const int recv = child.back();
        list.erase(list.begin(), list.begin() + m + 1);
        new_rec(slot, sender, recv, cur_of_orig[static_cast<std::size_t>(recv)],
                std::move(child), false, at);
      }
    }
  };

  // Issues the primary sends of current-tree position `cpos` for `slot`;
  // sends whose receiver already holds the slot (or died) collapse into
  // repair re-splits of the surviving remainder.
  auto activate = [&](int slot, int cpos, Time at) {
    const int opos = orig_of_cur[static_cast<std::size_t>(cpos)];
    for (Time& t : next_op[static_cast<std::size_t>(opos)]) t = std::max(t, at);
    engine_rr[static_cast<std::size_t>(opos)] = 0;
    for (int idx : cur.out[static_cast<std::size_t>(cpos)]) {
      const SendEvent& ev = cur.sends[static_cast<std::size_t>(idx)];
      std::vector<int> interval;
      for (int cp = ev.sub_lo; cp <= ev.sub_hi; ++cp) {
        const int op = orig_of_cur[static_cast<std::size_t>(cp)];
        if (!delivered[static_cast<std::size_t>(op)][static_cast<std::size_t>(slot)] &&
            !dead[static_cast<std::size_t>(op)])
          interval.push_back(op);
      }
      if (interval.empty()) continue;
      const int recv = orig_of_cur[static_cast<std::size_t>(ev.receiver_pos)];
      if (!dead[static_cast<std::size_t>(recv)] &&
          !delivered[static_cast<std::size_t>(recv)][static_cast<std::size_t>(slot)]) {
        new_rec(slot, opos, recv, ev.receiver_pos, std::move(interval), true, at);
      } else {
        std::vector<int> orphan;
        for (int p : interval)
          if (p != recv) orphan.push_back(p);
        if (!orphan.empty()) repair_split(slot, opos, std::move(orphan), at);
      }
    }
  };

  auto survivors_count = [&]() {
    int n = 0;
    for (int p = 0; p < k; ++p)
      if (p != acting && !dead[static_cast<std::size_t>(p)]) ++n;
    return n;
  };

  // Commit completed front slots, then refill the window.  Every state
  // transition funnels through here so the backpressure invariant
  // (injected - frontier <= window) holds at all times.
  auto pump = [&](Time at) {
    for (;;) {
      while (frontier < injected &&
             ring[static_cast<std::size_t>(frontier % window)].need == 0) {
        const Ring& rg = ring[static_cast<std::size_t>(frontier % window)];
        last_commit = std::max(last_commit, rg.max_done);
        res.commit_time[static_cast<std::size_t>(frontier)] = last_commit;
        if (cfg.recorder != nullptr)
          cfg.recorder->record(obs::EventKind::kSlotCommit, last_commit, frontier,
                               epoch);
        ++frontier;
      }
      if (injected >= slots || injected - frontier >= window) break;
      const int slot = injected++;
      ring[static_cast<std::size_t>(slot % window)] =
          Ring{slot, survivors_count(), std::max(at, t0)};
      if (cfg.recorder != nullptr)
        cfg.recorder->record(obs::EventKind::kSlotInject, std::max(at, t0), slot,
                             epoch, acting);
      res.max_window_occupancy =
          std::max(res.max_window_occupancy, injected - frontier);
      activate(slot, cur.chain.source_pos, std::max(at, t0));
    }
  };

  // Rebuilds the current tree over the live members rooted at the acting
  // source, re-activates every injected-but-uncommitted slot into it, and
  // refills the window.  Shared tail of every epoch transition.
  auto rebuild = [&](Time now) {
    std::vector<NodeId> surv;
    for (int p = 0; p < k; ++p)
      if (p != acting && !dead[static_cast<std::size_t>(p)])
        surv.push_back(orig.node(p));
    if (!surv.empty()) {
      cur = build_multicast(cfg.alg, orig.node(acting), surv, tp, cfg.shape);
      if (cfg.on_reconfigure) cfg.on_reconfigure(cur);
      orig_of_cur.assign(static_cast<std::size_t>(cur.num_nodes()), -1);
      cur_of_orig.assign(static_cast<std::size_t>(k), -1);
      for (int cp = 0; cp < cur.num_nodes(); ++cp) {
        const int op = orig_pos_of[static_cast<std::size_t>(cur.node(cp))];
        orig_of_cur[static_cast<std::size_t>(cp)] = op;
        cur_of_orig[static_cast<std::size_t>(op)] = cp;
      }
      for (int s = frontier; s < injected; ++s)
        if (ring[static_cast<std::size_t>(s % window)].need > 0)
          activate(s, cur.chain.source_pos, now);
    }
    pump(now);
  };

  // Epoch-based eviction: declare `dpos` gone, invalidate every open
  // record (their in-flight deliveries will be rejected as stale),
  // re-split the chain over the survivors, and replay each uncommitted
  // slot from the source into the new tree.  A partitioned eviction is
  // rejoinable; a fail-stop one is permanent.
  auto evict_pos = [&](int dpos, Time now, bool partitioned) {
    dead[static_cast<std::size_t>(dpos)] = 1;
    if (partitioned)
      parted[static_cast<std::size_t>(dpos)] = 1;
    else
      res.dead_nodes.push_back(orig.node(dpos));
    ++epoch;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kEpochBump, now, epoch, dpos,
                           partitioned ? 1 : 0);
    close_open_recs();
    for (int s = frontier; s < injected; ++s) {
      Ring& rg = ring[static_cast<std::size_t>(s % window)];
      if (!delivered[static_cast<std::size_t>(dpos)][static_cast<std::size_t>(s)])
        --rg.need;  // the evicted receiver no longer gates this commit
    }
    rebuild(now);
  };

  // Source succession: the alive member with the highest committed prefix
  // (ties by lowest node id) on the plurality side of any cut takes over
  // production.  Returns false when the stream cannot continue (failover
  // disabled or no eligible successor).
  auto do_failover = [&](Time now) {
    dead[static_cast<std::size_t>(acting)] = 1;
    res.dead_nodes.push_back(orig.node(acting));
    // A deposed source never rejoins: pin it crashed in the detector even
    // when the confirm classified it unreachable.
    member->evict(acting, false);
    if (!cfg.failover) return false;
    const std::vector<int> plur = member->plurality_members();
    int succ = -1;
    int best = -1;
    for (int p = 0; p < k; ++p) {
      if (p == acting || dead[static_cast<std::size_t>(p)]) continue;
      if (std::find(plur.begin(), plur.end(), p) == plur.end()) continue;
      int prefix = 0;
      while (prefix < slots &&
             delivered[static_cast<std::size_t>(p)][static_cast<std::size_t>(prefix)])
        ++prefix;
      if (prefix > best || (prefix == best && orig.node(p) < orig.node(succ))) {
        succ = p;
        best = prefix;
      }
    }
    if (succ < 0) return false;
    ++epoch;
    ++res.failovers;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kFailover, now, epoch, succ, best);
    close_open_recs();
    // The successor stops gating in-flight commits (it regenerates any
    // slot it lacks from its replicated ring / the deterministic payload).
    for (int s = frontier; s < injected; ++s) {
      Ring& rg = ring[static_cast<std::size_t>(s % window)];
      if (!delivered[static_cast<std::size_t>(succ)][static_cast<std::size_t>(s)])
        --rg.need;
    }
    delivered[static_cast<std::size_t>(succ)].assign(
        static_cast<std::size_t>(slots), 1);
    acting = succ;
    rebuild(now);
    return true;
  };

  // Healed partition: re-admit `p` at a fresh epoch.  In-flight slots are
  // replayed through the rebuilt (p-inclusive) tree; committed slots p
  // missed are delta-caught-up with dedicated unicast records.
  auto rejoin_pos = [&](int p, Time now) {
    dead[static_cast<std::size_t>(p)] = 0;
    parted[static_cast<std::size_t>(p)] = 0;
    member->readmit(p);
    ++epoch;
    ++res.rejoins;
    int prefix = 0;
    while (prefix < slots &&
           delivered[static_cast<std::size_t>(p)][static_cast<std::size_t>(prefix)])
      ++prefix;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kRejoin, now, epoch, p, prefix);
    close_open_recs();
    for (int s = frontier; s < injected; ++s) {
      Ring& rg = ring[static_cast<std::size_t>(s % window)];
      if (!delivered[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)])
        ++rg.need;  // p gates in-flight commits again
    }
    rebuild(now);
    for (int s = prefix; s < std::min(frontier, slots); ++s)
      if (!delivered[static_cast<std::size_t>(p)][static_cast<std::size_t>(s)])
        new_rec(s, acting, p, cur_of_orig[static_cast<std::size_t>(p)], {p},
                false, now);
  };

  // One heartbeat sweep: apply the detector's verdicts.  Returns false
  // when the stream must halt (source gone, no failover possible).  After
  // a failover the remaining verdicts of this sweep are stale (they were
  // adjudicated from the deposed observer) and are dropped; the next
  // sweep re-evaluates from the successor.
  auto on_heartbeat = [&](Time now) {
    const std::vector<MembershipEvent> evs = member->sweep(orig.node(acting));
    for (const MembershipEvent& ev : evs) {
      const int p = ev.member;
      switch (ev.kind) {
        case MembershipEvent::Kind::kSuspect:
          if (!dead[static_cast<std::size_t>(p)]) ++res.suspects;
          break;
        case MembershipEvent::Kind::kClear:
          break;
        case MembershipEvent::Kind::kCrashed:
          if (p == acting) return do_failover(now);
          if (!dead[static_cast<std::size_t>(p)]) evict_pos(p, now, false);
          break;
        case MembershipEvent::Kind::kUnreachable:
          if (p == acting) return do_failover(now);
          if (!dead[static_cast<std::size_t>(p)]) evict_pos(p, now, true);
          break;
        case MembershipEvent::Kind::kHealed:
          if (cfg.rejoin && parted[static_cast<std::size_t>(p)])
            rejoin_pos(p, now);
          break;
      }
    }
    return true;
  };

  sim.set_delivery_handler([&](const sim::Message& m) {
    if (m.corrupted) return;  // undecodable: the ack timeout retransmits
    const std::size_t ri = static_cast<std::size_t>(m.tag);
    // activate/repair_split below grow `recs`; copy everything first.
    const int slot = recs[ri].slot;
    const int pos = recs[ri].recv;
    const int rec_epoch = recs[ri].epoch;
    const int n = static_cast<int>(recs[ri].interval.size());
    const Time done = m.delivered + mp.t_recv(rtm.wire_bytes(payload, n));
    if (rec_epoch < epoch) {
      // The group reconfigured while this message was in flight: its
      // world no longer exists.  Reject the ack so old-tree deliveries
      // can never advance new-epoch state.
      ++res.stale_acks;
      if (cfg.recorder != nullptr)
        cfg.recorder->record(obs::EventKind::kStaleAck, done, slot, rec_epoch,
                             pos);
      return;
    }
    if (delivered[static_cast<std::size_t>(pos)][static_cast<std::size_t>(slot)]) {
      ++res.duplicate_deliveries;
      if (!recs[ri].acked) {
        recs[ri].acked = true;
        recs[ri].subtree_deadline = deadlines.subtree(done, n);
        if (cfg.recorder != nullptr)
          cfg.recorder->record(obs::EventKind::kSendAcked, done,
                               static_cast<std::int32_t>(ri),
                               recs[ri].attempt, pos, slot);
      }
      return;
    }
    delivered[static_cast<std::size_t>(pos)][static_cast<std::size_t>(slot)] = 1;
    if (cfg.record_slot_times)
      res.slot_recv[static_cast<std::size_t>(slot)][static_cast<std::size_t>(pos)] =
          done;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kSlotDeliver, done, slot, epoch, pos);
    if (slot >= frontier) {
      Ring& rg = ring[static_cast<std::size_t>(slot % window)];
      --rg.need;
      rg.max_done = std::max(rg.max_done, done);
    }
    recs[ri].acked = true;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kSendAcked, done,
                           static_cast<std::int32_t>(ri), recs[ri].attempt,
                           pos, slot);
    const bool primary = recs[ri].primary;
    const int recv_cur = recs[ri].recv_cur;
    if (n <= 1) {
      recs[ri].closed = true;
    } else {
      recs[ri].subtree_deadline = deadlines.subtree(done, n);
      if (primary) {
        activate(slot, recv_cur, done);
      } else {
        const std::vector<int> interval = recs[ri].interval;
        std::vector<int> rest;
        for (int p : interval)
          if (p != pos &&
              !delivered[static_cast<std::size_t>(p)][static_cast<std::size_t>(slot)] &&
              !dead[static_cast<std::size_t>(p)])
            rest.push_back(p);
        if (!rest.empty()) repair_split(slot, pos, std::move(rest), done);
      }
    }
    pump(done);
  });

  sim.set_drop_handler([&](const sim::Message& m) {
    // A fail-stopped sender cannot run its retry ladder; close the record
    // and let the ancestor's subtree deadline re-cover the interval.
    if (m.drop_reason != sim::DropReason::kSenderDead) return;
    recs[static_cast<std::size_t>(m.tag)].closed = true;
  });

  pump(t0);

  auto any_parted = [&]() {
    for (int p = 0; p < k; ++p)
      if (parted[static_cast<std::size_t>(p)]) return true;
    return false;
  };

  long guard = 0;
  long guard_max = 1000 + 64L * (k + slots) * (ft.max_retries + 2);
  if (hb_on)
    guard_max +=
        64 + static_cast<long>((heal_horizon - t0) / std::max<Time>(1, hb_period));
  for (;;) {
    Time horizon = kTimeInfinity;
    std::erase_if(open_recs, [&](std::size_t ri) { return recs[ri].closed; });
    for (const std::size_t ri : open_recs) {
      const Rec& rec = recs[ri];
      horizon =
          std::min(horizon, rec.acked ? rec.subtree_deadline : rec.ack_deadline);
    }
    if (open_recs.empty()) {
      // With rejoin enabled, a drained stream still waits out the heal
      // horizon while evicted-as-unreachable members might come back.
      const bool heal_pending =
          hb_on && cfg.rejoin && any_parted() && next_hb <= heal_horizon;
      if (!heal_pending) {
        if (frontier >= slots || ++guard > guard_max) {
          sim.run_until_idle();  // drain duplicates and purging worms
          break;
        }
        // No records in flight but slots remain: only possible transiently
        // (e.g. every survivor died); pump either finishes or re-opens.
        pump(std::max(sim.now(), t0));
        continue;
      }
      horizon = next_hb;
    }
    if (++guard > guard_max) {
      sim.run_until_idle();
      break;
    }
    if (hb_on) horizon = std::min(horizon, next_hb);
    sim.run_until_idle(horizon);
    // An idle network freezes the simulated clock, which would also freeze
    // pending fault-plan events (e.g. the heal this run is waiting for);
    // roll the clock forward explicitly so membership sees them.
    if (hb_on && sim.idle()) sim.advance_idle_to(horizon);
    const Time now = std::max(sim.now(), horizon);

    if (hb_on && now >= next_hb) {
      while (next_hb <= now) next_hb += hb_period;
      if (!on_heartbeat(now)) {
        // The source is gone and no successor could take over: the stream
        // ends here with whatever committed (complete stays false).
        sim.run_until_idle();
        break;
      }
      continue;  // membership may have closed/reissued records; re-plan
    }

    std::vector<std::size_t> retx;
    struct Job {
      int slot;
      int sender;
      std::vector<int> list;
    };
    std::vector<Job> jobs;
    int death = -1;
    for (const std::size_t ri : open_recs) {
      Rec& rec = recs[ri];
      if (rec.closed) continue;
      if (!rec.acked) {
        if (delivered[static_cast<std::size_t>(rec.recv)]
                     [static_cast<std::size_t>(rec.slot)]) {
          // Served via another record; keep watching the interval.
          rec.acked = true;
          rec.subtree_deadline =
              deadlines.subtree(now, static_cast<int>(rec.interval.size()));
          continue;
        }
        if (now < rec.ack_deadline) continue;
        if (rec.attempt < ft.max_retries) {
          retx.push_back(ri);
        } else {
          // Out of retries: fail-stop presumed.  One death per sweep; the
          // epoch bump invalidates every other expired record anyway.
          death = rec.recv;
          break;
        }
      } else {
        bool resolved = true;
        for (int p : rec.interval)
          if (!delivered[static_cast<std::size_t>(p)]
                        [static_cast<std::size_t>(rec.slot)] &&
              !dead[static_cast<std::size_t>(p)]) {
            resolved = false;
            break;
          }
        if (resolved) {
          rec.closed = true;
          continue;
        }
        if (now < rec.subtree_deadline) continue;
        // Receiver is alive but its subtree went quiet: it re-splits what
        // is left of its own interval.
        rec.closed = true;
        std::vector<int> orphan;
        for (int p : rec.interval)
          if (p != rec.recv &&
              !delivered[static_cast<std::size_t>(p)]
                        [static_cast<std::size_t>(rec.slot)] &&
              !dead[static_cast<std::size_t>(p)])
            orphan.push_back(p);
        if (!orphan.empty()) jobs.push_back({rec.slot, rec.recv, std::move(orphan)});
      }
    }
    if (death >= 0) {
      // Retry exhaustion alone cannot tell a crash from a cut; when the
      // detector is on, consult reachability so a partitioned receiver is
      // evicted rejoinably instead of declared dead forever.
      bool partitioned = false;
      if (hb_on) {
        partitioned =
            !member->round_trip_reachable(orig.node(acting), orig.node(death));
        member->evict(death, partitioned);
      }
      evict_pos(death, now, partitioned);
      continue;
    }
    for (std::size_t ri : retx) {
      ++recs[ri].attempt;
      ++res.retries;
      issue(ri, now);
    }
    for (Job& job : jobs) repair_split(job.slot, job.sender, std::move(job.list), now);
  }
  sim.set_delivery_handler(nullptr);
  sim.set_drop_handler(nullptr);

  res.committed = frontier;
  res.epoch = epoch;
  long long pairs = 0;
  bool all = true;
  for (int p = 0; p < k; ++p) {
    const auto& got = delivered[static_cast<std::size_t>(p)];
    int prefix = 0;
    while (prefix < slots && got[static_cast<std::size_t>(prefix)]) ++prefix;
    res.delivered_prefix[static_cast<std::size_t>(p)] = prefix;
    if (p == src) continue;  // the original source is not a receiver
    for (int s = 0; s < slots; ++s) pairs += got[static_cast<std::size_t>(s)];
    all = all && prefix == slots;
    if (parted[static_cast<std::size_t>(p)])
      res.unreachable_nodes.push_back(orig.node(p));
  }
  res.complete = all;
  res.delivered_fraction =
      k > 1 ? static_cast<double>(pairs) /
                  (static_cast<double>(k - 1) * static_cast<double>(slots))
            : 1.0;
  res.makespan =
      (frontier > 0 ? res.commit_time[static_cast<std::size_t>(frontier - 1)]
                    : t0) -
      t0;
  res.channel_conflicts = sim.stats().channel_conflicts - base_conflicts;
  res.flit_hops = sim.stats().flit_hops - base_hops;
  res.sim_cycles = sim.stats().cycles - base_cycles;
  std::sort(res.dead_nodes.begin(), res.dead_nodes.end());
  std::sort(res.unreachable_nodes.begin(), res.unreachable_nodes.end());
  return res;
}

}  // namespace

StreamResult StreamRuntime::run(sim::Simulator& sim, NodeId source,
                                std::span<const NodeId> dests,
                                const StreamConfig& cfg, Time t0) const {
  if (!sim.idle()) throw std::logic_error("StreamRuntime::run: simulator busy");
  if (cfg.window_size < 1)
    throw std::invalid_argument("stream: window_size must be >= 1");
  if (cfg.slots < 1) throw std::invalid_argument("stream: slots must be >= 1");
  if (cfg.bytes < 0) throw std::invalid_argument("stream: negative payload");
  if (dests.empty()) throw std::invalid_argument("stream: no destinations");
  if (sim.fault_plan_active() && !cfg.reliable)
    throw std::logic_error(
        "StreamRuntime::run: fault plan installed; set StreamConfig::reliable");
  if (cfg.membership.heartbeat_period < 0)
    throw std::invalid_argument("stream: heartbeat period must be >= 0");
  const bool hb = cfg.membership.heartbeat_period > 0;
  if (hb && !cfg.reliable)
    throw std::invalid_argument("stream: membership requires reliable mode");
  if (hb && (cfg.membership.suspect_after < 1 ||
             cfg.membership.confirm_after <= cfg.membership.suspect_after))
    throw std::invalid_argument(
        "stream: need 1 <= suspect_after < confirm_after");
  if ((cfg.failover || cfg.rejoin) && !hb)
    throw std::invalid_argument(
        "stream: failover/rejoin require a heartbeat period");
  if (t0 < sim.now()) t0 = sim.now();
  const TwoParam tp =
      rtm_.config().machine.two_param(rtm_.wire_bytes(cfg.bytes, 1));
  const MulticastTree tree =
      build_multicast(cfg.alg, source, dests, tp, cfg.shape);
  if (cfg.on_reconfigure) cfg.on_reconfigure(tree);
  return cfg.reliable ? stream_reliable(rtm_, sim, tree, tp, cfg, t0)
                      : stream_fast(rtm_, sim, tree, cfg, t0);
}

}  // namespace pcm::rt
