#include "runtime/stream_runtime.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "runtime/reliable_sends.hpp"

namespace pcm::rt {
namespace {

// The result fields both paths fill alike before a run ...
StreamResult open_result(const MulticastTree& tree, TwoParam tp,
                         const StreamConfig& cfg, int prefix) {
  const auto k = static_cast<std::size_t>(tree.num_nodes());
  StreamResult res;
  res.slots = cfg.slots;
  res.window_size = cfg.window_size;
  res.model_slot_latency = model_latency(tree, tp);
  res.commit_time.assign(static_cast<std::size_t>(cfg.slots), -1);
  res.delivered_prefix.assign(k, prefix);
  if (cfg.record_slot_times)
    res.slot_recv.assign(static_cast<std::size_t>(cfg.slots), std::vector<Time>(k, -1));
  return res;
}

// ... and after it (simulator counters count from `base`).
void close_result(StreamResult& res, const sim::Simulator& sim,
                  const sim::SimStats& base, int frontier, Time t0) {
  res.committed = frontier;
  res.makespan =
      (frontier > 0 ? res.commit_time[static_cast<std::size_t>(frontier - 1)] : t0) - t0;
  res.channel_conflicts = sim.stats().channel_conflicts - base.channel_conflicts;
  res.flit_hops = sim.stats().flit_hops - base.flit_hops;
  res.sim_cycles = sim.stats().cycles - base.cycles;
}

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
                         const MulticastTree& tree, TwoParam tp,
                         const StreamConfig& cfg, Time t0) {
  const MachineParams& mp = rtm.config().machine;
  const int k = tree.num_nodes();
  const int src = tree.chain.source_pos;
  const auto engines = static_cast<std::size_t>(std::max(1, rtm.config().send_engines));
  const int n_sends = static_cast<int>(tree.sends.size());
  const int window = cfg.window_size;
  const int slots = cfg.slots;
  const Bytes payload = cfg.bytes;

  StreamResult res = open_result(tree, tp, cfg, slots);
  const sim::SimStats base = sim.stats();
  std::vector<Time> next_op(static_cast<std::size_t>(k) * engines, 0);

  struct Ring {
    int remaining = 0;   ///< receivers still missing this slot
    Time max_done = 0;   ///< latest finish-receive time so far
  };
  std::vector<Ring> ring(static_cast<std::size_t>(window));
  int injected = 0;
  int frontier = 0;

  // run()'s activate, with the slot folded into the tag.
  auto activate = [&](int slot, int pos, Time at) {
    const std::span<Time> ops(&next_op[static_cast<std::size_t>(pos) * engines], engines);
    res.messages += rtm.post_sends(sim, tree, pos, payload, at, ops, slot * n_sends);
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
      std::fill(next_op.begin(), next_op.end(), Time{0});
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

  close_result(res, sim, base, frontier, t0);
  return res;
}

// ---------------------------------------------------------------------------
// Reliable path: a slot ring over the tracked-send core (ReliableSends).
// A receiver out of retries reconfigures the whole group: epoch++ closes
// every open record (their in-flight deliveries become stale acks), the
// chain is re-split over the survivors, and every uncommitted slot is
// replayed from the source into the new tree.  Commit is defined over
// survivors, so a dead receiver never wedges the window.
// ---------------------------------------------------------------------------
StreamResult stream_reliable(const MulticastRuntime& rtm, sim::Simulator& sim,
                             const MulticastTree& orig, TwoParam tp,
                             const StreamConfig& cfg, Time t0) {
  // All protocol state is keyed by *original* chain positions; the
  // current tree (rebuilt per epoch) maps into them inside the core.
  ReliableSends sends(rtm, sim, orig, cfg.bytes, cfg.ft, 0, cfg.slots, cfg.recorder);
  const int k = orig.num_nodes();
  const int src = orig.chain.source_pos;
  const int window = cfg.window_size;
  const int slots = cfg.slots;

  StreamResult res = open_result(orig, tp, cfg, 0);
  const sim::SimStats base = sim.stats();

  // A record belongs to the epoch it was issued under; the records of
  // epoch e start at index epoch_first[e].  The delivery handler rejects
  // anything older than the current epoch.
  int epoch = 0;
  std::vector<std::size_t> epoch_first = {0};
  auto bump_epoch = [&]() {
    ++epoch;
    epoch_first.push_back(sends.size());
    sends.close_all();
  };
  MulticastTree cur;  // the current tree once an epoch rebuilt it

  // `acting` is the orig position currently producing the stream; failover
  // reassigns it.  All "source" special cases below key off `acting`, so a
  // successor inherits them wholesale.
  int acting = src;
  // Evicted-as-unreachable positions (also dead in the core); a heal may
  // clear both and rejoin the position at the then-current epoch.
  std::vector<char> parted(static_cast<std::size_t>(k), 0);
  sends.hold_all(src);  // the acting source trivially holds every slot

  // Deterministic lease-based failure detection (heartbeats are modeled
  // against live fault state, see membership.hpp; member index == orig
  // chain position by construction).
  const Time hb_period = cfg.membership.heartbeat_period;
  const bool hb_on = hb_period > 0;
  std::optional<MembershipService> member;
  if (hb_on) {
    member.emplace(sim, orig.chain.nodes, cfg.membership);
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
    heal_horizon = last_ev + hb_period * (cfg.membership.confirm_after + 2);
  }

  struct Ring {
    int need = 0;  ///< surviving receivers still missing this slot
    Time max_done = 0;
  };
  std::vector<Ring> ring(static_cast<std::size_t>(window));
  int injected = 0;
  int frontier = 0;
  // The cumulative frontier advances when the *cumulative* condition
  // holds, so commit times are monotone by definition even when a
  // retransmitted slot finishes after its successors.
  Time last_commit = t0;

  // `p` stops (delta -1) or starts again (+1) gating the commit of every
  // in-flight slot it lacks.
  auto regate = [&](int p, int delta) {
    for (int s = frontier; s < injected; ++s)
      if (!sends.delivered(p, s))
        ring[static_cast<std::size_t>(s % window)].need += delta;
  };

  auto survivors_count = [&]() {
    int n = 0;
    for (int p = 0; p < k; ++p) n += p != acting && !sends.dead(p);
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
          cfg.recorder->record(obs::EventKind::kSlotCommit, last_commit, frontier, epoch);
        ++frontier;
      }
      if (injected >= slots || injected - frontier >= window) break;
      const int slot = injected++;
      ring[static_cast<std::size_t>(slot % window)] =
          Ring{survivors_count(), std::max(at, t0)};
      if (cfg.recorder != nullptr)
        cfg.recorder->record(obs::EventKind::kSlotInject, std::max(at, t0), slot,
                             epoch, acting);
      res.max_window_occupancy =
          std::max(res.max_window_occupancy, injected - frontier);
      sends.activate(slot, sends.tree().chain.source_pos, std::max(at, t0));
    }
  };

  // Rebuilds the current tree over the live members rooted at the acting
  // source, re-activates every injected-but-uncommitted slot into it, and
  // refills the window.  Shared tail of every epoch transition.
  auto rebuild = [&](Time now) {
    std::vector<NodeId> surv;
    for (int p = 0; p < k; ++p)
      if (p != acting && !sends.dead(p)) surv.push_back(orig.node(p));
    if (!surv.empty()) {
      cur = build_multicast(cfg.alg, orig.node(acting), surv, tp, cfg.shape);
      if (cfg.on_reconfigure) cfg.on_reconfigure(cur);
      sends.retarget(cur);
      for (int s = frontier; s < injected; ++s)
        if (ring[static_cast<std::size_t>(s % window)].need > 0)
          sends.activate(s, cur.chain.source_pos, now);
    }
    pump(now);
  };

  // Epoch-based eviction: declare `dpos` gone, invalidate every open
  // record (their in-flight deliveries will be rejected as stale),
  // re-split the chain over the survivors, and replay each uncommitted
  // slot from the source into the new tree.  A partitioned eviction is
  // rejoinable; a fail-stop one is permanent.
  auto evict_pos = [&](int dpos, Time now, bool partitioned) {
    sends.mark_dead(dpos);
    if (partitioned)
      parted[static_cast<std::size_t>(dpos)] = 1;
    else
      res.dead_nodes.push_back(orig.node(dpos));
    bump_epoch();
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kEpochBump, now, epoch, dpos,
                           partitioned ? 1 : 0);
    regate(dpos, -1);
    rebuild(now);
  };

  // Source succession: the alive member with the highest committed prefix
  // (ties by lowest node id) on the plurality side of any cut takes over
  // production.  Returns false when the stream cannot continue (failover
  // disabled or no eligible successor).
  auto do_failover = [&](Time now) {
    sends.mark_dead(acting);
    res.dead_nodes.push_back(orig.node(acting));
    // A deposed source never rejoins: pin it crashed in the detector even
    // when the confirm classified it unreachable.
    member->evict(acting, false);
    if (!cfg.failover) return false;
    const std::vector<int> plur = member->plurality_members();
    int succ = -1;
    int best = -1;
    for (int p = 0; p < k; ++p) {
      if (p == acting || sends.dead(p)) continue;
      if (std::find(plur.begin(), plur.end(), p) == plur.end()) continue;
      const int prefix = sends.prefix(p);
      if (prefix > best || (prefix == best && orig.node(p) < orig.node(succ))) {
        succ = p;
        best = prefix;
      }
    }
    if (succ < 0) return false;
    bump_epoch();
    ++res.failovers;
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kFailover, now, epoch, succ, best);
    // The successor stops gating in-flight commits (it regenerates any
    // slot it lacks from its replicated ring / the deterministic payload).
    regate(succ, -1);
    sends.hold_all(succ);
    acting = succ;
    rebuild(now);
    return true;
  };

  // Healed partition: re-admit `p` at a fresh epoch.  In-flight slots are
  // replayed through the rebuilt (p-inclusive) tree; committed slots p
  // missed are delta-caught-up with dedicated unicast records.
  auto rejoin_pos = [&](int p, Time now) {
    sends.revive(p);
    parted[static_cast<std::size_t>(p)] = 0;
    member->readmit(p);
    bump_epoch();
    ++res.rejoins;
    const int prefix = sends.prefix(p);
    if (cfg.recorder != nullptr)
      cfg.recorder->record(obs::EventKind::kRejoin, now, epoch, p, prefix);
    regate(p, +1);
    rebuild(now);
    for (int s = prefix; s < std::min(frontier, slots); ++s)
      if (!sends.delivered(p, s)) sends.catch_up(s, acting, p, now);
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
          if (!sends.dead(p)) ++res.suspects;
          break;
        case MembershipEvent::Kind::kClear:
          break;
        case MembershipEvent::Kind::kCrashed:
        case MembershipEvent::Kind::kUnreachable:
          if (p == acting) return do_failover(now);
          if (!sends.dead(p))
            evict_pos(p, now, ev.kind == MembershipEvent::Kind::kUnreachable);
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
    const auto ri = static_cast<std::size_t>(m.tag);
    if (ri < epoch_first.back()) {
      // The group reconfigured while this message was in flight: its
      // world no longer exists.  Reject the ack so old-tree deliveries
      // can never advance new-epoch state.
      ++res.stale_acks;
      if (cfg.recorder != nullptr) {
        const auto rec_epoch =
            std::upper_bound(epoch_first.begin(), epoch_first.end(), ri) -
            epoch_first.begin() - 1;
        cfg.recorder->record(obs::EventKind::kStaleAck, sends.done(m),
                             sends.send(ri).slot, static_cast<int>(rec_epoch),
                             sends.send(ri).recv);
      }
      return;
    }
    const auto first = sends.deliver(m, [&](int slot, int pos, Time done) {
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
    });
    if (first) pump(*first);
  });
  sim.set_drop_handler([&](const sim::Message& m) { sends.drop(m); });

  pump(t0);

  long guard = 0;
  long guard_max = 1000 + 64L * (k + slots) * (cfg.ft.max_retries + 2);
  if (hb_on)
    guard_max +=
        64 + static_cast<long>((heal_horizon - t0) / std::max<Time>(1, hb_period));
  for (;;) {
    Time horizon = sends.horizon();
    if (sends.idle()) {
      // With rejoin enabled, a drained stream still waits out the heal
      // horizon while evicted-as-unreachable members might come back.
      const bool heal_pending =
          hb_on && cfg.rejoin && next_hb <= heal_horizon &&
          std::find(parted.begin(), parted.end(), char{1}) != parted.end();
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

    // Out of retries: fail-stop presumed.  One death per sweep; the epoch
    // bump invalidates every other expired record anyway.
    int death = -1;
    if (sends.sweep(now, [&](std::size_t ri) {
          death = sends.send(ri).recv;
          return false;
        }))
      continue;
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
  }
  sim.set_delivery_handler(nullptr);
  sim.set_drop_handler(nullptr);

  close_result(res, sim, base, frontier, t0);
  res.epoch = epoch;
  res.messages = sends.counts().messages;
  res.retries = sends.counts().retries;
  res.duplicate_deliveries = sends.counts().duplicates;
  long long pairs = 0;
  bool all = true;
  for (int p = 0; p < k; ++p) {
    const int prefix = sends.prefix(p);
    res.delivered_prefix[static_cast<std::size_t>(p)] = prefix;
    if (p == src) continue;  // the original source is not a receiver
    for (int s = 0; s < slots; ++s) pairs += sends.delivered(p, s);
    all = all && prefix == slots;
    if (parted[static_cast<std::size_t>(p)])
      res.unreachable_nodes.push_back(orig.node(p));
  }
  res.complete = all;
  res.delivered_fraction =
      k > 1 ? static_cast<double>(pairs) /
                  (static_cast<double>(k - 1) * static_cast<double>(slots))
            : 1.0;
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
                      : stream_fast(rtm_, sim, tree, tp, cfg, t0);
}

}  // namespace pcm::rt
