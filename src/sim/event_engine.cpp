#include "sim/event_engine.hpp"

#include <algorithm>

namespace pcm::sim {

EventEngine::EventEngine(Simulator& sim)
    : sim_(sim), r_(sim.cfg_.router_delay) {
  ports_per_node_ = sim.topo_.ports_per_node();
  rr_.resize(static_cast<std::size_t>(sim.topo_.num_routers()));
  eng_free_from_.assign(static_cast<std::size_t>(sim.topo_.num_nodes()) *
                            static_cast<std::size_t>(ports_per_node_),
                        0);
  settled_ = sim.cycle_ - 1;
}

bool EventEngine::advance(Time max_cycles) {
  Time t = kTimeInfinity;
  if (!calendar_.empty()) t = calendar_.top().cycle;
  if (!sim_.posts_.empty()) t = std::min(t, sim_.posts_.top().ready);
  if (t == kTimeInfinity) {
    // Unreachable while the run loop's !idle() guard holds: a non-idle
    // network always has a future event.  Materialize defensively.
    bail_out();
    return false;
  }
  if (t < sim_.cycle_) t = sim_.cycle_;
  if (t >= max_cycles && !sim_.network_quiescent()) {
    // Truncation: the reference engine would tick silently (laminar flow
    // emits nothing) up to max_cycles and stop mid-flight.  Hand over the
    // exact microstate there so a later run — or inspection — continues
    // identically.  A *quiescent* network instead replicates the cycle
    // engine's fast-forward overshoot: the post-release cycle executes
    // even at t >= max_cycles.
    settle_window(max_cycles - 1);
    settle_hops(max_cycles - 1);
    materialize(max_cycles);
    return false;
  }
  if (t > sim_.cycle_ && sim_.observer_ != nullptr)
    sim_.observer_->on_fast_forward(sim_.cycle_, t);
  return process_cycle(t);
}

void EventEngine::finish_run() {
  settle_window(sim_.cycle_ - 1);
  settle_hops(sim_.cycle_ - 1);
}

void EventEngine::bail_out() {
  settle_window(sim_.cycle_ - 1);
  settle_hops(sim_.cycle_ - 1);
  materialize(sim_.cycle_);
}

void EventEngine::sched(Time cycle, Ev phase, int a, int b) {
  calendar_.push(Entry{cycle, static_cast<int>(phase), a, b});
}

void EventEngine::drain_due(Time t) {
  while (!calendar_.empty() && calendar_.top().cycle <= t) {
    const Entry e = calendar_.top();
    calendar_.pop();
    switch (static_cast<Ev>(e.phase)) {
      case Ev::kArb: arbs_.push_back(e.a); break;
      case Ev::kXfer: xfers_.emplace_back(e.a, e.b); break;
      case Ev::kInjectDone: dones_.push_back(e.a); break;
      case Ev::kNicPull: pulls_.push_back(static_cast<NodeId>(e.a)); break;
    }
  }
}

bool EventEngine::process_cycle(Time t) {
  settle_window(t - 1);
  arbs_.clear();
  xfers_.clear();
  dones_.clear();
  pulls_.clear();
  touched_.clear();
  drain_due(t);
  // Phase order mirrors Simulator::step(): arbitration, transfer,
  // injection (post releases carry no observable and do not feed
  // arbitration, so ordering them after the arb commit is equivalent).
  if (!commit_arbitrations(t)) return false;  // materialized at t
  drain_due(t);  // single-flit grants release (and deliver) this cycle
  commit_xfers(t);
  release_posts_into_nics(t);
  commit_inject_dones(t);
  std::sort(pulls_.begin(), pulls_.end());
  pulls_.erase(std::unique(pulls_.begin(), pulls_.end()), pulls_.end());
  for (const NodeId n : pulls_) do_pulls(n, t);
  dones_.clear();
  drain_due(t);  // single-flit pulls finish injecting this very cycle
  commit_inject_dones(t);
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  for (const NodeId n : touched_) recheck_nic_busy(n);
  settle_end_of_cycle(t);
  sim_.cycle_ = t + 1;
  fire_delivery_handlers();
  return true;
}

bool EventEngine::commit_arbitrations(Time t) {
  if (arbs_.empty()) return true;
  const int radix = sim_.radix_;
  // Cycle-engine sweep order: routers ascending, then ports from the
  // reconstructed rotating-priority start.  Dry-run first: nothing may be
  // committed before every head is known to win, because a loss hands the
  // *whole* cycle to the reference engine for replay.
  std::sort(arbs_.begin(), arbs_.end(), [this](int a, int b) {
    if (worms_[a].head_at.router != worms_[b].head_at.router)
      return worms_[a].head_at.router < worms_[b].head_at.router;
    return a < b;
  });
  grants_.clear();
  tentative_.clear();
  for (std::size_t i = 0; i < arbs_.size();) {
    const int router = worms_[arbs_[i]].head_at.router;
    std::size_t j = i;
    while (j < arbs_.size() && worms_[arbs_[j]].head_at.router == router) ++j;
    const int rr0 = static_cast<int>(rr_bumps(router, t) % radix);
    for (int s = 0; s < radix; ++s) {
      const int p = (rr0 + s) % radix;
      int wi = -1;
      for (std::size_t k = i; k < j; ++k)
        if (worms_[arbs_[k]].head_at.port == p) {
          wi = arbs_[k];
          break;
        }
      if (wi < 0) continue;
      const Worm& w = worms_[wi];
      const Message& m = sim_.messages_.at(w.id);
      cand_.clear();
      sim_.topo_.route(router, p, m.src, m.dst, cand_);
      if (cand_.empty()) {
        // The reference engine throws from arbitrate() this cycle; replay
        // from the exact microstate so earlier grants in this sweep and
        // the error text come out verbatim.
        materialize(t);
        return false;
      }
      int granted = -1;
      for (const int q : cand_) {
        const int cid = router * radix + q;
        if (sim_.channel_msg_[static_cast<std::size_t>(cid)] != kInvalidMsg)
          continue;
        if (std::find(tentative_.begin(), tentative_.end(), cid) !=
            tentative_.end())
          continue;
        granted = q;
        break;
      }
      if (granted < 0) {
        materialize(t);  // contention: the cycle engine replays the block
        return false;
      }
      const int cid = router * radix + granted;
      if (sim_.eject_cache_[static_cast<std::size_t>(cid)] == kInvalidNode &&
          !sim_.link_cache_[static_cast<std::size_t>(cid)].valid()) {
        materialize(t);  // unwired channel: transfer() throws verbatim
        return false;
      }
      tentative_.push_back(cid);
      grants_.emplace_back(wi, granted);
    }
    i = j;
  }
  // Every head won: commit, emitting reservations in sweep order.  The
  // head crosses into the next router during this cycle's transfer phase
  // (residency == router_delay exactly; laminar flow never back-pressures
  // because fifo_capacity >= router_delay + 1).
  for (const auto& [wi, q] : grants_) {
    Worm& w = worms_[wi];
    const int router = w.head_at.router;
    const int cid = router * radix + q;
    sim_.channel_msg_[static_cast<std::size_t>(cid)] = w.id;
    if (sim_.observer_ != nullptr)
      sim_.observer_->on_reserve(router, q, w.id, t);
    w.hops.push_back(Hop{router, w.head_at.port, q, t});
    sched(t + w.flits - 1, Ev::kXfer, wi,
          static_cast<int>(w.hops.size()) - 1);
    if (sim_.eject_cache_[static_cast<std::size_t>(cid)] != kInvalidNode) {
      w.ejecting = true;
      w.eject_start = t;
    } else {
      w.head_at = sim_.link_cache_[static_cast<std::size_t>(cid)];
      sched(t + r_, Ev::kArb, wi);
      rr_begin(w.head_at.router, t + 1);
    }
  }
  return true;
}

void EventEngine::commit_xfers(Time t) {
  if (xfers_.empty()) return;
  // Cycle-engine transfer sweep order: routers ascending, out-ports
  // ascending; a delivery commits inline right after its release.
  std::sort(xfers_.begin(), xfers_.end(),
            [this](const std::pair<int, int>& a, const std::pair<int, int>& b) {
              const Hop& ha = worms_[a.first].hops[static_cast<std::size_t>(a.second)];
              const Hop& hb = worms_[b.first].hops[static_cast<std::size_t>(b.second)];
              if (ha.router != hb.router) return ha.router < hb.router;
              return ha.out_port < hb.out_port;
            });
  for (const auto& [wi, k] : xfers_) {
    Worm& w = worms_[wi];
    const Hop& h = w.hops[static_cast<std::size_t>(k)];
    sim_.channel_msg_[static_cast<std::size_t>(h.router) * sim_.radix_ +
                      h.out_port] = kInvalidMsg;
    if (sim_.observer_ != nullptr)
      sim_.observer_->on_release(h.router, h.out_port, w.id, t);
    rr_end(h.router, t + 1);
    if (w.ejecting && k == static_cast<int>(w.hops.size()) - 1) {
      Message& m = sim_.messages_.at(w.id);
      m.delivered = t;
      ++sim_.stats_.messages_delivered;
      --sim_.undelivered_;
      sim_.delivered_now_.push_back(w.id);
      if (sim_.observer_ != nullptr) sim_.observer_->on_deliver(m, t);
      const long long total =
          static_cast<long long>(w.flits) * static_cast<long long>(w.hops.size());
      sim_.stats_.flit_hops += total - w.hops_settled;
      w.hops_settled = total;
      last_progress_ = std::max(last_progress_, t);
      auto it = std::find(live_.begin(), live_.end(), wi);
      *it = live_.back();
      live_.pop_back();
      // No calendar entry outlives the ejection release (every other
      // release and the inject-done fall strictly earlier), so the slot
      // is free for the next pull.
      free_worms_.push_back(wi);
    }
  }
}

void EventEngine::release_posts_into_nics(Time t) {
  while (!sim_.posts_.empty() && sim_.posts_.top().ready <= t) {
    const MsgId id = sim_.posts_.top().id;
    sim_.posts_.pop();
    const NodeId src = sim_.messages_.at(id).src;
    Simulator::Nic& nic = sim_.nics_[static_cast<std::size_t>(src)];
    if (!nic.busy()) {
      ++sim_.busy_nics_;
      sim_.nic_words_[static_cast<std::size_t>(src) >> 6] |= 1ULL << (src & 63);
    }
    nic.queue.push_back(id);
    pulls_.push_back(src);  // a free engine pulls this very cycle
  }
}

void EventEngine::commit_inject_dones(Time t) {
  for (const int wi : dones_) {
    Worm& w = worms_[wi];
    const NodeId node = static_cast<NodeId>(w.nic_engine / ports_per_node_);
    const int e = w.nic_engine % ports_per_node_;
    Message& m = sim_.messages_.at(w.id);
    m.inject_done = t;
    sim_.nics_[static_cast<std::size_t>(node)].engines[static_cast<std::size_t>(e)]
        .active = kInvalidMsg;
    eng_free_from_[static_cast<std::size_t>(w.nic_engine)] = t + 1;
    // The freed engine re-pulls at the next injection sweep; the queue is
    // consulted *after* this cycle's post releases, mirroring step().
    if (!sim_.nics_[static_cast<std::size_t>(node)].queue.empty())
      sched(t + 1, Ev::kNicPull, node);
    touched_.push_back(node);
  }
}

void EventEngine::do_pulls(NodeId n, Time t) {
  Simulator::Nic& nic = sim_.nics_[static_cast<std::size_t>(n)];
  const std::size_t base =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(ports_per_node_);
  for (int e = 0; e < ports_per_node_; ++e) {
    if (nic.queue.empty()) break;
    Simulator::Nic::Engine& eng = nic.engines[static_cast<std::size_t>(e)];
    if (eng.active != kInvalidMsg ||
        eng_free_from_[base + static_cast<std::size_t>(e)] > t)
      continue;
    const MsgId id = nic.queue.front();
    nic.queue.pop_front();
    eng.active = id;
    eng.flits_sent = 0;
    Message& m = sim_.messages_.at(id);
    m.inject_start = t;
    Worm w;
    w.id = id;
    w.flits = m.flits;
    w.t0 = t;
    w.nic_engine = static_cast<int>(base) + e;
    w.head_at = sim_.attach_cache_[base + static_cast<std::size_t>(e)];
    int wi = static_cast<int>(worms_.size());
    if (free_worms_.empty()) {
      worms_.push_back(std::move(w));
    } else {
      wi = free_worms_.back();
      free_worms_.pop_back();
      worms_[static_cast<std::size_t>(wi)] = std::move(w);
    }
    live_.push_back(wi);
    sched(t + r_, Ev::kArb, wi);
    sched(t + m.flits - 1, Ev::kInjectDone, wi);
    rr_begin(worms_[static_cast<std::size_t>(wi)].head_at.router, t + 1);
  }
}

void EventEngine::recheck_nic_busy(NodeId n) {
  Simulator::Nic& nic = sim_.nics_[static_cast<std::size_t>(n)];
  if (!nic.busy()) {
    --sim_.busy_nics_;
    sim_.nic_words_[static_cast<std::size_t>(n) >> 6] &= ~(1ULL << (n & 63));
  }
}

void EventEngine::fire_delivery_handlers() {
  if (sim_.delivered_now_.empty()) return;
  sim_.delivery_batch_.swap(sim_.delivered_now_);
  if (sim_.on_delivery_)
    for (const MsgId id : sim_.delivery_batch_)
      sim_.on_delivery_(sim_.messages_.at(id));
  sim_.delivery_batch_.clear();
}

void EventEngine::rr_flush(int router, Time upto) {
  RrAcct& a = rr_[static_cast<std::size_t>(router)];
  if (a.refcnt > 0) a.accum += upto - a.since;
  a.since = upto;
}

void EventEngine::rr_begin(int router, Time from) {
  rr_flush(router, from);
  ++rr_[static_cast<std::size_t>(router)].refcnt;
}

void EventEngine::rr_end(int router, Time from) {
  rr_flush(router, from);
  --rr_[static_cast<std::size_t>(router)].refcnt;
}

long long EventEngine::rr_bumps(int router, Time at) const {
  const RrAcct& a = rr_[static_cast<std::size_t>(router)];
  return a.accum + (a.refcnt > 0 ? at - a.since : 0);
}

void EventEngine::settle_window(Time upto) {
  if (upto <= settled_) return;
  // No event lies in (settled_, upto], so the injecting/consuming worm
  // sets are those of the first unsettled cycle and the count is linear.
  const Time s = settled_ + 1;
  long long rate = 0;
  bool injecting = false;
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    if (s <= w.t0 + w.flits - 1) {
      ++rate;
      injecting = true;
    }
    if (w.eject_start >= 0) --rate;
  }
  if (injecting) {
    // max_inflight samples only on injection cycles; on a linear stretch
    // the peak is at whichever endpoint the slope favours.
    const long long peak =
        inflight_ + (rate > 0 ? rate * (upto - settled_) : rate);
    if (peak > sim_.stats_.max_inflight_flits)
      sim_.stats_.max_inflight_flits = static_cast<int>(peak);
  }
  inflight_ += rate * (upto - settled_);
  settled_ = upto;
  sim_.inflight_flits_ = static_cast<int>(inflight_);
}

void EventEngine::settle_end_of_cycle(Time t) {
  long long f = 0;
  bool injected = false;
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    const Time last = w.t0 + w.flits - 1;
    f += std::min(t, last) - w.t0 + 1;
    if (t <= last) injected = true;
    if (w.eject_start >= 0)
      f -= std::min(t, w.eject_start + w.flits - 1) - w.eject_start + 1;
  }
  inflight_ = f;
  settled_ = t;
  sim_.inflight_flits_ = static_cast<int>(f);
  if (injected && f > sim_.stats_.max_inflight_flits)
    sim_.stats_.max_inflight_flits = static_cast<int>(f);
}

void EventEngine::settle_hops(Time upto) {
  for (const int wi : live_) {
    Worm& w = worms_[static_cast<std::size_t>(wi)];
    long long pops = 0;
    for (const Hop& h : w.hops) {
      if (h.reserve > upto) continue;  // pops run over [a_k, a_k + F - 1]
      pops += std::min<Time>(upto - h.reserve + 1, w.flits);
    }
    sim_.stats_.flit_hops += pops - w.hops_settled;
    w.hops_settled = pops;
  }
}

void EventEngine::materialize(Time at) {
  settle_window(at - 1);
  settle_hops(at - 1);
  // Rebuild the exact start-of-cycle `at` microstate from the closed
  // forms: flit i sits in stage s's FIFO iff a_{s-1}+i < at <= a_s+i
  // (a_{-1} = t0; the stage past the last committed hop is unbounded).
  struct Slot {
    int router;
    int port;
    Time entry;
    Flit flit;
  };
  std::vector<Slot> slots;
  Time lastp = last_progress_;
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    const int F = w.flits;
    const int routed = static_cast<int>(w.hops.size());
    const int stages = w.ejecting ? routed : routed + 1;
    if (w.t0 <= at - 1)
      lastp = std::max(lastp, std::min<Time>(at - 1, w.t0 + F - 1));
    for (const Hop& h : w.hops)
      if (h.reserve <= at - 1)
        lastp = std::max(lastp, std::min<Time>(at - 1, h.reserve + F - 1));
    for (int i = 0; i < F; ++i) {
      if (w.t0 + i > at - 1) break;  // not yet injected
      int s = 0;
      bool placed = false;
      for (; s < stages; ++s) {
        const Time pop = s < routed
                             ? w.hops[static_cast<std::size_t>(s)].reserve + i
                             : kTimeInfinity;
        if (at <= pop) {
          placed = true;
          break;
        }
      }
      if (!placed) continue;  // already consumed at the destination
      Slot slot;
      if (s < routed) {
        slot.router = w.hops[static_cast<std::size_t>(s)].router;
        slot.port = w.hops[static_cast<std::size_t>(s)].in_port;
      } else {
        slot.router = w.head_at.router;
        slot.port = w.head_at.port;
      }
      slot.entry =
          (s == 0 ? w.t0 : w.hops[static_cast<std::size_t>(s - 1)].reserve) + i;
      slot.flit.msg = w.id;
      slot.flit.head = (i == 0);
      slot.flit.tail = (i == F - 1);
      slots.push_back(slot);
    }
    if (w.t0 + F - 1 >= at) {
      // Mid-injection: restore the NI engine's progress counter (the
      // active message id is already live in the simulator's NIC state).
      const std::size_t node = static_cast<std::size_t>(w.nic_engine) /
                               static_cast<std::size_t>(ports_per_node_);
      const std::size_t e = static_cast<std::size_t>(w.nic_engine) %
                            static_cast<std::size_t>(ports_per_node_);
      sim_.nics_[node].engines[e].flits_sent = static_cast<int>(at - w.t0);
    }
  }
  // FIFO pushes in global (router, port, entry) order: a FIFO shared by
  // back-to-back worms receives their flits in true arrival order, and
  // accepts precede reserves so the pending counter nets exactly.
  std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    if (a.router != b.router) return a.router < b.router;
    if (a.port != b.port) return a.port < b.port;
    return a.entry < b.entry;
  });
  for (const Slot& s : slots)
    sim_.routers_[static_cast<std::size_t>(s.router)].accept(s.port, s.flit,
                                                             s.entry);
  for (const int wi : live_) {
    const Worm& w = worms_[static_cast<std::size_t>(wi)];
    for (const Hop& h : w.hops)
      if (h.reserve + w.flits - 1 >= at)
        sim_.routers_[static_cast<std::size_t>(h.router)].reserve(h.in_port,
                                                                  h.out_port);
  }
  for (int r = 0; r < static_cast<int>(sim_.routers_.size()); ++r) {
    Router& router = sim_.routers_[static_cast<std::size_t>(r)];
    router.set_rr_start(static_cast<int>(rr_bumps(r, at) % sim_.radix_));
    if (router.activity() > 0) sim_.mark_router_active(r);
  }
  sim_.inflight_flits_ = static_cast<int>(inflight_);
  sim_.cycle_ = at;
  handoff_stalled_ =
      lastp < 0 ? 0 : std::max<Time>(0, (at - 1) - lastp);
  sim_.event_disabled_ = true;
  live_.clear();
}

}  // namespace pcm::sim
