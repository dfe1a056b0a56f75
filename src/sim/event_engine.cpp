#include "sim/event_engine.hpp"

#include <algorithm>

namespace pcm::sim {

EventEngine::EventEngine(Simulator& sim)
    : sim_(sim), r_(sim.cfg_.router_delay) {
  ports_per_node_ = sim.topo_.ports_per_node();
  rr_.resize(static_cast<std::size_t>(sim.topo_.num_routers()));
  seen_.assign(sim.channel_msg_.size(), 0);
  eng_free_from_.resize(static_cast<std::size_t>(sim.topo_.num_nodes()) *
                        static_cast<std::size_t>(ports_per_node_));
  reset();
}

void EventEngine::reenter() {
  reset();
  ++sim_.reentries_;
}

void EventEngine::reset() {
  // A quiescent network holds no flits and no reservations, so the only
  // cycle-engine state the closed forms need is each arbiter's position:
  // every router is drained, its start folded into its anchor, which the
  // accounting below advances.
  calendar_ = {};  // materialize() leaves the entries it abandoned
  worms_.clear();
  live_.clear();
  free_worms_.clear();
  std::fill(eng_free_from_.begin(), eng_free_from_.end(), Time{0});
  const Time now = sim_.cycle_;
  std::fill(rr_.begin(), rr_.end(), RrAcct{now, now});
  rr_spill_.reset(rr_.size());
  windows_.reset(sim_.channel_msg_.size());
  admitted_live_ = 0;
  settled_ = now - 1;
  inflight_ = 0;
}

bool EventEngine::advance(Time max_cycles) {
  if (admitted_live_ > 0 && sim_.observer_ != nullptr) {
    // An observer attached between runs must see every reserve and
    // release, which admitted worms do not produce.
    bail_out();
    return false;
  }
  Time t = kTimeInfinity;
  if (!calendar_.empty()) t = calendar_.top().cycle;
  if (!sim_.posts_.empty()) t = std::min(t, sim_.posts_.top().ready);
  const bool quiescent = sim_.network_quiescent();
  // A fault event under live worms changes the network mid-flight; on a
  // quiescent network it applies at the next post release instead, as in
  // the cycle engine's fast-forward.
  const Time fault = sim_.faults_active_ && !quiescent ? sim_.next_fault_cycle()
                                                       : kTimeInfinity;
  const bool fault_due = fault <= t;
  if (fault_due) t = fault;
  if (t == kTimeInfinity) {
    // Unreachable while the run loop's !idle() guard holds: a non-idle
    // network always has a future event.  Materialize defensively.
    bail_out();
    return false;
  }
  if (t < sim_.cycle_) t = sim_.cycle_;
  if (t >= max_cycles && !quiescent) {
    // Horizon: the reference engine would tick silently (laminar flow
    // emits nothing) up to max_cycles and stop mid-flight.  Stop there
    // with the calendar intact; finish_run() settles the statistics, and
    // a later run resumes the closed forms.  A *quiescent* network
    // instead replicates the cycle engine's fast-forward overshoot: the
    // post-release cycle executes even at t >= max_cycles.
    sim_.cycle_ = max_cycles;
    return true;
  }
  if (fault_due) {
    materialize(t, Materialization::kFaultEvent);
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
  materialize(sim_.cycle_, Materialization::kBail);
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
  sim_.cycle_ = t;
  ++sim_.event_cycles_;
  // Phase order mirrors Simulator::step(): faults (due here only on a
  // quiescent network), post releases, arbitration, transfer, injection.
  if (sim_.faults_active_) sim_.apply_due_faults();
  sim_.release_due_posts(&pulls_);  // a free engine pulls this very cycle
  drain_due(t);
  if (!commit_arbitrations(t)) return false;  // materialized at t
  drain_due(t);  // single-flit grants release (and deliver) this cycle
  commit_xfers(t);
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
  sim_.notify_finished();
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
    // The sweep start only orders several heads at one router.
    const int rr0 = j - i > 1 ? rr_start_at(router, t) : 0;
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
        materialize(t, Materialization::kBail);
        return false;
      }
      int granted = -1;
      for (const int q : cand_) {
        const int cid = router * radix + q;
        if (sim_.faults_active_ && sim_.channel_down(cid)) {
          // The cycle engine skips the dead candidate, and purges the
          // head if no live one remains.
          materialize(t, Materialization::kDrop);
          return false;
        }
        if (sim_.channel_msg_[static_cast<std::size_t>(cid)] != kInvalidMsg)
          continue;
        if (std::find(tentative_.begin(), tentative_.end(), cid) !=
            tentative_.end())
          continue;
        if (admitted_live_ > 0 && !window_clear(cid, t, t + w.flits - 1)) {
          // An admitted worm holds this channel now or will reserve it
          // before the grant would release it: the precomputed path and
          // this head collide, and the cycle engine arbitrates them.
          materialize(t, Materialization::kContention);
          return false;
        }
        granted = q;
        break;
      }
      if (granted < 0) {
        // contention: the cycle engine replays the block
        materialize(t, Materialization::kContention);
        return false;
      }
      const int cid = router * radix + granted;
      if (sim_.eject_[static_cast<std::size_t>(cid)] == kInvalidNode) {
        const PortRef d = sim_.link_[static_cast<std::size_t>(cid)];
        if (!d.valid()) {
          materialize(t, Materialization::kBail);  // transfer() throws verbatim
          return false;
        }
        if (sim_.faults_active_ && sim_.drops_(w.id, d.router)) {
          // The head is mangled crossing the link in this cycle's transfer
          // phase; the cycle engine purges the worm there.
          materialize(t, Materialization::kDrop);
          return false;
        }
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
    add_window(cid, t, t + w.flits - 1);
    w.hops.push_back(Hop{router, w.head_at.port, q, t});
    sched(t + w.flits - 1, Ev::kXfer, wi,
          static_cast<int>(w.hops.size()) - 1);
    if (sim_.eject_[static_cast<std::size_t>(cid)] != kInvalidNode) {
      w.ejecting = true;
      w.eject_start = t;
    } else {
      w.head_at = sim_.link_[static_cast<std::size_t>(cid)];
      sched(t + r_, Ev::kArb, wi);
      rr_post(w.head_at.router, t + 1, t + r_ + w.flits);
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
    if (!w.admitted) {
      // An admitted worm's only entry is its delivery; it never marked
      // its channels held.
      sim_.channel_msg_[static_cast<std::size_t>(h.router) * sim_.radix_ +
                        h.out_port] = kInvalidMsg;
      if (sim_.observer_ != nullptr)
        sim_.observer_->on_release(h.router, h.out_port, w.id, t);
    }
    if (w.ejecting && k == static_cast<int>(w.hops.size()) - 1) {
      if (w.admitted) --admitted_live_;
      Message& m = sim_.messages_.at(w.id);
      if (sim_.faults_active_ && plan_corrupts(sim_.plan_, w.id)) {
        m.corrupted = true;
        ++sim_.stats_.messages_corrupted;
      }
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
      hop_hint_ = std::max(hop_hint_, w.hops.size());
    }
  }
}

void EventEngine::commit_inject_dones(Time t) {
  for (const int wi : dones_) {
    Worm& w = worms_[wi];
    const NodeId node = static_cast<NodeId>(w.nic_engine / ports_per_node_);
    Message& m = sim_.messages_.at(w.id);
    m.inject_done = t;
    sim_.nic_engines_[static_cast<std::size_t>(w.nic_engine)].active = kInvalidMsg;
    eng_free_from_[static_cast<std::size_t>(w.nic_engine)] = t + 1;
    // The freed engine re-pulls at the next injection sweep; the queue is
    // consulted *after* this cycle's post releases, mirroring step().
    if (!sim_.nic_queues_[static_cast<std::size_t>(node)].empty())
      sched(t + 1, Ev::kNicPull, node);
    touched_.push_back(node);
  }
}

void EventEngine::do_pulls(NodeId n, Time t) {
  Simulator::NicQueue& queue = sim_.nic_queues_[static_cast<std::size_t>(n)];
  const std::size_t base =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(ports_per_node_);
  for (int e = 0; e < ports_per_node_; ++e) {
    if (queue.empty()) break;
    Simulator::NicEngine& eng = sim_.nic_engines_[base + static_cast<std::size_t>(e)];
    if (eng.active != kInvalidMsg ||
        eng_free_from_[base + static_cast<std::size_t>(e)] > t)
      continue;
    const MsgId id = queue.front();
    queue.pop();
    eng.active = id;
    eng.flits_sent = 0;
    Message& m = sim_.messages_.at(id);
    m.inject_start = t;
    int wi = static_cast<int>(worms_.size());
    if (free_worms_.empty()) {
      // A new slot starts with room for the longest path delivered so
      // far, so it rarely regrows.
      worms_.emplace_back().hops.reserve(hop_hint_);
    } else {
      wi = free_worms_.back();
      free_worms_.pop_back();
    }
    Worm& w = worms_[static_cast<std::size_t>(wi)];
    w.id = id;
    w.flits = m.flits;
    w.t0 = t;
    w.eject_start = -1;
    w.ejecting = false;
    w.admitted = false;
    w.nic_engine = static_cast<int>(base) + e;
    w.head_at = sim_.attach_[base + static_cast<std::size_t>(e)];
    w.hops.clear();  // keeps the slot's capacity
    w.hops_settled = 0;
    live_.push_back(wi);
    sched(t + m.flits - 1, Ev::kInjectDone, wi);
    if (!try_admit(wi, t)) {
      sched(t + r_, Ev::kArb, wi);
      rr_post(w.head_at.router, t + 1, t + r_ + w.flits);
    }
  }
}

bool EventEngine::try_admit(int wi, Time t0) {
  if (sim_.observer_ != nullptr) return false;  // per-hop events wanted
  Worm& w = worms_[static_cast<std::size_t>(wi)];
  const Message& m = sim_.messages_.at(w.id);
  const int radix = sim_.radix_;
  const Time span = w.flits - 1;
  // Hop k's window is [a_k, a_k + F - 1] with a_k = t0 + (k + 1) R: the
  // lint kernel's reserve[i].  With every window free, the head wins its
  // first candidate at each a_k whatever the sweep order, since any other
  // head taking that channel would hold an overlapping window.  The path
  // is the first-candidate route, whole from one append_path call: a
  // skipped candidate would make the grant depend on same-cycle
  // competitors.  A path that stops short or leaves the head's router
  // keeps the worm on the per-hop path.
  path_.clear();
  if (!sim_.topo_.append_path(m.src, m.dst, path_)) return false;
  ++stamp_;
  PortRef at = w.head_at;
  Time a = t0 + r_;
  for (const ChannelId cid : path_) {
    const int q = cid - at.router * radix;
    if (q < 0 || q >= radix) break;  // not the router the head is at
    const auto c = static_cast<std::size_t>(cid);
    // A revisited channel (a routing loop) would overlap itself.
    if (seen_[c] == stamp_ || !window_clear(cid, a, a + span)) break;
    if (sim_.faults_active_ && sim_.channel_down(cid)) break;
    seen_[c] = stamp_;
    w.hops.push_back(Hop{at.router, at.port, q, a});
    if (sim_.eject_[c] != kInvalidNode) {
      w.ejecting = true;
      break;
    }
    const PortRef d = sim_.link_[c];
    if (!d.valid()) break;
    if (sim_.faults_active_ && sim_.drops_(w.id, d.router)) break;
    at = d;
    a += r_;
  }
  if (!w.ejecting) {
    w.hops.clear();  // the per-hop path meets whatever stopped the walk
    return false;
  }
  Time begin = t0 + 1;  // a_{-1} + 1
  for (const Hop& h : w.hops) {
    add_window(h.router * radix + h.out_port, h.reserve, h.reserve + span);
    rr_post(h.router, begin, h.reserve + w.flits);
    begin = h.reserve + 1;
  }
  w.admitted = true;
  w.eject_start = w.hops.back().reserve;
  sched(w.eject_start + span, Ev::kXfer, wi,
        static_cast<int>(w.hops.size()) - 1);
  ++admitted_live_;
  ++sim_.admitted_worms_;
  return true;
}

bool EventEngine::window_clear(int cid, Time s, Time e) {
  const auto c = static_cast<std::size_t>(cid);
  const std::span<Window> v = windows_.view(c);
  const Time now = sim_.cycle_;
  bool clear = true;
  std::size_t keep = 0;
  for (const Window& x : v) {
    if (x.end < now) continue;  // released: cannot meet a window from now on
    v[keep++] = x;
    if (x.start <= e && x.end >= s) clear = false;
  }
  windows_.truncate(c, keep);
  return clear;
}

void EventEngine::add_window(int cid, Time s, Time e) {
  const auto c = static_cast<std::size_t>(cid);
  // Per-hop grants add windows nobody may check (no admission runs under
  // an observer), so adding prunes too, once the oldest has expired.
  const std::span<const Window> v = windows_.view(c);
  if (!v.empty() && v.front().end < sim_.cycle_)
    (void)window_clear(cid, s, e);  // for its pruning only
  windows_.push_back(c, Window{s, e});
}

void EventEngine::recheck_nic_busy(NodeId n) {
  if (!sim_.nic_busy(n)) {
    --sim_.busy_nics_;
    sim_.nic_words_[static_cast<std::size_t>(n) >> 6] &= ~(1ULL << (n & 63));
  }
}

void EventEngine::rr_post(int router, Time b, Time e) {
  RrAcct& a = rr_[static_cast<std::size_t>(router)];
  if (b >= a.b && b <= a.e) {  // meets the newest segment: extend it
    a.e = std::max(a.e, e);
    return;
  }
  if (b > a.e) {
    // A later segment becomes the newest.  The old one folds into the
    // anchor once it is over (no later post or read reaches back into
    // it), and otherwise waits in the list.
    const Segment old{a.b, a.e};
    a.b = b;
    a.e = e;
    if (old.e <= sim_.cycle_)
      sim_.routers_[static_cast<std::size_t>(router)].rr_advance(old.e - old.b);
    else
      rr_merge(router, old.b, old.e);
    return;
  }
  rr_merge(router, b, e);
}

void EventEngine::rr_merge(int router, Time b, Time e) {
  const auto r = static_cast<std::size_t>(router);
  // Segments over by now only wait for a read; shed them as the list grows.
  if (rr_spill_.size(r) >= 16) (void)rr_start_at(router, sim_.cycle_);
  RrAcct& a = rr_[r];
  const std::span<Segment> s = rr_spill_.view(r);
  std::size_t i = s.size();
  while (i > 0 && s[i - 1].e >= b) --i;
  std::size_t j = i;
  for (; j < s.size() && s[j].b <= e; ++j) {
    b = std::min(b, s[j].b);
    e = std::max(e, s[j].e);
  }
  if (j == s.size() && e >= a.b) {  // reaches the newest segment
    a.b = b;
    a.e = std::max(a.e, e);
    rr_spill_.truncate(r, i);
  } else if (j == i) {
    rr_spill_.insert(r, i, Segment{b, e});
  } else {
    s[i] = Segment{b, e};
    std::copy(s.begin() + static_cast<std::ptrdiff_t>(j), s.end(),
              s.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    rr_spill_.truncate(r, s.size() - (j - i - 1));
  }
}

int EventEngine::rr_start_at(int router, Time at) {
  // Posts start after the current cycle and reads come at or after it, so
  // cycles before `at` are final once counted.
  const auto r = static_cast<std::size_t>(router);
  RrAcct& a = rr_[r];
  const std::span<Segment> s = rr_spill_.view(r);
  long long n = 0;
  std::size_t i = 0;
  for (; i < s.size() && s[i].e <= at; ++i) n += s[i].e - s[i].b;
  if (i < s.size() && s[i].b < at) {
    n += at - s[i].b;
    s[i].b = at;
  }
  if (i > 0) rr_spill_.erase_front(r, i);
  if (a.b < at) {
    const Time cut = std::min(a.e, at);
    n += cut - a.b;
    a.b = cut;
  }
  Router& rt = sim_.routers_[r];
  rt.rr_advance(n);
  return rt.rr_anchor();
}

int EventEngine::rr_position(int router) const {
  // rr_start_at(router, now) without folding.
  const Time at = sim_.cycle_;
  const auto r = static_cast<std::size_t>(router);
  const RrAcct& a = rr_[r];
  long long n = sim_.routers_[r].rr_anchor();
  for (const Segment& s : rr_spill_.view(r)) {
    if (s.b >= at) break;
    n += std::min(s.e, at) - s.b;
  }
  if (a.b < at) n += std::min(a.e, at) - a.b;
  return static_cast<int>(n % sim_.radix_);
}

void EventEngine::settle_window(Time upto) {
  while (settled_ < upto) {
    // No event lies in (settled_, upto], so the injecting worm set is
    // that of the first unsettled cycle.  Only an admitted worm's
    // consumption can begin inside the window (its ejection reserve is no
    // event), so the window splits there and each piece is linear.
    const Time s = settled_ + 1;
    Time end = upto;
    long long rate = 0;
    bool injecting = false;
    for (const int wi : live_) {
      const Worm& w = worms_[static_cast<std::size_t>(wi)];
      if (s <= w.t0 + w.flits - 1) {
        ++rate;
        injecting = true;
      }
      if (w.eject_start < 0) continue;
      if (w.eject_start <= s)
        --rate;
      else
        end = std::min(end, w.eject_start - 1);
    }
    if (injecting) {
      // max_inflight samples only on injection cycles; on a linear stretch
      // the peak is at whichever endpoint the slope favours.
      const long long peak =
          inflight_ + (rate > 0 ? rate * (end - settled_) : rate);
      if (peak > sim_.stats_.max_inflight_flits)
        sim_.stats_.max_inflight_flits = static_cast<int>(peak);
    }
    inflight_ += rate * (end - settled_);
    settled_ = end;
  }
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
    if (w.eject_start >= 0 && w.eject_start <= t)
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

void EventEngine::materialize(Time at, Materialization why) {
  ++sim_.materializations_[static_cast<int>(why)];
  settle_window(at - 1);
  settle_hops(at - 1);
  // Rebuild the exact start-of-cycle `at` microstate from the closed
  // forms: flit i sits in stage s's FIFO iff a_{s-1}+i < at <= a_s+i
  // (a_{-1} = t0; the stage past the last reserved hop is unbounded).
  // Hops reserved at or after `at` (an admitted worm's future) are not
  // part of the state yet.
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
    int routed = 0;
    while (routed < static_cast<int>(w.hops.size()) &&
           w.hops[static_cast<std::size_t>(routed)].reserve < at)
      ++routed;
    const bool ejecting =
        w.ejecting && routed == static_cast<int>(w.hops.size());
    const int stages = ejecting ? routed : routed + 1;
    // The head waits at the input of the first unreserved hop.
    const PortRef head =
        routed < static_cast<int>(w.hops.size())
            ? PortRef{w.hops[static_cast<std::size_t>(routed)].router,
                      w.hops[static_cast<std::size_t>(routed)].in_port}
            : w.head_at;
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
        slot.router = head.router;
        slot.port = head.port;
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
      sim_.nic_engines_[static_cast<std::size_t>(w.nic_engine)].flits_sent =
          static_cast<int>(at - w.t0);
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
    for (const Hop& h : w.hops) {
      if (h.reserve >= at || h.reserve + w.flits - 1 < at) continue;
      sim_.routers_[static_cast<std::size_t>(h.router)].reserve(h.in_port,
                                                                h.out_port);
      // Admitted worms never marked their channels held.
      sim_.channel_msg_[static_cast<std::size_t>(h.router) * sim_.radix_ +
                        h.out_port] = w.id;
    }
  }
  for (int r = 0; r < static_cast<int>(sim_.routers_.size()); ++r) {
    Router& router = sim_.routers_[static_cast<std::size_t>(r)];
    (void)rr_start_at(r, at);  // the anchor: the start at `at`
    if (router.activity() == 0) continue;
    router.rr_resume(at);
    Simulator::mark(sim_.active_words_, r);
    if (router.pending() > 0) Simulator::mark(sim_.pending_words_, r);
    if (router.movable_mask() != 0) Simulator::mark(sim_.xfer_words_, r);
  }
  sim_.inflight_flits_ = static_cast<int>(inflight_);
  sim_.cycle_ = at;
  handoff_stalled_ =
      lastp < 0 ? 0 : std::max<Time>(0, (at - 1) - lastp);
  sim_.event_mode_ = false;
  live_.clear();
}

}  // namespace pcm::sim
