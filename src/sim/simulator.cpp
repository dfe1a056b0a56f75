#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "sim/event_engine.hpp"

namespace pcm::sim {

namespace {

std::string err_at(const char* what, Time cycle, MsgId msg) {
  std::string s(what);
  s += " (cycle ";
  s += std::to_string(cycle);
  s += ", msg ";
  s += std::to_string(msg);
  s += ")";
  return s;
}

}  // namespace

std::string WatchdogReport::to_string() const {
  std::ostringstream os;
  os << "cycle=" << cycle << " stalled_cycles=" << stalled_cycles << "\n";
  os << "stalled messages (" << stalled.size() << "):\n";
  for (const StalledMessage& m : stalled) {
    os << "  msg " << m.msg << ": " << m.src << " -> " << m.dst << ", "
       << (m.injected ? "in network" : "not injected") << ", blocked "
       << m.block_cycles << " cycles\n";
  }
  os << "channel reservations (" << reservations.size() << "):\n";
  for (const Reservation& r : reservations)
    os << "  " << r.channel << " held by msg " << r.holder << "\n";
  if (!deadlock_cycle.empty()) {
    os << "suspected deadlock cycle: ";
    for (const MsgId m : deadlock_cycle) os << "msg " << m << " -> ";
    os << "msg " << deadlock_cycle.front() << "\n";
  } else {
    os << "no wait-for cycle found (flow-control, fault, or NI stall)\n";
  }
  os << channel_occupancy;
  return os.str();
}

namespace {

SimConfig normalized(SimConfig cfg) {
  if (cfg.fifo_capacity < cfg.router_delay + 1) {
    // A flit rests router_delay cycles in every buffer; keep enough slots
    // that residency does not throttle a fully pipelined channel.
    cfg.fifo_capacity = static_cast<int>(cfg.router_delay) + 1;
  }
  return cfg;
}

}  // namespace

std::vector<MsgId> first_wait_cycle(const std::vector<std::vector<MsgId>>& waits_on) {
  // The recursive search, unrolled: `path` is the recursion stack (every
  // grey message, root first) and `next_edge` each frame's loop index.
  enum : char { kWhite, kGrey, kBlack };
  std::vector<char> color(waits_on.size(), kWhite);
  std::vector<MsgId> path;
  std::vector<std::size_t> next_edge;
  for (std::size_t root = 0; root < waits_on.size(); ++root) {
    if (color[root] != kWhite || waits_on[root].empty()) continue;
    color[root] = kGrey;
    path.push_back(static_cast<MsgId>(root));
    next_edge.push_back(0);
    while (!path.empty()) {
      const auto u = static_cast<std::size_t>(path.back());
      if (next_edge.back() == waits_on[u].size()) {
        color[u] = kBlack;
        path.pop_back();
        next_edge.pop_back();
        continue;
      }
      const MsgId v = waits_on[u][next_edge.back()++];
      if (color[static_cast<std::size_t>(v)] == kGrey)
        return {std::find(path.begin(), path.end(), v), path.end()};
      if (color[static_cast<std::size_t>(v)] == kWhite) {
        color[static_cast<std::size_t>(v)] = kGrey;
        path.push_back(v);
        next_edge.push_back(0);
      }
    }
  }
  return {};
}

Simulator::Simulator(const Topology& topo, SimConfig cfg)
    : topo_(topo),
      cfg_(normalized(cfg)),
      radix_(topo.radix()),
      ports_per_node_(topo.ports_per_node()),
      arena_(topo.num_routers(), radix_, cfg_.fifo_capacity),
      routers_(arena_.routers()) {
  const auto nodes = static_cast<std::size_t>(topo.num_nodes());
  const auto channels = static_cast<std::size_t>(topo.num_routers()) * radix_;
  nic_queues_.resize(nodes);
  nic_engines_.resize(nodes * static_cast<std::size_t>(ports_per_node_));

  // The topology is immutable for the simulator's lifetime, so every
  // per-flit virtual lookup can be a load from its shared tables.
  const Wiring& w = topo.wiring();
  link_ = w.link.data();
  eject_ = w.eject.data();
  attach_ = w.attach.data();
  route_memo_.resize(channels);
  memo_cands_ = std::make_unique_for_overwrite<int[]>(channels * radix_);

  active_words_.resize((routers_.size() + 63) / 64, 0);
  pending_words_.resize(active_words_.size(), 0);
  xfer_words_.resize(active_words_.size(), 0);
  nic_words_.resize((nodes + 63) / 64, 0);
  standing_head_.resize(channels, kInvalidMsg);

  channel_dead_.assign(channels, 0);
  node_dead_.assign(nodes, 0);
  channel_msg_.assign(channels, kInvalidMsg);

  // Per-cycle scratch: sized once here so steady-state cycles (and the
  // event engine's delivery batches) never reallocate.
  delivered_now_.reserve(64);
  delivery_batch_.reserve(64);
  dropped_now_.reserve(64);
}

Simulator::~Simulator() = default;  // EventEngine is complete here

void Simulator::set_fault_plan(FaultPlan plan) {
  if (cycle_ != 0 || messages_.size() != 0)
    throw std::logic_error("set_fault_plan: must be installed before any traffic");
  // Lower partition/heal cut events into plain link events: the cycle loop
  // only ever consults link_events, so a cut is exactly its member links
  // going down (or back up) at the cut's cycle.  The cut events stay in the
  // plan for to_spec() round-tripping.
  for (const FaultPlan::CutEvent& cut : plan.cut_events) {
    if (cut.cycle < 0)
      throw std::invalid_argument("FaultPlan: negative event cycle");
    for (const FaultPlan::CutChannel& ch : cut.channels)
      plan.link_events.push_back(
          FaultPlan::LinkEvent{cut.cycle, ch.router, ch.port, cut.up});
  }
  for (const FaultPlan::LinkEvent& ev : plan.link_events) {
    if (ev.router < 0 || ev.router >= topo_.num_routers() || ev.port < 0 ||
        ev.port >= radix_)
      throw std::invalid_argument("FaultPlan: link event outside topology");
    if (ev.cycle < 0) throw std::invalid_argument("FaultPlan: negative event cycle");
  }
  for (const FaultPlan::NodeEvent& ev : plan.node_events) {
    if (ev.node < 0 || ev.node >= topo_.num_nodes())
      throw std::invalid_argument("FaultPlan: node event outside topology");
    if (ev.cycle < 0) throw std::invalid_argument("FaultPlan: negative event cycle");
  }
  // Rate 1.0 is admitted: "drop everything" is the retry-exhaustion test's
  // total-loss scenario (fault_uniform draws in [0, 1), so u < 1.0 always).
  if (plan.drop_rate < 0 || plan.drop_rate > 1 || plan.corrupt_rate < 0 ||
      plan.corrupt_rate > 1)
    throw std::invalid_argument("FaultPlan: rates must be in [0, 1]");
  std::stable_sort(plan.link_events.begin(), plan.link_events.end(),
                   [](const auto& a, const auto& b) { return a.cycle < b.cycle; });
  std::stable_sort(plan.node_events.begin(), plan.node_events.end(),
                   [](const auto& a, const auto& b) { return a.cycle < b.cycle; });
  faults_active_ = !plan.empty();
  plan_ = std::move(plan);
  drops_ = DropTest(plan_);
  next_link_event_ = 0;
  next_node_event_ = 0;
  ++liveness_version_;
}

void Simulator::advance_idle_to(Time cycle) {
  if (!idle())
    throw std::logic_error("advance_idle_to: traffic is still pending");
  if (cycle <= cycle_) return;
  cycle_ = cycle;
  if (faults_active_) apply_due_faults();
  stats_.cycles = cycle_;
}

MsgId Simulator::post(Message m) {
  if (m.ready_time < cycle_)
    throw std::invalid_argument("Simulator::post: ready_time in the past");
  if (m.src == m.dst) throw std::invalid_argument("Simulator::post: src == dst");
  if (m.flits < 1) throw std::invalid_argument("Simulator::post: flits must be >= 1");
  if (m.src < 0 || m.src >= topo_.num_nodes() || m.dst < 0 || m.dst >= topo_.num_nodes())
    throw std::out_of_range("Simulator::post: node outside topology");
  const MsgId id = messages_.add(m);
  posts_.push(Post{m.ready_time, post_seq_++, id});
  ++undelivered_;
  if (observer_ != nullptr) observer_->on_post(messages_.at(id), cycle_);
  return id;
}

bool Simulator::network_quiescent() const {
  return inflight_flits_ == 0 && busy_nics_ == 0;
}

bool Simulator::nic_busy(NodeId n) const {
  if (!nic_queues_[static_cast<std::size_t>(n)].empty()) return true;
  const std::size_t base = static_cast<std::size_t>(n) * ports_per_node_;
  for (int e = 0; e < ports_per_node_; ++e)
    if (nic_engines_[base + e].active != kInvalidMsg) return true;
  return false;
}

bool Simulator::idle() const {
  return posts_.empty() && network_quiescent();
}

Time Simulator::run_until_idle(Time max_cycles) {
  if (cfg_.engine == EngineKind::kEvent && !event_ && cfg_.router_delay >= 1) {
    // Zero-delay routers forward within the arrival cycle, which voids the
    // event engine's closed forms; such runs stay on the reference engine.
    event_ = std::make_unique<EventEngine>(*this);
    event_mode_ = true;
  }
  horizon_ = max_cycles;
  Time stalled = 0;
  while (!idle() && cycle_ < max_cycles) {
    if (event_ && !event_mode_ && network_quiescent()) {
      // Nothing is in flight, so the closed forms describe the network
      // again: hand the run back to the event engine.
      event_->reenter();
      event_mode_ = true;
    }
    if (event_mode_) {
      if (event_->advance(max_cycles)) {
        // Every executed event cycle moves flits, so the watchdog's
        // stalled count resets — fast-forwarded laminar spans are never
        // charged as stall time.
        stalled = 0;
      } else {
        // Materialized: the cycle engine resumes from an exact
        // microstate; seed the stall counter with the trailing
        // progress-free cycles the reference engine would have seen.
        stalled = event_->handoff_stalled();
      }
      continue;
    }
    if (network_quiescent()) {
      // Nothing can move before the next post becomes ready: fast-forward.
      const Time target = posts_.top().ready;
      if (target > cycle_) {
        if (observer_ != nullptr) observer_->on_fast_forward(cycle_, target);
        cycle_ = target;
      }
      stalled = 0;
    }
    progress_ = false;
    quiet_ = true;
    step();
    stalled = progress_ ? 0 : stalled + 1;
    if (stalled > cfg_.watchdog_cycles) {
      WatchdogReport report = stall_report(stalled);
      stats_.watchdog_fired = true;
      stats_.cycles = cycle_;
      stats_.undelivered = undelivered_;
      if (observer_ != nullptr) observer_->on_watchdog(report);
      std::string what = "Simulator watchdog: no progress for " +
                         std::to_string(stalled) + " cycles at cycle " +
                         std::to_string(cycle_) + "\n" + report.to_string();
      throw WatchdogError(std::move(what), std::move(report));
    }
    if (quiet_ && progress_ && cfg_.router_delay >= 1) leap(max_cycles);
  }
  if (event_mode_) event_->finish_run();
  settle_worms(kTimeInfinity);  // the horizon, or a truncated run
  stats_.cycles = cycle_;
  stats_.undelivered = undelivered_;
  run_status_ = idle() ? RunStatus::kCompleted : RunStatus::kTruncated;
  return cycle_;
}

void Simulator::release_due_posts(std::vector<NodeId>* released) {
  while (!posts_.empty() && posts_.top().ready <= cycle_) {
    const MsgId id = posts_.top().id;
    posts_.pop();
    quiet_ = false;
    const NodeId src = messages_.at(id).src;
    if (faults_active_ && node_dead_[static_cast<std::size_t>(src)]) {
      // A fail-stopped node issues no sends: the post dies at the NI.
      Message& m = messages_.at(id);
      m.dropped = cycle_;
      m.drop_reason = DropReason::kSenderDead;
      ++stats_.messages_dropped;
      --undelivered_;
      progress_ = true;
      dropped_now_.push_back(id);
      if (observer_ != nullptr) observer_->on_drop(id, m.drop_reason, cycle_);
      continue;
    }
    if (!nic_busy(src)) {
      ++busy_nics_;
      nic_words_[static_cast<std::size_t>(src) >> 6] |= 1ULL << (src & 63);
    }
    nic_queues_[static_cast<std::size_t>(src)].push(id);
    if (released != nullptr) released->push_back(src);
  }
}

void Simulator::notify_finished() {
  if (!delivered_now_.empty()) {
    // Deliveries fire after the cycle commits so handlers observe now() >
    // delivery cycle and may immediately post follow-up messages.  The
    // batch buffer is swapped, not reallocated, so steady-state cycles do
    // not allocate.
    delivery_batch_.swap(delivered_now_);
    if (on_delivery_)
      for (MsgId id : delivery_batch_) on_delivery_(messages_.at(id));
    delivery_batch_.clear();
  }
  if (!dropped_now_.empty()) {
    // Drop notifications follow the same post-commit discipline as
    // deliveries, so handlers may post() retransmissions immediately.
    delivery_batch_.swap(dropped_now_);
    if (on_drop_)
      for (MsgId id : delivery_batch_) on_drop_(messages_.at(id));
    delivery_batch_.clear();
  }
}

void Simulator::arbitrate(int r) {
  Router& router = routers_[r];
  for (int i = 0, p = router.rr_start(cycle_); i < radix_;
       ++i, p = p + 1 == radix_ ? 0 : p + 1) {
    if (router.assigned_out(p) != -1) continue;
    const FlitFifo& fifo = router.in(p);
    if (fifo.empty()) continue;
    const Flit& front = fifo.front();
    if (!front.head)
      throw std::logic_error(err_at(
          "wormhole invariant violated: unassigned body flit at front", cycle_,
          front.msg));
    if (cycle_ - fifo.front_entry() < cfg_.router_delay) continue;
    Message& msg = messages_.at(front.msg);
    // Routing memo: recompute only when a new head reaches this input.
    const std::size_t in_ch = static_cast<std::size_t>(r) * radix_ + p;
    RouteMemo& memo = route_memo_[in_ch];
    int* const cands = memo_cands_.get() + in_ch * radix_;
    if (memo.msg != front.msg) {
      route_scratch_.clear();
      topo_.route(r, p, msg.src, msg.dst, route_scratch_);
      if (route_scratch_.size() > static_cast<std::size_t>(radix_))
        throw std::logic_error(err_at(
            ("routing returned more candidates than ports at " +
             topo_.channel_name(r, p))
                .c_str(),
            cycle_, front.msg));
      std::copy(route_scratch_.begin(), route_scratch_.end(), cands);
      memo.count = static_cast<int>(route_scratch_.size());
      memo.msg = front.msg;
    }
    if (memo.count == 0)
      throw std::logic_error(
          err_at(("routing returned no candidates at " + topo_.channel_name(r, p))
                     .c_str(),
                 cycle_, front.msg));
    bool granted = false;
    bool any_live = false;
    for (const int q : std::span<const int>(cands, static_cast<std::size_t>(memo.count))) {
      if (faults_active_ && channel_down(r * radix_ + q)) continue;
      any_live = true;
      if (router.out_holder(q) == -1) {
        router.reserve(p, q);
        mark(xfer_words_, r);
        quiet_ = false;
        if (msg.waiting) {
          // Hops standing behind this head may move from this cycle's
          // transfer sweep on.
          msg.waiting = false;
          if (!standing_.empty()) wake_standing(front.msg);
        }
        channel_msg_[static_cast<std::size_t>(r) * radix_ + q] = front.msg;
        if (observer_ != nullptr) observer_->on_reserve(r, q, front.msg, cycle_);
        granted = true;
        break;
      }
    }
    if (!granted) {
      if (faults_active_ && !any_live) {
        // Every route forward is physically dead: the packet is lost at
        // this router (link cut or fail-stopped consumer), not blocked.
        const DropReason reason = node_dead_[static_cast<std::size_t>(msg.dst)]
                                      ? DropReason::kNodeDead
                                      : DropReason::kLinkDown;
        purge_message(front.msg, reason);
        continue;
      }
      // Every candidate channel is reserved by a different message: this
      // is exactly the wormhole contention the paper's node ordering
      // eliminates.  The observer hears of the wait once, when it starts.
      if (!msg.waiting && observer_ != nullptr)
        observer_->on_blocked(r, p, front.msg, cycle_);
      msg.waiting = true;
      ++msg.block_cycles;
      ++stats_.channel_conflicts;
    }
  }
}

void Simulator::transfer(int r) {
  Router& router = routers_[r];
  const int base = r * radix_;
  // Movable outputs in ascending order; parked and standing ones are not
  // in the mask.  It is re-read past each output: a purge below may
  // release a later one, or wake a standing one.
  std::uint64_t movable = router.movable_mask();
  for (int q = 0; movable != 0; movable = router.movable_mask() & (~1ULL << q)) {
    q = std::countr_zero(movable);
    const int p = router.out_holder(q);
    FlitFifo& fifo = router.in(p);
    if (fifo.empty()) continue;  // wormhole bubble: channel held, no flit yet
    if (cycle_ - fifo.front_entry() < cfg_.router_delay) continue;
    const NodeId ej = eject_[base + q];
    if (ej != kInvalidNode) {
      if (faults_active_ && node_dead_[static_cast<std::size_t>(ej)]) {
        // Consumer fail-stopped mid-delivery: the rest of the worm has
        // nowhere to go.
        purge_message(fifo.front().msg, DropReason::kNodeDead);
        continue;
      }
      const Flit flit = router.take(p, cycle_);
      --inflight_flits_;
      ++step_ejected_;
      ++stats_.flit_hops;
      progress_ = true;
      if (flit.tail) {
        router.release(p, q);
        if (router.pending() > 0) mark(pending_words_, r);
        quiet_ = false;
        channel_msg_[static_cast<std::size_t>(base) + q] = kInvalidMsg;
        if (observer_ != nullptr) observer_->on_release(r, q, flit.msg, cycle_);
        Message& msg = messages_.at(flit.msg);
        if (faults_active_ && plan_corrupts(plan_, flit.msg)) {
          msg.corrupted = true;
          ++stats_.messages_corrupted;
        }
        msg.delivered = cycle_;
        ++stats_.messages_delivered;
        --undelivered_;
        delivered_now_.push_back(flit.msg);
        if (observer_ != nullptr) observer_->on_deliver(msg, cycle_);
      } else if (flit.head && messages_.at(flit.msg).inject_done < 0) {
        // The worm now holds its whole path: a per-worm leap candidate.
        leap_candidates_.push_back(flit.msg);
      }
      continue;
    }
    const PortRef d = link_[base + q];
    if (!d.valid())
      throw std::logic_error(
          err_at(("message routed onto unwired channel " + topo_.channel_name(r, q))
                     .c_str(),
                 cycle_, fifo.front().msg));
    if (faults_active_ && fifo.front().head &&
        drops_(fifo.front().msg, d.router)) {
      // The head is mangled crossing this link; the whole worm is lost
      // (wormhole switching cannot deliver a headless body).
      purge_message(fifo.front().msg, DropReason::kFlitFault);
      continue;
    }
    Router& down = routers_[d.router];
    const FlitFifo& next = down.in(d.port);
    if (!next.can_accept(cycle_)) {
      if (next.full()) stand_if_blocked(r, q, d);
      continue;
    }
    const Flit flit = router.take(p, cycle_);
    down.accept(d.port, flit, cycle_);
    mark(active_words_, d.router);
    if (flit.head) mark(pending_words_, d.router);
    ++stats_.flit_hops;
    progress_ = true;
    if (flit.tail) {
      router.release(p, q);
      if (router.pending() > 0) mark(pending_words_, r);
      quiet_ = false;
      channel_msg_[static_cast<std::size_t>(base) + q] = kInvalidMsg;
      if (observer_ != nullptr) observer_->on_release(r, q, flit.msg, cycle_);
    }
  }
  retire_if_drained(r);
}

void Simulator::stand_if_blocked(int r, int q, PortRef d) {
  // The full FIFO pops only through its front.  An unassigned front is a
  // head; if it lost arbitration it leaves only on its grant.  An assigned
  // front whose hop stands waits on that hop's head.  Either way nothing
  // here moves before that grant, or a purge, and both wake the hop.
  const Router& down = routers_[d.router];
  const int next = down.assigned_out(d.port);
  MsgId head;
  if (next == -1) {
    head = down.in(d.port).front().msg;
    if (!messages_.at(head).waiting) return;
  } else {
    if (!down.standing(next)) return;
    head = standing_head_[static_cast<std::size_t>(d.router) * radix_ + next];
  }
  routers_[r].stand(q);
  standing_head_[static_cast<std::size_t>(r) * radix_ + q] = head;
  standing_.push_back(StandingHop{head, r, q});
}

void Simulator::wake_standing(MsgId head) {
  for (std::size_t i = 0; i < standing_.size();) {
    const StandingHop h = standing_[i];
    if (h.head != head) {
      ++i;
      continue;
    }
    routers_[h.router].wake(h.out_port);
    mark(xfer_words_, h.router);
    standing_[i] = standing_.back();
    standing_.pop_back();
  }
}

void Simulator::wake_all_standing() {
  for (const StandingHop& h : standing_) {
    routers_[h.router].wake(h.out_port);
    mark(xfer_words_, h.router);
  }
  standing_.clear();
}

void Simulator::retire_if_drained(int r) {
  if (routers_[r].activity() != 0) return;
  std::uint64_t& word = active_words_[static_cast<std::size_t>(r) >> 6];
  const std::uint64_t bit = 1ULL << (r & 63);
  if ((word & bit) == 0) return;
  word &= ~bit;
  // Rotated through this cycle iff the arbitration sweep had reached it.
  routers_[r].rr_fold(cycle_ + (r <= arb_reached_ ? 1 : 0));
}

void Simulator::inject(NodeId n) {
  NicQueue& queue = nic_queues_[static_cast<std::size_t>(n)];
  const std::size_t base = static_cast<std::size_t>(n) * ports_per_node_;
  for (int e = 0; e < ports_per_node_; ++e) {
    NicEngine& eng = nic_engines_[base + e];
    if (eng.active == kInvalidMsg) {
      if (queue.empty()) continue;
      eng.active = queue.front();
      queue.pop();
      eng.flits_sent = 0;
      quiet_ = false;
    } else if (eng.leaping) {
      continue;  // a multi-port NI's leaping engine
    }
    Message& msg = messages_.at(eng.active);
    const PortRef a = attach_[base + e];
    Router& router = routers_[a.router];
    if (!router.in(a.port).can_accept(cycle_)) continue;
    Flit flit;
    flit.msg = eng.active;
    flit.head = (eng.flits_sent == 0);
    flit.tail = (eng.flits_sent == msg.flits - 1);
    if (flit.head) {
      msg.inject_start = cycle_;
      quiet_ = false;
    }
    router.accept(a.port, flit, cycle_);
    mark(active_words_, a.router);
    if (flit.head) mark(pending_words_, a.router);
    ++inflight_flits_;
    ++step_injected_;
    stats_.max_inflight_flits = std::max(stats_.max_inflight_flits, inflight_flits_);
    ++eng.flits_sent;
    progress_ = true;
    if (flit.tail) {
      msg.inject_done = cycle_;
      eng.active = kInvalidMsg;
      quiet_ = false;
    }
  }
  if (!nic_busy(n)) {
    --busy_nics_;
    nic_words_[static_cast<std::size_t>(n) >> 6] &= ~(1ULL << (n & 63));
  }
}

void Simulator::step() {
  step_injected_ = 0;
  step_ejected_ = 0;
  if (cycle_ >= worm_wake_) settle_worms(cycle_);
  if (faults_active_) apply_due_faults();
  release_due_posts();

  // Arbitration sweep: routers with a pending head, ascending, as the
  // full scan visits them.  Every active router rotates this cycle
  // without being touched (Router::rr_start).  A purge may raise a later
  // router's pending count, so the word is re-read past each router.
  const std::size_t rwords = active_words_.size();
  for (std::size_t wi = 0; wi < rwords; ++wi) {
    for (std::uint64_t w = pending_words_[wi]; w != 0;
         w = pending_words_[wi] & (~1ULL << std::countr_zero(w))) {
      const int r = static_cast<int>((wi << 6) |
                                     static_cast<unsigned>(std::countr_zero(w)));
      arb_reached_ = r;
      if (routers_[r].pending() > 0) arbitrate(r);
      if (routers_[r].pending() == 0)
        pending_words_[wi] &= ~(1ULL << std::countr_zero(w));
    }
  }
  arb_reached_ = std::numeric_limits<int>::max();

  // Transfer sweep: routers with a movable output, ascending.  With
  // router_delay == 0 a flit pushed forward is forwarded again in the
  // same sweep, as in the full scan, because its router already held the
  // output.  Re-read past each router: a purge may wake a standing hop.
  for (std::size_t wi = 0; wi < rwords; ++wi) {
    for (std::uint64_t w = xfer_words_[wi]; w != 0;
         w = xfer_words_[wi] & (~1ULL << std::countr_zero(w))) {
      const int r = static_cast<int>((wi << 6) |
                                     static_cast<unsigned>(std::countr_zero(w)));
      if (routers_[r].movable_mask() != 0) transfer(r);
      if (routers_[r].movable_mask() == 0)
        xfer_words_[wi] &= ~(1ULL << std::countr_zero(w));
    }
  }

  // Injection sweep over NIs with outstanding sends.
  const std::size_t nwords = nic_words_.size();
  for (std::size_t wi = 0; wi < nwords; ++wi) {
    std::uint64_t w = nic_words_[wi];
    while (w != 0) {
      const int bit = std::countr_zero(w);
      w &= w - 1;
      inject(static_cast<NodeId>((wi << 6) | static_cast<unsigned>(bit)));
    }
  }

  if (!leap_candidates_.empty()) start_worm_leaps();
  // A leaping worm moves flits every cycle, as far as the watchdog knows.
  // Its in-flight count stays in inflight_flits_ (one flit leaves, one
  // enters, each cycle), so the peak a step samples is unchanged: see
  // DESIGN.md §6.1.
  if (live_worms_ > 0) progress_ = true;

  arb_reached_ = -1;
  ++cycle_;
  notify_finished();
}

void Simulator::leap(Time max_cycles) {
  // The quiet cycle t just stepped leaves every touched FIFO either
  // streaming (one pop and one push of body flits) or standing still with
  // a front that was already residency-eligible at t — a head that lost
  // arbitration, or a flit backed up behind one.  Nothing standing can
  // change until a channel is released, and only a tail releases; no
  // tail moves while every streaming worm's tail is still in its NI.  So
  // cycle t+1 repeats t up to the first absolute-time trigger: a post
  // becoming ready, a fault event, a tail injection, or the horizon.
  const Time t = cycle_ - 1;
  Time d = max_cycles - cycle_;
  if (!posts_.empty()) d = std::min(d, posts_.top().ready - cycle_);
  d = std::min(d, next_fault_cycle() - cycle_);
  d = std::min(d, worm_wake_ - cycle_);  // a leaping worm's tail
  if (d < 2) return;  // a one-cycle leap costs a scan to save one step
  // Every FIFO pops once and pushes once, so the network holds as many
  // flits after t as before: a step that filled or drained it fails here
  // without a scan.
  if (step_injected_ != step_ejected_) return;

  // Injecting engines stream body flits until a tail is due; checked
  // first because short messages fail here most often.
  leap_engines_.clear();
  const auto ports = static_cast<std::size_t>(ports_per_node_);
  for (std::size_t wi = 0; wi < nic_words_.size(); ++wi) {
    for (std::uint64_t w = nic_words_[wi]; w != 0; w &= w - 1) {
      const std::size_t n =
          (wi << 6) | static_cast<unsigned>(std::countr_zero(w));
      for (std::size_t e = 0; e < ports; ++e) {
        NicEngine& eng = nic_engines_[n * ports + e];
        if (eng.active == kInvalidMsg || eng.leaping) continue;
        const PortRef a = attach_[n * ports + e];
        const FlitFifo& fifo = routers_[a.router].in(a.port);
        if (fifo.empty() || fifo.back_entry() != t) continue;  // backed up
        d = std::min<Time>(
            d, messages_.at(eng.active).flits - 1 - eng.flits_sent);
        leap_engines_.push_back(&eng);
      }
    }
  }
  if (d < 2) return;

  const Time rd = cfg_.router_delay;
  leap_fifos_.clear();
  leap_blocked_.clear();
  for (std::size_t wi = 0; wi < active_words_.size(); ++wi) {
    for (std::uint64_t w = active_words_[wi]; w != 0; w &= w - 1) {
      const int r = static_cast<int>((wi << 6) |
                                     static_cast<unsigned>(std::countr_zero(w)));
      Router& router = routers_[r];
      for (int p = 0; p < radix_; ++p) {
        FlitFifo& fifo = router.in(p);
        const bool popped = fifo.last_pop() == t;
        if (fifo.empty()) {
          if (popped) return;  // drained: the next cycle differs
          continue;
        }
        // A leaping worm's FIFOs stream; their stamps are its anchor's.
        const int q = router.assigned_out(p);
        if (q != -1 && router.parked(q)) continue;
        if (popped != (fifo.back_entry() == t)) return;  // filling/draining
        if (popped) {
          // Consecutive arrivals make the shifted state exact; size >= rd
          // keeps the new front eligible next cycle.
          if (fifo.size() < rd || !fifo.body_run_ending(t)) return;
          leap_fifos_.push_back(&fifo);
        } else {
          if (t - fifo.front_entry() < rd) return;  // residency still pending
          if (q == -1) leap_blocked_.push_back(fifo.front().msg);
        }
      }
    }
  }
  if (leap_fifos_.empty() && live_worms_ == 0) return;

  for (FlitFifo* fifo : leap_fifos_) fifo->shift_time(d);
  for (NicEngine* eng : leap_engines_) eng->flits_sent += static_cast<int>(d);
  stats_.flit_hops += d * static_cast<long long>(leap_fifos_.size());
  for (const MsgId m : leap_blocked_) messages_.at(m).block_cycles += d;
  stats_.channel_conflicts += d * static_cast<long long>(leap_blocked_.size());
  cycle_ += d;  // every active router's arbiter rotates with the clock
  ++leaps_;
  leaped_cycles_ += d;
}

void Simulator::start_worm_leaps() {
  if (cfg_.router_delay < 1) {
    leap_candidates_.clear();  // flits may cross several routers a cycle
    return;
  }
  const Time bound = std::min(horizon_, next_fault_cycle());
  std::size_t keep = 0;
  for (const MsgId id : leap_candidates_)
    if (!try_worm_leap(id, bound)) leap_candidates_[keep++] = id;
  leap_candidates_.resize(keep);
}

bool Simulator::try_worm_leap(MsgId id, Time bound) {
  // Called at the end of cycle t, before the clock moves.  The worm's
  // head has been consumed, so it holds every channel from its attach
  // FIFO to its ejection channel, and each FIFO on that path is written
  // by it alone (the NI engine, or the upstream channel it holds).  If
  // each one streamed at t — the steady-state leap's test — the worm
  // repeats t shifted in time, whatever the rest of the network does,
  // until its tail leaves the NI: its ejection takes a flit every cycle,
  // and no other message can reach its FIFOs or its channels.
  const Message& m = messages_.at(id);
  if (m.finished() || m.inject_done >= 0) return true;
  const Time t = cycle_;
  const auto ports = static_cast<std::size_t>(ports_per_node_);
  const std::size_t node = static_cast<std::size_t>(m.src);
  std::size_t engine = node * ports;
  while (nic_engines_[engine].active != id)
    if (++engine == (node + 1) * ports) return true;
  NicEngine& eng = nic_engines_[engine];
  const Time tail_at = t + m.flits - eng.flits_sent;
  if (tail_at - (t + 1) < 2) return true;  // only gets nearer
  const Time wake = std::min(tail_at, bound);
  if (wake - (t + 1) < 2) return false;

  if (live_worms_ == worms_.size()) worms_.emplace_back();
  LeapingWorm& w = worms_[live_worms_];
  w.hops.clear();
  const Time rd = cfg_.router_delay;
  PortRef at = attach_[engine];
  for (;;) {
    const Router& router = routers_[at.router];
    const FlitFifo& fifo = router.in(at.port);
    // One pop and one push at t of consecutive body flits; a push at t
    // leaves size < capacity, and size >= router_delay keeps every next
    // front eligible.
    if (fifo.empty() || fifo.last_pop() != t || fifo.back_entry() != t ||
        fifo.size() < rd || !fifo.body_run_ending(t))
      return false;
    const int q = router.assigned_out(at.port);
    w.hops.push_back(WormHop{at.router, at.port, q});
    const std::size_t c = static_cast<std::size_t>(at.router) * radix_ + q;
    if (eject_[c] != kInvalidNode) break;
    at = link_[c];
  }

  for (const WormHop& h : w.hops) routers_[h.router].park(h.out_port);
  eng.leaping = true;
  // A one-port NI has nothing else to do until the tail: out of the sweep.
  if (ports == 1) nic_words_[node >> 6] &= ~(1ULL << (node & 63));
  w.msg = id;
  w.engine = engine;
  w.anchor = t;
  w.tail_at = tail_at;
  w.wake = wake;
  worm_wake_ = std::min(worm_wake_, wake);
  ++live_worms_;
  return true;
}

void Simulator::settle_worms(Time due) {
  worm_wake_ = kTimeInfinity;
  for (std::size_t i = 0; i < live_worms_;) {
    LeapingWorm& w = worms_[i];
    if (w.wake > due) {
      worm_wake_ = std::min(worm_wake_, w.wake);
      ++i;
      continue;
    }
    // The skipped cycles each popped one flit from every FIFO on the path,
    // pushed one into each, and injected one: the anchor's state shifted.
    const Time d = cycle_ - 1 - w.anchor;
    for (const WormHop& h : w.hops) {
      Router& router = routers_[h.router];
      router.in(h.in_port).shift_time(d);
      router.unpark(h.out_port);
      mark(xfer_words_, h.router);
    }
    NicEngine& eng = nic_engines_[w.engine];
    eng.flits_sent += static_cast<int>(d);
    eng.leaping = false;
    if (ports_per_node_ == 1) nic_words_[w.engine >> 6] |= 1ULL << (w.engine & 63);
    const long long hops = d * static_cast<long long>(w.hops.size());
    stats_.flit_hops += hops;
    if (d > 0) {
      ++worm_leaps_;
      worm_leaped_hops_ += hops;
    }
    // Cut short (horizon, fault event, an outside read): it may leap again.
    if (cycle_ < w.tail_at) leap_candidates_.push_back(w.msg);
    std::swap(worms_[i], worms_[--live_worms_]);
  }
}

void Simulator::apply_due_faults() {
  while (next_link_event_ < plan_.link_events.size() &&
         plan_.link_events[next_link_event_].cycle <= cycle_) {
    const FaultPlan::LinkEvent& ev = plan_.link_events[next_link_event_++];
    quiet_ = false;
    const std::size_t c =
        static_cast<std::size_t>(ev.router) * radix_ + ev.port;
    channel_dead_[c] = ev.up ? 0 : 1;
    ++liveness_version_;
    if (!ev.up && channel_msg_[c] != kInvalidMsg)
      purge_message(channel_msg_[c], DropReason::kLinkDown);
    ++stats_.fault_events;
    if (observer_ != nullptr) observer_->on_fault_event(cycle_);
  }
  while (next_node_event_ < plan_.node_events.size() &&
         plan_.node_events[next_node_event_].cycle <= cycle_) {
    const FaultPlan::NodeEvent& ev = plan_.node_events[next_node_event_++];
    quiet_ = false;
    if (!node_dead_[static_cast<std::size_t>(ev.node)]) fail_node(ev.node);
    ++stats_.fault_events;
    if (observer_ != nullptr) observer_->on_fault_event(cycle_);
  }
}

void Simulator::fail_node(NodeId n) {
  node_dead_[static_cast<std::size_t>(n)] = 1;
  // Outgoing traffic dies with the NI: partially injected worms would
  // otherwise wedge the network waiting for flits that never come.
  std::vector<MsgId> victims;
  for (const NicEngine& e : nic_engines(n))
    if (e.active != kInvalidMsg) victims.push_back(e.active);
  const std::span<const MsgId> queued =
      nic_queues_[static_cast<std::size_t>(n)].queued();
  victims.insert(victims.end(), queued.begin(), queued.end());
  for (const MsgId id : victims) purge_message(id, DropReason::kSenderDead);
  // Incoming worms are purged lazily when they reach the dead ejection
  // channel (arbitrate/transfer check node_dead_), as a real router would
  // discover the dead consumer only at its doorstep.
}

Time Simulator::next_fault_cycle() const {
  Time t = kTimeInfinity;
  if (next_link_event_ < plan_.link_events.size())
    t = plan_.link_events[next_link_event_].cycle;
  if (next_node_event_ < plan_.node_events.size())
    t = std::min(t, plan_.node_events[next_node_event_].cycle);
  return t;
}

void Simulator::purge_message(MsgId id, DropReason reason) {
  Message& msg = messages_.at(id);
  if (msg.finished()) return;
  quiet_ = false;
  // A purge can change any FIFO a standing hop waits on: every one goes
  // back to the transfer sweep, which parks it again if it still stands.
  wake_all_standing();
  // Only routers with activity hold channels or flits, and every one of
  // them is on the active worklist; ascending router/port order keeps the
  // on_release sequence of a full channel scan.
  // 1. Release every channel the worm holds (the simulator tracks holder
  //    identity; the router only tracks port pairings).
  for (std::size_t wi = 0; wi < active_words_.size(); ++wi) {
    for (std::uint64_t w = active_words_[wi]; w != 0; w &= w - 1) {
      const int r = static_cast<int>((wi << 6) |
                                     static_cast<unsigned>(std::countr_zero(w)));
      Router& router = routers_[static_cast<std::size_t>(r)];
      if (router.held_mask() == 0) continue;
      for (int q = 0; q < radix_; ++q) {
        const std::size_t c = static_cast<std::size_t>(r) * radix_ + q;
        if (channel_msg_[c] != id) continue;
        router.release(router.out_holder(q), q);
        channel_msg_[c] = kInvalidMsg;
        if (observer_ != nullptr) observer_->on_release(r, q, id, cycle_);
      }
    }
  }
  // 2. Remove its buffered flits everywhere.  Releases and removals may
  //    expose heads (pending) or drain a router.
  for (std::size_t wi = 0; wi < active_words_.size(); ++wi) {
    for (std::uint64_t w = active_words_[wi]; w != 0; w &= w - 1) {
      const int r = static_cast<int>((wi << 6) |
                                     static_cast<unsigned>(std::countr_zero(w)));
      Router& router = routers_[static_cast<std::size_t>(r)];
      if (router.activity() > 0) inflight_flits_ -= router.purge_msg(id);
      if (router.pending() > 0) mark(pending_words_, r);
      retire_if_drained(r);
    }
  }
  // 3. Detach it from the source NI (mid-injection or still queued).
  const bool was_busy = nic_busy(msg.src);
  for (NicEngine& e : nic_engines(msg.src))
    if (e.active == id) e.active = kInvalidMsg;
  nic_queues_[static_cast<std::size_t>(msg.src)].erase(id);
  if (was_busy && !nic_busy(msg.src)) {
    --busy_nics_;
    nic_words_[static_cast<std::size_t>(msg.src) >> 6] &=
        ~(1ULL << (msg.src & 63));
  }
  msg.dropped = cycle_;
  msg.drop_reason = reason;
  ++stats_.messages_dropped;
  --undelivered_;
  progress_ = true;
  dropped_now_.push_back(id);
  if (observer_ != nullptr) observer_->on_drop(id, reason, cycle_);
}

WatchdogReport Simulator::stall_report(Time stalled_cycles) const {
  // Event mode keeps in-flight worms as closed forms rather than buffered
  // flits; force the flit-level state into the routers first so the
  // report matches the cycle engine's verbatim.  (Logically const: this
  // only realizes state the simulation already owns.)
  if (event_mode_ && event_->live())
    const_cast<Simulator*>(this)->event_->bail_out();
  const_cast<Simulator*>(this)->settle_worms(kTimeInfinity);
  WatchdogReport rep;
  rep.cycle = cycle_;
  rep.stalled_cycles = stalled_cycles;
  for (const Message& m : messages_.all()) {
    if (m.finished()) continue;
    rep.stalled.push_back(WatchdogReport::StalledMessage{
        m.id, m.src, m.dst, m.inject_start >= 0, m.block_cycles});
  }
  for (std::size_t c = 0; c < channel_msg_.size(); ++c) {
    if (channel_msg_[c] == kInvalidMsg) continue;
    const int r = static_cast<int>(c) / radix_;
    const int q = static_cast<int>(c) % radix_;
    rep.reservations.push_back(WatchdogReport::Reservation{
        r, q, channel_msg_[c], topo_.channel_name(r, q)});
  }
  // Wait-for graph: an unassigned head waits on the holders of every
  // candidate output its route allows.  A cycle in this graph is the
  // classic wormhole routing deadlock.
  std::vector<std::vector<MsgId>> waits_on(
      static_cast<std::size_t>(messages_.size()));
  std::vector<int> cand;
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const Router& router = routers_[r];
    for (int p = 0; p < radix_; ++p) {
      if (router.in(p).empty() || router.assigned_out(p) != -1) continue;
      const MsgId w = router.in(p).front().msg;
      const Message& m = messages_.at(w);
      cand.clear();
      topo_.route(r, p, m.src, m.dst, cand);
      for (const int q : cand) {
        // Self-edges stay: a worm whose head waits on a channel held by
        // its own tail (the single-message ring wedge) is a deadlock too.
        const MsgId holder = channel_msg_[static_cast<std::size_t>(r) * radix_ + q];
        if (holder != kInvalidMsg)
          waits_on[static_cast<std::size_t>(w)].push_back(holder);
      }
    }
  }
  rep.deadlock_cycle = first_wait_cycle(waits_on);
  rep.channel_occupancy = stall_dump();
  return rep;
}

std::uint64_t Simulator::microstate_digest(bool pop_stamps) const {
  if (event_mode_ && event_->live())
    throw std::logic_error(
        "microstate_digest: live event-mode worms (materialize with stall_report)");
  const_cast<Simulator*>(this)->settle_worms(kTimeInfinity);
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a, 8 bytes per value
  const auto mix = [&h](long long v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (int r = 0; r < static_cast<int>(routers_.size()); ++r) {
    const Router& router = routers_[r];
    mix(event_mode_ ? event_->rr_position(r) : router.rr_start(cycle_));
    mix(router.activity());
    mix(router.pending());
    mix(static_cast<long long>(router.held_mask()));
    for (int p = 0; p < radix_; ++p) {
      mix(router.assigned_out(p));
      mix(router.out_holder(p));
      const FlitFifo& fifo = router.in(p);
      mix(fifo.size());
      for (int i = 0; i < fifo.size(); ++i) {
        const Flit& f = fifo.at(i);
        mix(f.msg);
        mix(static_cast<int>(f.head) | static_cast<int>(f.tail) << 1);
        mix(fifo.entry_at(i));
      }
      if (pop_stamps) mix(fifo.last_pop());
    }
  }
  for (const MsgId holder : channel_msg_) mix(holder);
  for (std::size_t n = 0; n < nic_queues_.size(); ++n) {
    for (int e = 0; e < ports_per_node_; ++e) {
      const NicEngine& eng = nic_engines_[n * ports_per_node_ + e];
      mix(eng.active);
      // The count is reset at the next pull, so only an active one counts.
      if (eng.active != kInvalidMsg) mix(eng.flits_sent);
    }
    const std::span<const MsgId> queued = nic_queues_[n].queued();
    mix(static_cast<long long>(queued.size()));
    for (const MsgId id : queued) mix(id);
  }
  return h;
}

std::string Simulator::stall_dump() const {
  std::ostringstream os;
  os << "cycle=" << cycle_ << " inflight=" << inflight_flits_
     << " busy_nics=" << busy_nics_ << " undelivered=" << undelivered_ << "\n";
  for (int r = 0; r < topo_.num_routers(); ++r) {
    const Router& router = routers_[r];
    if (router.activity() == 0) continue;
    for (int p = 0; p < topo_.radix(); ++p) {
      if (router.in(p).empty() && router.assigned_out(p) == -1) continue;
      os << "  " << topo_.channel_name(r, p) << ": occ=" << router.in(p).size()
         << " assigned_out=" << router.assigned_out(p);
      if (!router.in(p).empty()) {
        os << " front_msg=" << router.in(p).front().msg
           << (router.in(p).front().head ? " (head)" : "");
      }
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace pcm::sim
