// Cycle-driven flit-level wormhole network simulator.
//
// The simulator owns the routers and the per-node network interfaces
// (NIs).  Clients (normally the multicast runtime) post Messages with a
// `ready_time` — the cycle the sending software hands the message to the
// NI — and receive a callback when the tail flit is consumed at the
// destination.  The engine fast-forwards over cycles in which the network
// is empty and no NI has work, so simulations whose time is dominated by
// software overheads remain cheap.
//
// One-port architecture (as in the paper): each node has a single
// injection channel and a single consumption channel; outstanding sends
// from one node serialize at its NI.
//
// Contention instrumentation: whenever a routed head flit is denied
// because every candidate output channel is reserved by another message,
// the cycle is charged to Message::block_cycles and to
// SimStats::channel_conflicts.  A schedule is contention-free on a run
// exactly when channel_conflicts == 0.
//
// Fast path (see DESIGN.md §6): instead of rescanning every router and NI
// each cycle, the engine keeps worklist bitmaps of routers with non-zero
// activity and NIs with outstanding sends, reads the topology's shared
// wiring tables (Topology::wiring(), built once per topology) instead of
// calling it virtually, and memoizes each input port's routing
// candidates while the same head flit waits there.  All of this is
// observationally equivalent to the naive full scan: per-cycle event
// order, conflict counters, and observer callbacks are bit-identical.
//
// Set-up cost: every router, input FIFO, FIFO slot and port table sits in
// one RouterArena, and the NI engines in one flat array, so construction
// takes the same dozen-odd allocations on any topology.  A Simulator is
// neither copyable nor movable (its routers view its own arena).
//
// Steady-state leap (DESIGN.md §6.1): after a *quiet* cycle — flits moved,
// but nothing was granted, released, injected as a head or tail, pulled,
// posted, faulted or purged — in which every touched input FIFO made one
// pop and one push of body flits, the next cycles are the same cycle
// shifted in time.  The engine then jumps straight to the first cycle
// that can differ (next post, fault event, tail injection, or the run's
// horizon), applying exactly the counters, stamps and on_blocked calls
// the skipped cycles would have produced.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/fault.hpp"
#include "sim/message.hpp"
#include "sim/observer.hpp"
#include "sim/router.hpp"
#include "sim/topology.hpp"

namespace pcm::sim {

/// Which engine drives run_until_idle (DESIGN.md §6.5).
///
/// kCycle is the golden reference: every active router is ticked every
/// cycle.  kEvent is the hybrid event-driven kernel: while worm flow is
/// laminar (every head wins arbitration the first cycle it is eligible)
/// all reserve/release/delivery times are closed-form affine functions of
/// the injection start, so the engine only touches the event calendar.
/// On a non-laminar condition — a blocked head, a fault event falling due
/// under live worms, a dead or dropping channel on a head's path — it
/// materializes the exact flit-level microstate of that cycle and hands
/// control to the cycle engine, which re-enters event mode as soon as a
/// step leaves the network quiescent.  Fault plans and run horizons stay
/// in event mode; only router_delay < 1 pins a run to the cycle engine.
/// The two engines are bit-identical by construction: SimStats, delivery
/// times, observer callback sequences, and watchdog reports all match.
enum class EngineKind {
  kCycle,  ///< cycle-driven reference engine
  kEvent,  ///< event calendar + closed-form fast-forward, cycle hand-off
};

/// Why the event engine handed a run to the cycle engine (see
/// Simulator::materializations()).
enum class Materialization {
  kContention,  ///< a head lost arbitration or met an admitted path
  kFaultEvent,  ///< a link or node event fell due under live worms
  kDrop,        ///< a head met a dead channel or a plan drop
  kBail,        ///< defensive paths, stall_report(), a late observer
};
inline constexpr int kMaterializationKinds = 4;

struct SimConfig {
  int fifo_capacity = 4;        ///< input buffer depth, flits
  Time router_delay = 1;        ///< min cycles a flit rests in each router
  Time watchdog_cycles = 500000;  ///< abort after this many stalled cycles
  EngineKind engine = EngineKind::kCycle;  ///< run_until_idle driver
};

struct SimStats {
  Time cycles = 0;                 ///< last executed cycle + 1
  long long flit_hops = 0;         ///< flit-channel traversals
  long long channel_conflicts = 0; ///< head-blocked-by-other-message cycles
  int messages_delivered = 0;
  int max_inflight_flits = 0;
  // --- robustness accounting (all zero on healthy runs) ---
  int messages_dropped = 0;        ///< purged by a fault (see DropReason)
  int messages_corrupted = 0;      ///< delivered with an unusable payload
  int fault_events = 0;            ///< plan events applied so far
  int undelivered = 0;             ///< still pending when the last run returned
  bool watchdog_fired = false;
};

/// How the last run_until_idle() call ended.
enum class RunStatus {
  kCompleted,  ///< every posted message reached a terminal state
  kTruncated,  ///< max_cycles elapsed with messages still pending
};

/// Watchdog expiry: carries the forensic report alongside the what()
/// text (which embeds WatchdogReport::to_string()).  Subclasses
/// std::runtime_error so pre-existing catch sites keep working.
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(const std::string& what, WatchdogReport report)
      : std::runtime_error(what), report_(std::move(report)) {}
  [[nodiscard]] const WatchdogReport& report() const { return report_; }

 private:
  WatchdogReport report_;
};

/// The first cycle a depth-first search of the wait-for graph meets:
/// `waits_on[m]` lists the messages m waits on, roots are tried in
/// ascending id and edges in list order.  Returns the cycle from its first
/// visited member, or an empty vector if the graph is acyclic.  Iterative,
/// so a wait chain of any length costs heap, not stack.
std::vector<MsgId> first_wait_cycle(const std::vector<std::vector<MsgId>>& waits_on);

class EventEngine;

class Simulator {
 public:
  /// Called when a message's tail flit is consumed; handlers may post().
  using DeliveryHandler = std::function<void(const Message&)>;

  /// `topo` must outlive the simulator; its wiring() tables are shared
  /// with every other simulator on it.
  Simulator(const Topology& topo, SimConfig cfg = {});
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();  // out of line: EventEngine is incomplete here

  /// Called when a message is purged by a fault; handlers may post().
  using DropHandler = std::function<void(const Message&)>;

  /// Registers a message for injection at m.ready_time (must be >= now()).
  MsgId post(Message m);

  void set_delivery_handler(DeliveryHandler h) { on_delivery_ = std::move(h); }
  void set_drop_handler(DropHandler h) { on_drop_ = std::move(h); }

  /// Installs an observer for channel-level events (nullptr to remove).
  /// Not owned; must outlive the simulation.
  void set_observer(SimObserver* obs) { observer_ = obs; }

  /// Installs the fault plan.  Must be called before the first run; event
  /// cycles already in the past are rejected.  An empty plan leaves the
  /// healthy fast path untouched (bit-identical to no plan at all).
  /// Throws std::invalid_argument on events outside the topology.
  void set_fault_plan(FaultPlan plan);

  /// Runs until every posted message reaches a terminal state (delivered
  /// or fault-dropped) or `max_cycles` elapse — check run_status() to
  /// tell a clean finish from a truncated one.  Returns the cycle count;
  /// throws WatchdogError (a std::runtime_error carrying a forensic
  /// WatchdogReport) on watchdog expiry (routing deadlock / flow-control
  /// bug).
  Time run_until_idle(Time max_cycles = kTimeInfinity);

  /// How the last run_until_idle() ended; kCompleted before any run.
  [[nodiscard]] RunStatus run_status() const { return run_status_; }

  [[nodiscard]] bool idle() const;
  [[nodiscard]] Time now() const { return cycle_; }

  /// True when a non-empty fault plan is installed.  Drivers use this to
  /// pick the reliable streaming path up front instead of discovering
  /// mid-run that messages can be lost.
  [[nodiscard]] bool fault_plan_active() const { return faults_active_; }

  /// The installed plan (normalized: cut events lowered into link events,
  /// both event lists sorted by cycle).  Runtimes use it to bound how long
  /// a heal can still arrive.
  [[nodiscard]] const FaultPlan& fault_plan() const { return plan_; }

  /// True once node `n` has fail-stopped.  A membership service reads this
  /// as "the node no longer answers probes" — observationally what a lease
  /// timeout would measure, without perturbing the schedule.
  [[nodiscard]] bool node_failed(NodeId n) const {
    return node_dead_[static_cast<std::size_t>(n)] != 0;
  }

  /// True while channel `c` is up per the applied link events.  Unlike the
  /// internal channel_down(), a dead *ejector node* does not mark the
  /// channel down here: reachability probes separate link cuts (healable)
  /// from node death (permanent).
  [[nodiscard]] bool channel_live(ChannelId c) const {
    return channel_dead_[static_cast<std::size_t>(c)] == 0;
  }

  /// Monotone counter of channel_live() changes: bumped by every applied
  /// link event (cut events are lowered into link events) and by
  /// set_fault_plan.  Node events leave it alone, as they leave
  /// channel_live() alone.  Readers cache anything derived from the live
  /// channel set and recompute only when this moves.
  [[nodiscard]] std::uint64_t liveness_version() const {
    return liveness_version_;
  }

  /// Advances the clock to `cycle` while the simulator is idle, applying
  /// any fault-plan events that fall due in the jumped-over span.  Lets a
  /// runtime observe link heals scheduled after all traffic has drained
  /// (run_until_idle returns immediately on an idle network and would
  /// never reach them).  Throws std::logic_error if traffic is pending.
  void advance_idle_to(Time cycle);

  /// Forensic snapshot of the current network state (stalled messages,
  /// reservation graph, suspected deadlock cycle).  Cheap enough to call
  /// from tests; the watchdog uses it for its exception payload.
  [[nodiscard]] WatchdogReport stall_report(Time stalled_cycles = 0) const;

  [[nodiscard]] const Topology& topology() const { return topo_; }
  [[nodiscard]] MessageTable& messages() { return messages_; }
  [[nodiscard]] const MessageTable& messages() const { return messages_; }
  [[nodiscard]] const SimStats& stats() const { return stats_; }

  /// Engine-internal counters: steady-state leaps taken by the cycle
  /// engine and the cycles they skipped.  Deliberately not in SimStats —
  /// they differ between engines and with run_until_idle horizons, while
  /// every workload observable stays bit-identical.
  [[nodiscard]] long long leaps() const { return leaps_; }
  [[nodiscard]] long long leaped_cycles() const { return leaped_cycles_; }

  /// Event-engine counters, kept out of SimStats for the same reason:
  /// hand-offs to the cycle engine by trigger, returns to event mode,
  /// event cycles executed, and worms admitted whole at injection.
  [[nodiscard]] long long materializations(Materialization why) const {
    return materializations_[static_cast<int>(why)];
  }
  [[nodiscard]] long long reentries() const { return reentries_; }
  [[nodiscard]] long long event_cycles() const { return event_cycles_; }
  [[nodiscard]] long long admitted_worms() const { return admitted_worms_; }

 private:
  /// One injection engine per NI port (one-port machines have one).
  struct NicEngine {
    MsgId active = kInvalidMsg;
    int flits_sent = 0;
  };

  /// An NI's released messages awaiting an engine, FIFO: a vector read
  /// from `head`, emptied whenever it drains, so it allocates on first
  /// use and then reuses its capacity.
  struct NicQueue {
    std::vector<MsgId> ids;
    std::size_t head = 0;
    [[nodiscard]] bool empty() const { return head == ids.size(); }
    [[nodiscard]] MsgId front() const { return ids[head]; }
    void push(MsgId id) { ids.push_back(id); }
    void pop() {
      if (++head == ids.size()) clear();
    }
    [[nodiscard]] std::span<const MsgId> queued() const {
      return std::span<const MsgId>(ids).subspan(head);
    }
    void erase(MsgId id) {
      ids.erase(std::remove(ids.begin() + static_cast<std::ptrdiff_t>(head),
                            ids.end(), id),
                ids.end());
      if (empty()) clear();
    }
    void clear() {
      ids.clear();
      head = 0;
    }
  };

  struct Post {
    Time ready;
    long long seq;
    MsgId id;
    bool operator>(const Post& o) const {
      return ready != o.ready ? ready > o.ready : seq > o.seq;
    }
  };

  /// Routing candidates cached while the same head flit waits at an input
  /// port.  Topology::route is a pure function of (router, in_port, src,
  /// dst), so the preference list cannot change while the head blocks;
  /// only channel *availability* changes, and arbitration rechecks that
  /// against live state every cycle.  Keyed by message id: a released
  /// channel that reveals the next message's head misses the key and
  /// recomputes.
  /// The list itself lives in memo_cands_, at most radix entries per
  /// input channel.
  struct RouteMemo {
    MsgId msg = kInvalidMsg;
    int count = 0;
  };

  void step();
  /// Called after a quiet step(): jumps the clock over the steady
  /// streaming cycles that follow, if the network is in such a state.
  void leap(Time max_cycles);
  /// Moves due posts into their NI queues (dropping a dead sender's);
  /// appends each queued post's source to `released` when given.
  void release_due_posts(std::vector<NodeId>* released = nullptr);
  /// End-of-cycle callbacks: delivery handlers, then drop handlers.
  void notify_finished();
  void arbitrate(int r);
  void transfer(int r);
  void inject(NodeId n);
  [[nodiscard]] bool network_quiescent() const;
  [[nodiscard]] bool nic_busy(NodeId n) const;
  [[nodiscard]] std::span<NicEngine> nic_engines(NodeId n) {
    return {nic_engines_.data() + static_cast<std::size_t>(n) * ports_per_node_,
            static_cast<std::size_t>(ports_per_node_)};
  }
  [[nodiscard]] std::string stall_dump() const;

  // --- fault machinery (inactive unless a non-empty plan is installed) ---
  void apply_due_faults();
  void fail_node(NodeId n);
  void purge_message(MsgId id, DropReason reason);
  /// Cycle of the next unapplied link or node event (kTimeInfinity if none).
  [[nodiscard]] Time next_fault_cycle() const;
  [[nodiscard]] bool channel_down(ChannelId c) const {
    if (channel_dead_[static_cast<std::size_t>(c)]) return true;
    const NodeId ej = eject_[c];
    return ej != kInvalidNode && node_dead_[static_cast<std::size_t>(ej)];
  }

  [[gnu::always_inline]] void mark_router_active(int r) noexcept {
    active_words_[static_cast<std::size_t>(r) >> 6] |= 1ULL << (r & 63);
  }
  [[gnu::always_inline]] void clear_router_active(std::size_t word,
                                                  int bit) noexcept {
    active_words_[word] &= ~(1ULL << bit);
  }

  friend class EventEngine;

  const Topology& topo_;
  SimConfig cfg_;
  int radix_ = 0;
  int ports_per_node_ = 1;
  RouterArena arena_;
  std::span<Router> routers_;  ///< views into arena_
  std::vector<NicQueue> nic_queues_;    ///< per node
  std::vector<NicEngine> nic_engines_;  ///< per node * ports_per_node + port
  MessageTable messages_;
  std::priority_queue<Post, std::vector<Post>, std::greater<>> posts_;
  long long post_seq_ = 0;
  std::vector<MsgId> delivered_now_;
  std::vector<MsgId> delivery_batch_;  ///< reused per-cycle delivery buffer
  std::vector<MsgId> dropped_now_;     ///< fault-dropped this cycle
  DeliveryHandler on_delivery_;
  DropHandler on_drop_;
  SimObserver* observer_ = nullptr;

  // --- fault state ---
  bool faults_active_ = false;  ///< non-empty plan installed
  FaultPlan plan_;              ///< link/node events sorted by cycle
  std::size_t next_link_event_ = 0;
  std::size_t next_node_event_ = 0;
  std::vector<char> channel_dead_;  ///< per channel id (link events)
  std::vector<char> node_dead_;     ///< per node (fail-stop)
  std::vector<MsgId> channel_msg_;  ///< reservation holder per channel id
  std::uint64_t liveness_version_ = 0;  ///< see liveness_version()

  // --- the topology's shared wiring tables (see Wiring) ---
  const PortRef* link_ = nullptr;    ///< per channel id
  const NodeId* eject_ = nullptr;    ///< per channel id
  const PortRef* attach_ = nullptr;  ///< per node * ports_per_node + port
  std::vector<RouteMemo> route_memo_;  ///< per input channel id
  /// Memoized candidates, radix slots per input channel id; only the
  /// first RouteMemo::count of a channel's slots are meaningful.
  std::unique_ptr<int[]> memo_cands_;
  std::vector<int> route_scratch_;  ///< Topology::route output, reused

  // --- worklists ---
  std::vector<std::uint64_t> active_words_;  ///< routers with activity() > 0
  std::vector<std::uint64_t> nic_words_;     ///< NIs with queued/active sends

  // --- hybrid event engine (cfg_.engine == kEvent only) ---
  std::unique_ptr<EventEngine> event_;  ///< lazily created on the first run
  bool event_mode_ = false;  ///< the event engine drives the next cycle
  long long materializations_[kMaterializationKinds] = {};
  long long reentries_ = 0;
  long long event_cycles_ = 0;
  long long admitted_worms_ = 0;

  Time cycle_ = 0;
  int inflight_flits_ = 0;
  int busy_nics_ = 0;
  int undelivered_ = 0;
  bool progress_ = false;
  /// Cleared by every step() branch that makes a cycle unlike its
  /// successor (grant, tail move, head/tail injection, NI pull, post
  /// release, fault event, purge); see leap().
  bool quiet_ = false;
  long long leaps_ = 0;
  long long leaped_cycles_ = 0;
  // leap() scratch, reused across attempts
  struct LeapBlock {
    int router;
    int port;
    MsgId msg;
  };
  std::vector<FlitFifo*> leap_fifos_;
  std::vector<NicEngine*> leap_engines_;
  std::vector<LeapBlock> leap_blocked_;
  RunStatus run_status_ = RunStatus::kCompleted;
  SimStats stats_;
};

}  // namespace pcm::sim
