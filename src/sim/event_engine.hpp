// Hybrid event-driven kernel behind SimConfig::engine == kEvent.
//
// Insight (DESIGN.md §6.5): while worm flow is *laminar* — every head
// flit wins arbitration on the first cycle it is residency-eligible —
// the cycle engine's behaviour is fully determined by a handful of
// per-worm anchor times.  With R = router_delay, F = flits, t0 = the
// cycle the first flit enters the attach FIFO, and a_k = the cycle hop
// k's output channel is reserved:
//
//     a_k = t0 + (k + 1) * R                     (a_{-1} := t0)
//     flit i enters hop-k's FIFO at a_{k-1} + i and pops at a_k + i
//     hop k's channel releases at a_k + F - 1
//     delivery (= release of the ejection hop) at a_{h-1} + F - 1
//
// so the only *observable* cycles are reserves, releases, deliveries,
// NI pulls, and injection completions — everything in between is silent
// flit streaming.  The engine therefore keeps an event calendar keyed by
// cycle (deterministic tie-break, with per-phase sorts that mirror the
// cycle engine's sweep orders) and executes event cycles only.
//
// Whole-worm admission: at the NI pull the engine walks the worm's path
// once (first routing candidate at every hop).  When no hop's window
// [a_k, a_k + F - 1] overlaps a live or admitted window on its channel,
// and no hop meets a dead channel or a plan drop, the worm is admitted:
// it schedules only its injection end and its delivery, and its arbiter
// activity is posted up front.  Otherwise — or when an observer wants
// every reserve and release — it takes the per-hop path, one arbitration
// event per hop.  A per-hop grant whose window reaches an admitted one
// is a collision and materializes.
//
// Laminarity is self-sustaining: the only ways a worm can deviate from
// the closed forms are to lose an arbitration, to meet a dead channel or
// a plan drop, or to be hit by a fault event.  At that very cycle the
// engine *materializes* the exact cycle-engine microstate (FIFO contents
// with historical entry times, channel reservations, NI engine state,
// rotating-arbiter positions reconstructed from activity intervals) and
// hands this Simulator to the cycle engine — which replays the cycle
// itself, emitting on_blocked / conflict accounting or purging the worm
// at exactly the cycle the reference engine would.  Once a cycle-engine
// step leaves the network quiescent, the Simulator re-enters event mode.
// Fault events on a quiescent network apply in event mode, at the post
// release the cycle engine's fast-forward would stop at; a run horizon
// stops the clock with the calendar intact.  Only router_delay < 1 skips
// event mode entirely.  The result is bit-identical SimStats, delivery
// times, observer streams, and watchdog reports on every workload, with
// event-speed execution on the contention-free schedules the paper's
// theorems produce.
#pragma once

#include <queue>
#include <utility>
#include <vector>

#include "sim/pooled_vectors.hpp"
#include "sim/simulator.hpp"

namespace pcm::sim {

class EventEngine {
 public:
  /// Binds to `sim`; the engine reads and writes the simulator's own
  /// state (posts, NIC queues, channel holders, stats) so that shared
  /// structures never diverge between the two engines.
  explicit EventEngine(Simulator& sim);

  /// Processes the next event cycle, or stops the clock at a horizon
  /// (max_cycles) that falls before it.  Returns false when the engine
  /// instead materialized the flit-level microstate and left event mode
  /// (blocked head, fault event under live worms, dead or dropping
  /// channel, defensive bail) — the caller's loop then continues with the
  /// cycle engine from an exact state.
  bool advance(Time max_cycles);

  /// Resumes event mode on a quiescent network after a materialization.
  void reenter();

  /// Settles lazily-accounted statistics (flit hops, in-flight peaks) up
  /// to the last executed cycle; call when run_until_idle exits while
  /// event mode is still active.
  void finish_run();

  /// Materializes the microstate at the current cycle and leaves event
  /// mode, so external inspection (stall_report) sees the same network
  /// the cycle engine would show.
  void bail_out();

  /// True while worms are mid-flight (materialization would be needed
  /// for the router state to be inspectable).
  [[nodiscard]] bool live() const { return !live_.empty(); }

  /// After a materializing advance(): the count of trailing progress-free
  /// cycles the reference engine would have accumulated, so the caller
  /// can seed its watchdog stall counter bit-identically.
  [[nodiscard]] Time handoff_stalled() const { return handoff_stalled_; }

 private:
  /// One committed channel reservation of a worm.
  struct Hop {
    int router = -1;
    int in_port = -1;
    int out_port = -1;
    Time reserve = -1;  ///< a_k: cycle the channel was reserved
  };

  /// A message whose injection has started (queued messages live in the
  /// simulator's own NIC queues until then).
  struct Worm {
    MsgId id = kInvalidMsg;
    int flits = 0;
    Time t0 = -1;           ///< first flit entered the attach FIFO
    Time eject_start = -1;  ///< ejection reserve: consumption begins
    bool ejecting = false;  ///< last hop in `hops` is the ejection channel
    bool admitted = false;  ///< whole path precomputed at the NI pull
    int nic_engine = -1;    ///< node * ports_per_node + engine index
    PortRef head_at;        ///< input FIFO holding the head (per-hop worms)
    /// Per-hop worms: the hops committed so far.  Admitted worms: every
    /// hop through ejection, including ones reserved in the future.
    std::vector<Hop> hops;
    long long hops_settled = 0;  ///< flit pops already added to stats_
  };

  /// Rotating-arbiter reconstruction: the cycle engine bumps rr_start
  /// once per cycle a router has non-zero activity, and a laminar worm
  /// contributes activity to hop k's router exactly over
  /// [a_{k-1} + 1, a_k + F - 1].  A refcount over these intervals, fed
  /// by time-ordered steps that may lie in the future (an admitted worm
  /// posts all of its steps at once), yields the bump count at any cycle.
  /// The pending steps live in rr_steps_, one list per router.
  struct RrAcct {
    long long accum = 0;  ///< active cycles before `since`
    Time since = 0;
    int refcnt = 0;
  };

  /// A channel's hold window [start, end] (reserve through release) of a
  /// live worm, committed or admitted.
  struct Window {
    Time start;
    Time end;
  };

  enum class Ev : int {
    kArb = 0,         ///< head residency-eligible: arbitration
    kXfer = 1,        ///< tail pops a hop: release (+ delivery if ejection)
    kInjectDone = 2,  ///< tail flit left the NI
    kNicPull = 3,     ///< a freed NI engine may pull from the queue
  };

  struct Entry {
    Time cycle;
    int phase;  ///< Ev as int; part of the deterministic tie-break
    int a;      ///< worm index (kArb/kXfer/kInjectDone) or node (kNicPull)
    int b;      ///< hop index (kXfer), else 0
    bool operator>(const Entry& o) const {
      if (cycle != o.cycle) return cycle > o.cycle;
      if (phase != o.phase) return phase > o.phase;
      if (a != o.a) return a > o.a;
      return b > o.b;
    }
  };

  bool process_cycle(Time t);
  void sched(Time cycle, Ev phase, int a, int b = 0);
  void drain_due(Time t);            ///< calendar entries at t -> buckets
  bool commit_arbitrations(Time t);  ///< false: non-laminar, materialized
  void commit_xfers(Time t);
  void commit_inject_dones(Time t);
  void do_pulls(NodeId n, Time t);
  void recheck_nic_busy(NodeId n);

  void rr_flush(int router, Time upto);
  /// Schedules a refcount step of `delta` at cycle `at` (> now).
  void rr_step(int router, Time at, int delta);
  [[nodiscard]] long long rr_bumps(int router, Time at);

  /// Walks a freshly pulled worm's whole path; when every hop's window
  /// is free, commits it as admitted and returns true.
  bool try_admit(int wi, Time t0);
  /// True when [s, e] overlaps no live window on `cid` (prunes expired).
  bool window_clear(int cid, Time s, Time e);
  void add_window(int cid, Time s, Time e);

  /// Advances the in-flight accounting through end-of-cycle `upto`
  /// (exclusive of any event at a later cycle).  Between event cycles
  /// the injecting/consuming worm sets are constant, so the in-flight
  /// count is linear and its peak sits at a window endpoint.
  void settle_window(Time upto);
  /// Exact end-of-cycle accounting at event cycle `t` (sets change here).
  void settle_end_of_cycle(Time t);
  /// Adds every pop through end-of-cycle `upto` to stats_.flit_hops
  /// (idempotent via Worm::hops_settled).
  void settle_hops(Time upto);

  /// Starts event mode afresh at the simulator's clock (network quiescent).
  void reset();
  void materialize(Time at, Materialization why);

  Simulator& sim_;
  const Time r_;  ///< cfg_.router_delay (>= 1 in event mode)
  int ports_per_node_ = 1;

  std::vector<Worm> worms_;  ///< slots, reused once a worm is delivered
  std::vector<int> live_;  ///< indices of in-flight worms (unordered)
  std::vector<int> free_worms_;  ///< delivered slots, reused LIFO
  std::size_t hop_hint_ = 0;  ///< most hops of a delivered worm so far
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> calendar_;
  std::vector<Time> eng_free_from_;  ///< per node * ports_per_node + engine
  std::vector<RrAcct> rr_;           ///< per router
  /// Per router: pending (cycle, delta) steps, ascending cycle.
  PooledVectors<std::pair<Time, int>> rr_steps_;
  PooledVectors<Window> windows_;  ///< per channel id: live hold windows
  std::vector<unsigned> seen_;  ///< per channel id: last try_admit stamp
  unsigned stamp_ = 0;
  int admitted_live_ = 0;  ///< live worms with precomputed paths

  Time settled_ = -1;       ///< in-flight accounting done through this cycle
  long long inflight_ = 0;  ///< in-flight flits at end of `settled_`
  Time last_progress_ = -1;  ///< latest cycle a finished worm moved a flit
  Time handoff_stalled_ = 0;

  // per-cycle scratch (sized once, reused)
  std::vector<int> arbs_;
  std::vector<std::pair<int, int>> xfers_;   ///< (worm, hop)
  std::vector<int> dones_;
  std::vector<NodeId> pulls_;
  std::vector<NodeId> touched_;              ///< NICs needing a busy recheck
  std::vector<int> cand_;
  std::vector<int> tentative_;               ///< channels granted this cycle
  std::vector<std::pair<int, int>> grants_;  ///< (worm, out_port), sweep order
};

}  // namespace pcm::sim
