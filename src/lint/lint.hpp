// Static contention & deadlock analysis of multicast schedules ("pcmlint").
//
// Theorems 1 and 2 of the paper are *static* claims: OPT-mesh over the
// dimension-ordered chain and OPT-min over the lexicographic chain are
// contention-free by construction.  This analyzer checks such claims
// symbolically, without simulating a single flit: it derives every
// message's exact uncontended flit-level timeline from the PCM timing
// model (software issue, NI injection, per-hop channel reservation and
// release), expands each hop to its channel via the topology's routing
// function (Topology::append_path — the same XY / turnaround /
// destination-tag enumeration the simulator follows, and the event
// engine's admission path), and interval-overlap-checks the channel
// reservations.  A clean report is a *proof* of contention-freedom for
// deterministic routing: by induction over cycles the simulator then
// follows this exact timeline, so no head flit ever finds a channel
// reserved.  Conversely the earliest reported overlap is the first
// dynamic block, so for single-candidate routing the static verdict and
// the simulator + InvariantAuditor verdict coincide (tests enforce both
// directions on randomized scenarios).
//
// One window kernel (kernel.hpp) writes the per-send algebra once and
// every entry point drives it: lint_forest (N trees on one shared
// timeline, one engine per node, as MulticastRuntime::run_concurrent),
// lint_tree / lint_schedule (a forest of one with cfg.send_engines
// engines, as MulticastRuntime::run), earliest_clean_offset (the
// admission primitive) and lint_stream (the windowed stream as a
// periodic forest; one send engine only).  Each activation's sends enter
// the NI in (ready, post order), the simulator's release order.
//
// A separate pass checks the channel-dependency graph of all message
// paths (edge c_i -> c_{i+1} per consecutive path hop) for a cycle: a
// cyclic channel wait is the classic necessary condition for wormhole
// deadlock.  Dimension-ordered mesh routing, BMIN turnaround routing and
// butterfly self-routing climb a Dally–Seitz channel numbering
// (Topology::channel_rank), which certifies their paths in one compare
// per hop; anything else (custom topologies) gets a graph search that
// reports the loop.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/multicast_tree.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace pcm::lint {

/// Exact uncontended flit-level timeline of one send, derived
/// symbolically.  Cross-checked field-for-field against the simulator's
/// Message records and observer events by tests (rd = router_delay,
/// n = flits, h = path length including the ejection channel):
///   inject_start = max(ready, NI engine free)
///   reserve[i]   = inject_start + (i + 1) * rd
///   channel i is held for [reserve[i], reserve[i] + n)
///   delivered    = inject_start + h * rd + n - 1
struct SendWindow {
  int send = -1;  ///< index into MulticastTree::sends
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int flits = 0;
  Time op_start = 0;      ///< send operation starts (software)
  Time ready = 0;         ///< handed to the NI (op_start + t_send)
  Time inject_start = 0;  ///< first flit enters the source router
  Time delivered = 0;     ///< tail flit consumed at dst
  Time recv_done = 0;     ///< receiver software finishes (delivered + t_recv)
  std::vector<sim::ChannelId> path;  ///< traversed channels, ejection last
  std::vector<Time> reserve;         ///< per path hop: head reserves it here
};

enum class DiagKind {
  kStructure,   ///< the tree violates check_tree invariants
  kContention,  ///< two sends hold the same channel at overlapping times
  kDeadlock,    ///< the channel-dependency graph has a cycle
};

/// One structured finding.  For kContention, (tree_a, send_a) reserves
/// the shared channel first (ties broken by tree then send index) and
/// [overlap_begin, overlap_end) is the half-open intersection of the two
/// hold windows — its start is the first cycle the simulator charges a
/// blocked head.  tree_a/tree_b index the forest members (0 in a
/// lint_tree report; unused by lint_stream, whose send_a/send_b carry the
/// streaming tag).  For kDeadlock, `cycle` lists the channel-wait loop.
/// For kStructure, `detail` carries the check_tree diagnostic and tree_a
/// the offending member.
struct LintDiagnostic {
  DiagKind kind = DiagKind::kContention;
  int tree_a = -1;
  int send_a = -1;
  int tree_b = -1;
  int send_b = -1;
  sim::ChannelId channel = -1;
  Time overlap_begin = 0;
  Time overlap_end = 0;
  std::vector<sim::ChannelId> cycle;
  std::string detail;
};

struct LintOptions {
  /// Stop collecting after this many diagnostics (the verdict booleans
  /// still reflect the full analysis).
  int max_diagnostics = 64;
  /// Keep the per-send schedule in the report (tests and benches want it;
  /// sweeps screening thousands of trees may drop it to save memory).
  bool keep_schedule = true;
};

struct LintReport {
  std::vector<LintDiagnostic> diagnostics;
  std::vector<SendWindow> schedule;  ///< empty unless keep_schedule
  bool structure_ok = true;
  bool contention_free = true;
  bool deadlock_free = true;
  int sends = 0;
  int channels_used = 0;       ///< distinct channels any message traverses
  int max_channel_windows = 0; ///< most hold windows on one channel
  Time makespan = 0;           ///< last receiver software completion

  /// No diagnostics of any kind: the schedule is certified.
  [[nodiscard]] bool clean() const {
    return structure_ok && contention_free && deadlock_free;
  }

  /// Human-readable rendering of every collected diagnostic.
  [[nodiscard]] std::string describe(const MulticastTree& tree,
                                     const sim::Topology& topo) const;
};

/// Derives the exact uncontended timeline of every send of `tree`
/// carrying `payload` bytes and starting at t0 — the kernel run on a
/// forest of one — mirroring MulticastRuntime::run posting semantics
/// (cfg.send_engines software engines per node, round-robin, t_hold
/// apart; sends enter the NI in (ready, post order) and take the
/// earliest-free port) and the simulator's injection/reservation timing.
/// Throws std::invalid_argument when sim_cfg.router_delay < 1 (the
/// simulator's sub-cycle sweep order would decide ties) or when the
/// FIFO depth cannot sustain a bubble-free pipeline
/// (fifo_capacity < router_delay + 1), since then the closed-form
/// windows would understate channel occupancy.
std::vector<SendWindow> lint_schedule(const MulticastTree& tree,
                                      const sim::Topology& topo,
                                      const rt::RuntimeConfig& cfg,
                                      const sim::SimConfig& sim_cfg,
                                      Bytes payload, Time t0 = 0);

/// Full static analysis of one tree — lint_forest's certification of a
/// forest of one, with cfg.send_engines engines per node: structure
/// check, schedule derivation, pairwise channel-overlap scan, and the
/// channel-dependency deadlock check.
LintReport lint_tree(const MulticastTree& tree, const sim::Topology& topo,
                     const rt::RuntimeConfig& cfg, const sim::SimConfig& sim_cfg,
                     Bytes payload, const LintOptions& opts = {});

/// Shared precondition check of the symbolic timing model (router_delay
/// >= 1, fifo_capacity >= router_delay + 1); throws std::invalid_argument
/// naming `who` otherwise.  Every lint entry point calls this.
void validate_lint_config(const sim::SimConfig& sim_cfg, const char* who);

// ---------------------------------------------------------------------------
// Forest analysis: N concurrent trees on one shared channel timeline.

/// Largest start offset lint_forest accepts: far past any schedule's
/// makespan, and far enough inside Time's range that offset plus makespan
/// cannot overflow.
inline constexpr Time kMaxStartOffset = Time{1} << 40;

/// One tree of a forest: what run_concurrent calls a GroupRun.
struct ForestMember {
  MulticastTree tree;
  Bytes payload = 0;
  Time start = 0;  ///< activation offset relative to the forest origin, <= kMaxStartOffset
};

struct ForestOptions {
  int max_diagnostics = 64;
  bool keep_schedules = true;
};

struct ForestReport {
  std::vector<LintDiagnostic> diagnostics;
  /// Per-member exact timelines (absolute times); empty unless
  /// keep_schedules.
  std::vector<std::vector<SendWindow>> schedules;
  bool structure_ok = true;
  bool contention_free = true;
  bool deadlock_free = true;
  int trees = 0;
  int sends = 0;               ///< total across the forest
  int channels_used = 0;
  int max_channel_windows = 0;
  int intra_pairs = 0;         ///< overlapping send pairs within one tree
  int cross_pairs = 0;         ///< overlapping send pairs across trees
  Time makespan = 0;           ///< last receiver completion, absolute
  std::vector<Time> tree_makespan;  ///< per member, absolute

  [[nodiscard]] bool clean() const {
    return structure_ok && contention_free && deadlock_free;
  }
  [[nodiscard]] std::string describe(std::span<const ForestMember> members,
                                     const sim::Topology& topo) const;
};

/// Runs the window kernel over every tree on the *shared* per-node CPU
/// and NI state — mirroring MulticastRuntime::run_concurrent, including
/// its quirks: one software engine per node (send_engines is not
/// consulted), all sources activated in member order before the first
/// cycle (so at a shared source a later member queues behind an earlier
/// one even with a smaller start offset), and receive processing
/// serialized on the shared CPU (recv begins at max(delivered, cpu
/// free)).  Delivery events are replayed in the simulator's handler order
/// — (delivered cycle, ejection channel id) — so the derivation is exact
/// whenever the dynamic run is contention-free, and the earliest static
/// overlap is the first dynamic block (tests enforce verdict equivalence
/// on randomized forests).  Then overlap-scans the combined channel holds
/// and checks the union channel-dependency graph for cycles.
/// lint_tree is this certification applied to a forest of one.
ForestReport lint_forest(std::span<const ForestMember> members,
                         const sim::Topology& topo, const rt::RuntimeConfig& cfg,
                         const sim::SimConfig& sim_cfg,
                         const ForestOptions& opts = {});

/// Channel reservations of an already-admitted set of schedules, the
/// input to earliest_clean_offset.
struct HoldWindow {
  sim::ChannelId channel = -1;
  Time begin = 0;
  Time end = 0;  ///< half-open
};

class ChannelReservations {
 public:
  /// Flattens every hold window of `sched` (absolute times) into the set,
  /// merging them into the channel order: O(set + sched).
  void add(std::span<const SendWindow> sched);
  /// Every admitted hold window, sorted by channel (stable: in admission
  /// order within a channel).
  [[nodiscard]] const std::vector<HoldWindow>& holds() const { return holds_; }

 private:
  std::vector<HoldWindow> holds_;
};

/// Minimal start offset delta >= 0 at which `tree`, timed in isolation
/// (lint_schedule at t0 = 0) and rigidly shifted by delta, overlaps none
/// of `existing`'s reservations.  The shift is exact because the isolated
/// timeline is shift-invariant for delta >= 0.  This is the admission
/// primitive of a multi-tenant scheduler: exact when the new tree shares
/// no CPUs with the admitted set (node-disjoint tenants); when CPUs are
/// shared, queuing can perturb the timeline, so admit with lint_forest as
/// the final authority (pcmlint --offset-search does both).
Time earliest_clean_offset(const MulticastTree& tree, const sim::Topology& topo,
                           const rt::RuntimeConfig& cfg,
                           const sim::SimConfig& sim_cfg, Bytes payload,
                           const ChannelReservations& existing);

// ---------------------------------------------------------------------------
// Stream analysis: periodic extension of the per-send windows.

struct StreamLintOptions {
  int max_diagnostics = 64;
};

struct StreamLintReport {
  /// Contention findings; send_a/send_b carry the streaming tag
  /// slot * sends_per_slot + send_index (the same tag stream_fast stamps
  /// on messages).  De-duplicated by (send pattern, slot distance).
  std::vector<LintDiagnostic> diagnostics;
  bool structure_ok = true;
  bool contention_free = true;
  bool deadlock_free = true;
  int slots = 0;
  int window = 0;
  int sends_per_slot = 0;
  long long messages = 0;      ///< slots * sends_per_slot
  int analyzed_slots = 0;      ///< slots iterated symbolically
  int period_slots = 0;        ///< steady-state period d in slots (0: none found)
  Time period_cycles = 0;      ///< commit-time advance T per period
  double interval = 0.0;       ///< per-slot pipeline interval (T / d)
  Time slot_latency = 0;       ///< commit time of slot 0
  Time makespan = 0;           ///< commit time of the last slot
  double slots_per_kcycle = 0.0;  ///< 1000 * slots / makespan
  /// Analytic lower bounds on the interval: the busiest node's software
  /// time per slot (sum of t_hold over its sends — the objective a
  /// throughput-targeted split-table DP minimizes) and the busiest
  /// channel's flit occupancy per slot.
  Time busy_bound = 0;
  NodeId busy_node = kInvalidNode;
  Time channel_bound = 0;
  /// The steady interval equals busy_bound: the stream is software-bound
  /// at busy_node and the window hides all network latency.
  bool saturated = false;
  std::vector<Time> commit_time;  ///< per-slot commit times (all slots)

  [[nodiscard]] bool clean() const {
    return structure_ok && contention_free && deadlock_free;
  }
  [[nodiscard]] std::string describe(const MulticastTree& tree,
                                     const sim::Topology& topo) const;
};

/// Statically replays StreamRuntime's fault-free windowed pipeline
/// (stream_fast) as a periodic forest: each slot's activations are placed
/// by the window kernel on persistent per-node engine timelines, with
/// window backpressure off the cumulative commit frontier and the
/// full-drain resynchronization, in the kernel's delivery order.  Detects the steady state by
/// state matching (relative per-node timelines + open-window ring +
/// pending deliveries), reports the exact per-slot pipeline interval
/// T / d, and extrapolates the remaining commit times by the recurrence
/// commit[s] = commit[s - d] + T once every distinct pair class of
/// channel holds has been overlap-checked.  Exact (bit-identical commit
/// times, and verdict-equivalent to channel_conflicts == 0) under the
/// single-candidate-routing caveats documented above.  Requires one send
/// engine: throws std::invalid_argument when cfg.send_engines > 1, since
/// a later slot's post may then be ready before an earlier slot's and the
/// per-activation NI order no longer matches the simulator's.
StreamLintReport lint_stream(const MulticastTree& tree, const sim::Topology& topo,
                             const rt::RuntimeConfig& cfg,
                             const sim::SimConfig& sim_cfg, Bytes payload,
                             int slots, int window,
                             const StreamLintOptions& opts = {});

}  // namespace pcm::lint
