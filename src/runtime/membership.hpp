// Deterministic group membership for the streaming multicast runtime.
//
// A MembershipService tracks one multicast group (source + receivers) with
// lease-based heartbeats evaluated at a fixed cadence.  Each sweep renews
// the lease of every member that is up *and* round-trip reachable from the
// observer (the acting source) over the currently-live channel set; a
// member that misses `suspect_after` consecutive sweeps becomes suspect,
// and at `confirm_after` misses the detector confirms and classifies the
// failure:
//
//   * crashed      — the member is still topologically round-trip
//                    reachable, yet silent: only a fail-stop explains it;
//   * unreachable  — every route crosses a down channel: a partition.
//                    The member may heal later and rejoin.
//
// Split-brain safety: when the network is cut, only the side holding the
// *plurality* of up members (ties broken by lowest node id) may adjudicate
// deaths and elect a successor.  An observer that finds itself in a
// minority component renews nobody and instead runs the miss ladder
// against itself — the runtime reads a confirmed `kUnreachable` verdict
// for the acting source as "this source is deposed" and fails over to the
// plurality side.  Since components are disjoint and plurality (with the
// deterministic tie-break) is unique, at most one component ever hosts an
// active source per epoch.
//
// Heartbeats are *modeled*, not simulated: the lease predicate consults
// the simulator's live fault state (node_failed / channel_live) instead of
// posting probe flits, which keeps Theorem-1 schedules contention-free and
// the whole detector bit-reproducible at any --jobs fan-out.  This is
// observationally equivalent to real probes with a period-long timeout: a
// fail-stopped node never answers, and a probe whose every route crosses a
// dead channel never returns.
//
// Round-trip reachability is a labeling, not a search: two routers reach
// each other both ways exactly when they lie in the same strongly-connected
// component of the live channel graph.  The service labels every router
// once and relabels only when the simulator's liveness_version() moves
// (a link event applied), so a sweep costs a label comparison per member.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "obs/recorder.hpp"
#include "sim/simulator.hpp"

namespace pcm::rt {

enum class MemberState {
  kAlive,        ///< lease current
  kSuspect,      ///< >= suspect_after consecutive missed leases
  kCrashed,      ///< confirmed fail-stop (permanent)
  kUnreachable,  ///< confirmed partition (may heal and rejoin)
};

struct MembershipConfig {
  Time heartbeat_period = 0;  ///< cycles between sweeps; 0 disables
  int suspect_after = 2;      ///< missed sweeps before suspicion
  int confirm_after = 4;      ///< missed sweeps before confirm (> suspect)
};

/// One state transition observed by a sweep, in member-index order.
struct MembershipEvent {
  enum class Kind {
    kSuspect,      ///< alive -> suspect
    kClear,        ///< suspect -> alive (lease renewed in time)
    kCrashed,      ///< confirmed fail-stop
    kUnreachable,  ///< confirmed partition
    kHealed,       ///< an unreachable member answers again (repeats each
                   ///< sweep until the runtime readmits or ignores it)
  };
  Kind kind;
  int member = -1;  ///< index into the constructor's member list
};

class MembershipService {
 public:
  /// `members[i]` is the node tracked as member index i; index order is
  /// the group's chain order, so sweeps emit events deterministically.
  MembershipService(const sim::Simulator& sim, std::vector<NodeId> members,
                    MembershipConfig cfg);

  /// One lease evaluation observed from `observer` (must be a member).
  /// Advances every tracked ladder and returns the transitions, in member
  /// order.  Call at the configured cadence.
  std::vector<MembershipEvent> sweep(NodeId observer);

  /// External verdicts from the runtime's retransmission ladder: a member
  /// evicted after max_retries is marked crashed (or, when the runtime's
  /// reachability consult says the routes are cut, unreachable — i.e.
  /// rejoinable) so the detector and the runtime never disagree.
  void evict(int member, bool unreachable = false);

  /// The runtime accepted a healed member back: alive, ladder reset.
  void readmit(int member);

  /// Flight recorder for detector activity: each sweep records a
  /// kHeartbeat (observer node, #transitions) plus one event per verdict,
  /// all before the runtime applies any (InvariantAuditor::audit_stream
  /// relies on this grouping).  Not owned; nullptr (the default) records
  /// nothing.
  void set_recorder(obs::FlightRecorder* rec) { recorder_ = rec; }

  [[nodiscard]] MemberState state(int member) const {
    return state_[static_cast<std::size_t>(member)];
  }
  [[nodiscard]] Time period() const { return cfg_.heartbeat_period; }

  /// Member indices in the component that currently holds the plurality
  /// of up members (mutually round-trip reachable sets; ties by lowest
  /// node id).  Failover elects its successor from this set.
  [[nodiscard]] std::vector<int> plurality_members() const;

  /// True when a probe from `from`'s router can reach member `to`'s node
  /// and the answer can travel back, over live channels only.
  [[nodiscard]] bool round_trip_reachable(NodeId from, NodeId to) const;

 private:
  /// Recomputes scc_ from the simulator's live channel set.
  void relabel() const;
  /// True when members `a` and `b` sit in one strongly-connected component
  /// of live channels and both ejection channels are live (a == b: its
  /// own ejection channel is live).  Relabels first if a link event
  /// applied since the last labeling.
  [[nodiscard]] bool linked(int a, int b) const;
  [[nodiscard]] bool member_up(int m) const;

  const sim::Simulator& sim_;
  MembershipConfig cfg_;
  std::vector<NodeId> members_;
  std::vector<MemberState> state_;
  std::vector<int> misses_;
  std::vector<int> router_of_;               ///< attach router per member
  std::vector<sim::ChannelId> eject_of_;     ///< ejection channel per member
  std::vector<int> down_;  ///< per channel id: downstream router, or -1
  // Round-trip reachability cache: strongly-connected component label per
  // router of the live channel graph, valid while the simulator's
  // liveness_version() equals labeled_version_.  Refreshed lazily from
  // const queries, so one service must not be queried from two threads.
  mutable std::vector<int> scc_;
  mutable std::uint64_t labeled_version_ = 0;
  obs::FlightRecorder* recorder_ = nullptr;
};

}  // namespace pcm::rt
