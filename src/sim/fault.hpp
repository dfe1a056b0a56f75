// Deterministic fault injection for the flit-level simulator.
//
// A FaultPlan is an explicit, pre-declared list of failure events plus
// optional rate-based loss driven by a seeded substream hash:
//
//   * link down/up at cycle C       — the directed channel (router, port)
//     refuses new reservations; a message holding the channel when it
//     goes down is truncated and purged (models a physical link cut);
//   * node fail-stop at cycle C     — the node's NI stops injecting and
//     consuming: queued and in-flight sends from the node are purged,
//     messages destined to it are dropped at its ejection channel;
//   * per-hop message drop rate     — when a head flit crosses a link,
//     hash(seed, msg, downstream router) decides whether the message is
//     lost there (models a CRC/buffer fault; the worm is purged);
//   * delivery corruption rate      — hash(seed', msg) decides whether a
//     fully delivered message arrives corrupted (payload unusable; the
//     runtime treats it as a loss and retransmits).
//
// Determinism: every decision is a pure function of (plan, message id,
// place), and each Simulator owns its plan state, so fault-injected runs
// are bit-reproducible at any --jobs fan-out — the property
// tests/test_faults.cpp pins.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace pcm::sim {

class Topology;

/// Why a message was removed from the network without being delivered.
enum class DropReason {
  kNone,
  kLinkDown,    ///< held or required channel went/was down
  kNodeDead,    ///< destination node fail-stopped
  kSenderDead,  ///< source node fail-stopped before the send left its NI
  kFlitFault,   ///< rate-based loss while crossing a link
};

[[nodiscard]] const char* drop_reason_name(DropReason r);

struct FaultPlan {
  struct LinkEvent {
    Time cycle = 0;
    int router = 0;
    int port = 0;
    bool up = false;  ///< false = link goes down, true = link restored
    bool operator==(const LinkEvent&) const = default;
  };
  struct NodeEvent {
    Time cycle = 0;
    NodeId node = kInvalidNode;
    bool operator==(const NodeEvent&) const = default;
  };
  struct CutChannel {
    int router = 0;
    int port = 0;
    bool operator==(const CutChannel&) const = default;
  };
  /// A partition (up=false) or heal (up=true) of a whole channel set at
  /// one cycle.  The simulator lowers each cut into per-channel link
  /// events at install time; keeping the grouped form in the plan lets
  /// to_spec() round-trip the spec the user actually wrote.
  struct CutEvent {
    Time cycle = 0;
    bool up = false;
    std::vector<CutChannel> channels;
    bool operator==(const CutEvent&) const = default;
  };

  std::vector<LinkEvent> link_events;   ///< applied in cycle order
  std::vector<NodeEvent> node_events;   ///< fail-stop (nodes never recover)
  std::vector<CutEvent> cut_events;     ///< partition/heal channel groups
  double drop_rate = 0.0;               ///< per head-flit link crossing
  double corrupt_rate = 0.0;            ///< per delivered message
  std::uint64_t seed = 0;               ///< substream seed for the rates

  [[nodiscard]] bool empty() const {
    return link_events.empty() && node_events.empty() && cut_events.empty() &&
           drop_rate == 0.0 && corrupt_rate == 0.0;
  }

  /// Parses a `--faults` spec: semicolon-separated clauses
  ///   link:R,P@C     channel (router R, out-port P) down from cycle C
  ///   linkup:R,P@C   the same channel restored at cycle C
  ///   node:N@C       node N fail-stops at cycle C
  ///   partition:R,P|R,P|...@C   every listed channel down at cycle C
  ///   heal:R,P|R,P|...@C        every listed channel restored at cycle C
  ///   drop:RATE      per-hop message drop probability in [0, 1]
  ///   corrupt:RATE   per-delivery corruption probability in [0, 1]
  ///   seed:S         substream seed for the rates (default 0)
  /// e.g. "node:42@1500;drop:0.001;seed:7".  Throws std::invalid_argument
  /// with a one-line diagnostic on malformed input.
  static FaultPlan parse(const std::string& spec);

  /// Builds the plan that splits a direct network into `region_a` and
  /// `region_b` at cycle `t_down` and heals it at `t_up` (pass t_up < 0
  /// for a permanent cut).  The two regions must be disjoint and jointly
  /// cover every node of `topo`; the emitted cut set is minimal — exactly
  /// the directed channels whose endpoints' attached nodes lie in
  /// different regions.  Throws std::invalid_argument on uncovered or
  /// doubly-assigned nodes, on switch-only routers (indirect networks
  /// have no node-derived sides), or on an empty cut.
  static FaultPlan partition(const Topology& topo,
                             const std::vector<NodeId>& region_a,
                             const std::vector<NodeId>& region_b, Time t_down,
                             Time t_up);

  /// One-line human-readable summary for preambles and reports.
  [[nodiscard]] std::string describe() const;

  /// Serializes the plan back to a `--faults` spec string such that
  /// `parse(to_spec()) == *this` (events in stored order; rates printed
  /// with enough digits to round-trip exactly).  The chaos minimizer
  /// relies on this to hand out replayable reproducers.  An empty plan
  /// has no spec (parse rejects empty strings); returns "".
  [[nodiscard]] std::string to_spec() const;

  bool operator==(const FaultPlan&) const = default;
};

/// The plan's (deterministic) per-delivery corruption decision for `msg`
/// — the same hash the simulator consults, exposed so auditors can
/// cross-check that a delivered message's corrupted flag matches the plan.
[[nodiscard]] bool plan_corrupts(const FaultPlan& plan, int msg);

/// The plan's per-hop drop decision for `msg` entering `downstream_router`.
[[nodiscard]] bool plan_drops(const FaultPlan& plan, int msg, int downstream_router);

/// The hash behind fault_uniform, split at its per-plan half so a hot
/// per-decision test folds the seed and the decision family once.
namespace fault_hash {

/// splitmix64 finalizer (same mixer the harness substreams use).
constexpr std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The per-plan half: the seed and a decision family's salt.
constexpr std::uint64_t key(std::uint64_t seed, std::uint64_t salt) {
  return mix(seed + 0x9e3779b97f4a7c15ULL) ^ mix(salt);
}

/// fault_uniform(seed, salt, a, b) for `k` == key(seed, salt).
constexpr double uniform(std::uint64_t k, std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(
             mix(k ^ mix(a * 0xff51afd7ed558ccdULL + b + 0x2545f4914f6cdd1dULL)) >> 11) *
         0x1.0p-53;
}

}  // namespace fault_hash

/// plan_drops() for one plan with the plan's half of the hash folded
/// once: the per-hop test both engines make whenever a head crosses a
/// link.  Bit-equal to plan_drops (tests pin it).
class DropTest {
 public:
  DropTest() = default;  ///< drops nothing
  explicit DropTest(const FaultPlan& plan);
  [[nodiscard]] bool operator()(int msg, int downstream_router) const {
    return rate_ > 0 &&
           fault_hash::uniform(key_, static_cast<std::uint64_t>(msg),
                               static_cast<std::uint64_t>(downstream_router)) < rate_;
  }

 private:
  double rate_ = 0.0;
  std::uint64_t key_ = 0;
};

/// Deterministic per-decision hash mapped to [0, 1).  `salt` separates
/// decision families (drop vs corrupt), `a`/`b` identify the decision
/// point (message id, router, ...).
[[nodiscard]] double fault_uniform(std::uint64_t seed, std::uint64_t salt,
                                   std::uint64_t a, std::uint64_t b);

}  // namespace pcm::sim
