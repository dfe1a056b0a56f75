// Runtime invariant auditing for the flit-level simulator and the
// fault-tolerant multicast runtime.
//
// The InvariantAuditor is a sim::SimObserver that machine-checks, on
// every event, the properties the paper's theorems and the simulator's
// own contracts promise:
//
//   * message conservation   — every posted message ends delivered,
//     dropped, or still pending; the auditor's own ledger must agree
//     with SimStats at the end of a run (injected = delivered + dropped
//     + purged);
//   * no phantom delivery    — only posted, non-terminal messages may be
//     delivered, and a delivery's corrupted flag must match the fault
//     plan's (pure-hash) corruption decision: a corrupted payload on a
//     healthy run, or a clean payload the plan said to corrupt, is a
//     simulator bug;
//   * channel exclusivity    — an output channel is held by at most one
//     message at a time; releases must come from the holder (wormhole
//     ground truth);
//   * contention freedom     — for schedules built over sorted chains
//     (OPT-mesh / U-mesh on meshes, OPT-min / U-min on BMINs; Theorems
//     1–2), no *delivered* message may ever have been head-blocked.
//     Purged sends to dead nodes are exempt: the theorems only cover
//     survivor traffic.  Callers should demand this only on fault-free
//     runs: the disjoint-interval argument covers the healthy schedule,
//     and a retransmission to a receiver whose own forwards are already
//     in flight shares that receiver's sub-network, so under faults
//     head-blocking is legal (chaos found exactly this: U-min + drops);
//   * monotonic ack epochs   — run_reliable's per-record attempt
//     counters only ever step forward, acks match an issued attempt, and
//     no record's ack is counted twice (audit_result, replaying the
//     flight recorder's send lifecycle);
//   * watchdog consistency   — a WatchdogReport's reservation table and
//     stalled-message set must agree with the auditor's ledger.
//
// Violations throw InvariantViolation carrying the offending cycle,
// message, and channel, so a chaos driver can minimize and replay them.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "obs/trace_event.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/observer.hpp"
#include "sim/simulator.hpp"
#include "sim/topology.hpp"

namespace pcm::verify {

/// Which machine-checked property failed.
enum class Invariant {
  kConservation,        ///< ledger vs SimStats mismatch at end of run
  kPhantomDelivery,     ///< delivery of an unposted or already-terminal msg
  kPhantomDrop,         ///< drop of an unposted/terminal msg, or on a healthy run
  kCorruptionMismatch,  ///< corrupted flag disagrees with the plan's hash
  kChannelExclusivity,  ///< double reservation / release by a non-holder
  kContentionFreedom,   ///< a delivered message was head-blocked (Thm 1–2)
  kAckEpoch,            ///< attempt regression, unmatched or double ack
  kResultConsistency,   ///< McastResult fields disagree with each other
  kWatchdogMismatch,    ///< WatchdogReport disagrees with the ledger
  kStreamOrder,         ///< out-of-order slot delivery at one receiver
  kStreamGap,           ///< delivery gap below the cumulative-ack frontier
  kStreamEpoch,         ///< epoch regression, or stale-epoch state advance
  kStreamWindow,        ///< window occupancy exceeded window_size
};

[[nodiscard]] const char* invariant_name(Invariant inv);

/// A failed invariant check.  what() is a one-line diagnostic embedding
/// the fields below.
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(Invariant inv, std::string detail, Time cycle = -1,
                     sim::MsgId msg = sim::kInvalidMsg, int router = -1,
                     int port = -1);

  [[nodiscard]] Invariant invariant() const { return invariant_; }
  [[nodiscard]] Time cycle() const { return cycle_; }
  [[nodiscard]] sim::MsgId msg() const { return msg_; }
  [[nodiscard]] int router() const { return router_; }
  [[nodiscard]] int port() const { return port_; }

 private:
  Invariant invariant_;
  Time cycle_;
  sim::MsgId msg_;
  int router_;
  int port_;
};

/// True when the algorithm's chain ordering carries the paper's
/// contention-freedom guarantee (Theorem 1 for dimension-ordered chains
/// on meshes, Theorem 2 for lexicographic chains on BMINs) — for these
/// the auditor may demand zero blocked cycles on survivor traffic.
[[nodiscard]] bool guarantees_contention_free(McastAlgorithm alg);

struct AuditConfig {
  /// Demand zero head-blocked cycles for every delivered message.
  bool require_contention_free = false;
  /// The fault plan installed on the simulator; when false, the run is
  /// expected healthy and any drop or corruption is itself a violation.
  bool plan_known = false;
  sim::FaultPlan plan;
};

/// Install with Simulator::set_observer before posting traffic; call
/// finalize() after the run to execute the end-of-run checks.  One
/// auditor audits one simulator for its whole lifetime (the ledger is
/// cumulative across runs, like SimStats).
class InvariantAuditor final : public sim::SimObserver {
 public:
  InvariantAuditor(const sim::Topology& topo, AuditConfig cfg = {});

  // --- SimObserver hooks (each throws InvariantViolation on failure) ---
  void on_post(const sim::Message& m, Time t) override;
  void on_deliver(const sim::Message& m, Time t) override;
  void on_reserve(int router, int out_port, sim::MsgId msg, Time t) override;
  void on_release(int router, int out_port, sim::MsgId msg, Time t) override;
  void on_blocked(int router, int in_port, sim::MsgId msg, Time t) override;
  void on_drop(sim::MsgId msg, sim::DropReason reason, Time t) override;
  void on_fault_event(Time t) override;
  void on_watchdog(const sim::WatchdogReport& report) override;

  /// End-of-run checks: ledger vs SimStats conservation, no channel held
  /// while the network is quiescent, and (in strict mode) contention
  /// freedom of every delivered message.  Callable after every run.
  void finalize(const sim::Simulator& sim) const;

  /// The protocol audits replay the run's flight-recorder trace:
  /// `events` is everything one run recorded (other kinds are skipped)
  /// and `dropped` its events_dropped().  Both throw std::invalid_argument
  /// when dropped > 0 — a wrapped ring is never audited — so record
  /// audited runs with obs::kUnbounded.

  /// Checks a run_reliable result for internal consistency: delivered
  /// counts vs recv_complete, delivered_fraction arithmetic, dead-node
  /// accounting, and, over the kSendAttempt / kSendAcked events,
  /// monotonic ack epochs with no double-counted acks.
  static void audit_result(const rt::McastResult& res,
                           std::span<const obs::TraceEvent> events,
                           std::uint64_t dropped);

  /// Checks a StreamResult for the streaming invariants (DESIGN.md §6.6):
  /// result-field arithmetic (committed/commit_time/occupancy bounds),
  /// and a full replay of the slot, epoch and membership events
  /// asserting per-receiver in-order delivery (on reconfiguration-free
  /// streams), no delivery gaps below the cumulative-ack frontier for any
  /// surviving receiver, epoch monotonicity (an epoch only ever steps
  /// forward by one, state-advancing events carry the current epoch, and
  /// stale acks carry an older one), window occupancy never exceeding
  /// window_size, and result counters matching the replay.
  static void audit_stream(const rt::StreamResult& res,
                           std::span<const obs::TraceEvent> events,
                           std::uint64_t dropped);

  [[nodiscard]] int posted() const { return posted_; }
  [[nodiscard]] int delivered() const { return delivered_; }
  [[nodiscard]] int dropped() const { return dropped_; }
  [[nodiscard]] int fault_events() const { return fault_events_; }

 private:
  struct Ledger {
    bool delivered = false;
    bool dropped = false;
    Time blocked = 0;
    [[nodiscard]] bool terminal() const { return delivered || dropped; }
  };
  [[nodiscard]] Ledger& known(sim::MsgId msg, Time t, const char* where);
  [[nodiscard]] std::string chan(int router, int port) const;

  const sim::Topology& topo_;
  AuditConfig cfg_;
  int radix_ = 0;
  std::vector<Ledger> msgs_;            ///< indexed by (dense) MsgId
  std::vector<sim::MsgId> holder_;      ///< per channel id; kInvalidMsg = free
  int posted_ = 0;
  int delivered_ = 0;
  int dropped_ = 0;
  int fault_events_ = 0;
};

}  // namespace pcm::verify
