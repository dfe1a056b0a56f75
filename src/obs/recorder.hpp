// Flight recorder: a preallocated ring-buffer trace of simulator and
// runtime events keyed on simulated cycles (DESIGN.md §6.8).
//
// The recorder is a sim::SimObserver, so the overhead contract is
// structural: when tracing is off no recorder exists, the simulator's
// observer pointer stays null, and the hot path pays exactly the
// null-checks it already paid — zero allocations, bit-identical SimStats
// and stdout.  When tracing is on, record() is a plain store into a ring
// whose memory is reserved at construction but only touched as events
// arrive (short runs never fault in the full capacity); once full, the
// ring overwrites its oldest entries (events_dropped() counts them), so
// a recorder never reallocates and never slows down over a long run.
// A recorder an audit replays is built with kUnbounded instead: it never
// overwrites, and grows like a vector (nothing is reserved up front).
//
// Determinism: every event is keyed on simulated time and recorded from
// single-threaded per-run code, so a run's event sequence is a pure
// function of the workload.  Fan-out drivers (harness::run_point,
// pcmcast) give each run its own recorder and append() them in placement
// order, which makes the merged trace bit-identical at any --jobs value.
// Cross-engine: the event engine fires the same observer callbacks with
// the same timestamps as the cycle engine while fast-forwarding, and clock
// jumps are not recorded, so the two engines' traces are byte-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "obs/trace_event.hpp"
#include "sim/observer.hpp"

namespace pcm::obs {

/// Capacity of a recorder that never overwrites (see RecorderConfig).
inline constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

struct RecorderConfig {
  /// Ring capacity in events (32 bytes each).  The default keeps the last
  /// ~1M events (32 MB); fan-out drivers use a smaller per-run ring.
  /// kUnbounded keeps every event (events_dropped() stays 0).
  std::size_t capacity = std::size_t{1} << 20;
};

/// Per-run capacity harness fan-outs use (one ring per in-flight run).
inline constexpr std::size_t kRunRingCapacity = std::size_t{1} << 16;

class FlightRecorder final : public sim::SimObserver {
 public:
  explicit FlightRecorder(RecorderConfig cfg = {});

  /// Forward every sim hook to `next` after recording it (e.g. the
  /// InvariantAuditor under --audit --trace).  Not owned; nullptr clears.
  void chain(sim::SimObserver* next) { next_ = next; }

  // --- sim::SimObserver hooks -------------------------------------------
  void on_post(const sim::Message& m, Time t) override;
  void on_deliver(const sim::Message& m, Time t) override;
  void on_reserve(int router, int out_port, sim::MsgId msg, Time t) override;
  void on_release(int router, int out_port, sim::MsgId msg, Time t) override;
  void on_blocked(int router, int in_port, sim::MsgId msg, Time t) override;
  void on_drop(sim::MsgId msg, sim::DropReason reason, Time t) override;
  void on_fault_event(Time t) override;
  void on_watchdog(const sim::WatchdogReport& report) override;
  void on_fast_forward(Time from, Time to) override;

  /// Generic instrumentation point for the runtime layers (send
  /// lifecycles, slot frontiers, membership verdicts, annotations).
  void record(EventKind k, Time t, std::int32_t a = 0, std::int32_t b = 0,
              std::int32_t c = 0, std::int32_t d = 0) noexcept;

  /// Events currently in the ring, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Events ever recorded / overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t events_recorded() const { return recorded_; }
  [[nodiscard]] std::uint64_t events_dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// Appends another recorder's ring contents (oldest first).  Fan-out
  /// drivers call this in placement order to build one deterministic
  /// merged trace from per-run recorders.
  void append(const FlightRecorder& run);

  void clear();

 private:
  /// Reserve cycle of the channel (router, out_port), or -1 when idle.
  /// Flat per-router arrays grown on demand: span bookkeeping is two
  /// indexed loads per event, no node allocations on the hot path.
  [[nodiscard]] Time* open_span_slot(int router, int out_port);

  std::size_t capacity_;       ///< ring slots; ring_ grows lazily up to it
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;       ///< overwrite cursor once the ring is full
  std::uint64_t recorded_ = 0;
  std::vector<std::vector<Time>> open_spans_;  ///< [router][out_port]
  sim::SimObserver* next_ = nullptr;
};

}  // namespace pcm::obs
