// Fixed-size trace records for the flight recorder (DESIGN.md §6.8).
//
// Every observable the recorder captures — simulator channel events,
// runtime send lifecycles, membership verdicts, auditor violations — is
// one 32-byte POD keyed on the *simulated* cycle it happened at, so a
// trace is a pure function of the workload: bit-identical across
// `--jobs` fan-outs and across the cycle/event engines.
//
// The payload fields a..d are interpreted per kind (the table below);
// unused fields are zero so serialized traces compare byte-for-byte.
#pragma once

#include <cstdint>
#include <type_traits>

#include "core/types.hpp"

namespace pcm::obs {

/// What one TraceEvent records.  Grouped by layer; the numeric values are
/// part of the binary trace format — append, never renumber.
enum class EventKind : std::uint16_t {
  // --- trace structure ---------------------------------------------------
  kRunBegin = 0,     ///< a=run index, b=series tag (alg id); marks the
                     ///< deterministic merge boundary of a fan-out run
  // --- simulator (sim::SimObserver hooks) --------------------------------
  kPost = 1,         ///< a=msg, b=src, c=dst, d=flits
  kReserve = 2,      ///< a=router, b=out_port, c=msg  (opens a channel span)
  kRelease = 3,      ///< a=router, b=out_port, c=msg, d=span cycles
                     ///< (closes the span)
  kBlocked = 4,      ///< a=router, b=in_port, c=msg: one lost cycle
                     ///< (read from older traces; no longer written)
  kDeliver = 5,      ///< a=msg, b=src, c=dst, d=corrupted
  kDrop = 6,         ///< a=msg, b=DropReason
  kFaultEvent = 7,   ///< a fault-plan event was applied at `cycle`
  kWatchdog = 8,     ///< a=stalled cycles (clamped to int32)
  // --- multicast / stream runtime ----------------------------------------
  kSendAttempt = 9,  ///< a=record, b=attempt (0 = first try), c=recv pos,
                     ///< d=slot (-1 for one-shot multicasts)
  kSendAcked = 10,   ///< a=record, b=attempt, c=recv pos, d=slot
  kSlotInject = 11,  ///< a=slot, b=epoch, c=acting source pos
  kSlotDeliver = 12, ///< a=slot, b=epoch, c=receiver pos
  kSlotCommit = 13,  ///< a=slot, b=epoch (cumulative frontier passed it)
  kStaleAck = 14,    ///< a=slot, b=stale epoch, c=receiver pos
  kEpochBump = 15,   ///< a=new epoch, b=evicted pos, c=1 if partition
  kFailover = 16,    ///< a=new epoch, b=successor pos, c=committed prefix
  kRejoin = 17,      ///< a=new epoch, b=rejoined pos, c=delivered prefix
  // --- membership service -------------------------------------------------
  kHeartbeat = 18,   ///< a=observer node, b=transitions this sweep
  kSuspect = 19,     ///< a=member index, b=node
  kClear = 20,       ///< a=member index, b=node
  kConfirmCrashed = 21,      ///< a=member index, b=node
  kConfirmUnreachable = 22,  ///< a=member index, b=node
  kHealed = 23,      ///< a=member index, b=node
  // --- verification -------------------------------------------------------
  kViolation = 24,   ///< a=Invariant enum value, b=msg, c=router, d=port
  kWait = 25,        ///< (simulator) a=router, b=in_port, c=msg: a wait starts;
                     ///< it ends at msg's next kReserve at router a, or kDrop
};

[[nodiscard]] const char* event_kind_name(EventKind k);

/// One recorded observable.  Exactly 32 bytes with no implicit padding,
/// so serialized traces are memcmp-comparable.
struct TraceEvent {
  Time cycle = 0;            ///< simulated cycle of the event
  std::int32_t a = 0;        ///< payload (see EventKind)
  std::int32_t b = 0;
  std::int32_t c = 0;
  std::int32_t d = 0;
  std::uint16_t kind = 0;    ///< EventKind
  std::uint16_t flags = 0;   ///< reserved; always zero
  std::uint32_t reserved = 0;  ///< explicit padding; always zero

  [[nodiscard]] EventKind event_kind() const {
    return static_cast<EventKind>(kind);
  }
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

static_assert(sizeof(TraceEvent) == 32, "trace format is 32-byte records");
static_assert(std::is_trivially_copyable_v<TraceEvent>);

}  // namespace pcm::obs
