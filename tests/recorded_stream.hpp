// A stream run together with the flight-recorder trace that
// InvariantAuditor::audit_stream replays (stream and membership tests),
// and the send-order hash the reliable-protocol goldens pin.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/recorder.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/simulator.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm {

struct RecordedStream {
  rt::StreamResult res;
  std::vector<obs::TraceEvent> events;  ///< everything the run recorded

  void audit() const { verify::InvariantAuditor::audit_stream(res, events, 0); }
};

/// Runs `cfg` on `sim` with an unbounded recorder attached to the stream
/// (not to the simulator), so `events` holds the protocol events only.
inline RecordedStream run_recorded(const rt::StreamRuntime& srt,
                                   sim::Simulator& sim, NodeId source,
                                   std::span<const NodeId> dests,
                                   rt::StreamConfig cfg) {
  obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
  cfg.recorder = &rec;
  RecordedStream out{srt.run(sim, source, dests, cfg), {}};
  out.events = rec.snapshot();
  return out;
}

/// FNV-1a over the recorder's kSendAttempt records, in record order: the
/// exact order in which a reliable protocol issued and retransmitted.
inline std::uint64_t send_attempt_hash(const obs::FlightRecorder& rec) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (const obs::TraceEvent& ev : rec.snapshot()) {
    if (ev.event_kind() != obs::EventKind::kSendAttempt) continue;
    mix(ev.cycle);
    mix(ev.a);
    mix(ev.b);
    mix(ev.c);
    mix(ev.d);
  }
  return h;
}

}  // namespace pcm
