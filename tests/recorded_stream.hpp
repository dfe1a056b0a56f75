// A stream run together with the flight-recorder trace that
// InvariantAuditor::audit_stream replays (stream and membership tests).
#pragma once

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

}  // namespace pcm
