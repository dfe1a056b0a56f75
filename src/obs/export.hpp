// Trace serialization (DESIGN.md §6.8): a compact binary format ("PCMT")
// that round-trips the 32-byte TraceEvent records exactly, and a Chrome
// trace-event JSON writer whose output loads in Perfetto and
// chrome://tracing (reserve→release pairs become complete "X" spans on
// per-channel tracks; everything else becomes instant events).
//
// The binary format is the comparison substrate: two runs are "the same"
// iff their PCMT payloads are byte-identical, also across the cycle and
// event engines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "obs/trace_event.hpp"

namespace pcm::obs {

/// Parsed header + events of a binary trace.
struct TraceFile {
  std::uint64_t dropped = 0;  ///< events lost to ring wrap-around
  std::vector<TraceEvent> events;
};

/// Writes the binary "PCMT" format: 8-byte magic "PCMTRC\0\1", u64 event
/// count, u64 dropped count, then the raw 32-byte records.
void write_binary_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::uint64_t dropped);

/// Reads a binary trace; throws std::runtime_error on a bad magic,
/// version, or truncated payload.  Memory grows with the records read,
/// never with the header's claimed count.
[[nodiscard]] TraceFile read_binary_trace(std::istream& is);

/// Writes Chrome trace-event JSON ({"traceEvents":[...]}).  Spans are
/// emitted at the matching kRelease (args carry msg/span);
/// all other kinds are instant events with per-kind args.
void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events);

/// Writes `events` to `path`, picking the format by suffix: ".json" gets
/// Chrome trace JSON, anything else the binary format.  Throws
/// std::runtime_error if the file cannot be opened.
void write_trace(const std::string& path, std::span<const TraceEvent> events,
                 std::uint64_t dropped);

/// One-line human rendering of an event ("[cycle] kind a=.. b=..").
[[nodiscard]] std::string format_event(const TraceEvent& ev);

/// Result of diff_traces.
struct TraceDiff {
  bool identical = true;
  std::size_t first_divergence = 0;  ///< index of first differing record
  std::string detail;                ///< human summary of the divergence
};

/// Compares two event sequences record-by-record: count, order,
/// timestamps and payloads must match exactly.
[[nodiscard]] TraceDiff diff_traces(std::span<const TraceEvent> lhs,
                                    std::span<const TraceEvent> rhs);

}  // namespace pcm::obs
