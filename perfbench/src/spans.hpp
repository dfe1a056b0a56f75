// Host-time spans for the benchmark's traced mode.
//
// A span is one call into a layer's public function, timed from the
// outside: name, start, end, the span that caused it, and the op it
// belongs to.  Spans stay in memory and are written once, at exit, as
// Chrome trace-event JSON (loads in Perfetto and chrome://tracing).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

/// Host time of the calling thread in nanoseconds: its CPU time
/// (CLOCK_THREAD_CPUTIME_ID).  The benchmark is one thread that never
/// blocks in a timed region, so on a dedicated machine this is its wall
/// time; on a shared virtual machine it leaves out the time the host ran
/// other guests, which would otherwise swamp run-to-run comparisons.
std::int64_t now_ns();

/// Steady-clock nanoseconds since the first call in this process.
std::int64_t wall_ns();

struct Span {
  const char* name = "";  ///< string literal: "op", "core.build", ...
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span; -1 for an op span
  int op = -1;      ///< op id shared by an op span and all its children
};

class SpanLog {
 public:
  /// Opens a span now and returns its index.
  int open(const char* name, int parent, int op);
  /// Closes span `id` now.
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null log
/// records nothing (the untraced mode).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent, int op)
      : log_(log), id_(log != nullptr ? log->open(name, parent, op) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (the union of the child intervals, clipped to
/// the span, so overlapping children are not subtracted twice).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON: one complete ("X") event
/// per span on a single track, so children nest under their op.
void write_chrome_spans(std::ostream& os, const std::vector<Span>& spans);

}  // namespace perfbench
