// Shared experiment harness for the per-figure bench binaries and the
// pcmcast CLI.
//
// Every bench follows the paper's method (Sec. 5): a data point is the
// mean multicast latency over `reps` independent random placements (the
// paper uses 16) with identical parameters; the same seeded placements
// are reused across algorithms so series are paired.
//
// The harness adds the scale-out layer: placements x algorithm runs fan
// out across a thread pool (`--jobs N`, default one per hardware thread;
// `--jobs 1` reproduces the historical serial behaviour exactly), every
// run gets its own Simulator and, where randomness is needed, its own
// RNG substream — so results are bit-identical at any job count.  With
// `--json FILE` each bench also emits a machine-readable report (tables
// + wall-clock) for tracking the perf trajectory across commits.
#pragma once

#include <chrono>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include <memory>
#include <optional>

#include "analysis/sampling.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/algorithms.hpp"
#include "harness/substream.hpp"
#include "harness/thread_pool.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

namespace pcm::harness {

inline constexpr int kPaperReps = 16;
inline constexpr std::uint64_t kSeed = 1997;

/// One measured data point.
struct Point {
  analysis::Stats latency;      ///< simulated multicast latency (cycles)
  analysis::Stats model;        ///< contention-free model bound (cycles)
  double mean_conflicts = 0;    ///< mean head-blocked cycles per run
};

/// Command-line surface shared by every bench binary.
struct Options {
  int jobs = 0;           ///< --jobs N; 0 = one per hardware thread
  std::string json_path;  ///< --json FILE; empty = no JSON report
  std::string faults;     ///< --faults SPEC; validated FaultPlan spec
  /// --engine cycle|event; which simulator kernel drives every run.
  sim::EngineKind engine = sim::EngineKind::kCycle;
  /// --trace FILE; flight-recorder trace (".json" = Chrome trace-event
  /// format for Perfetto, anything else the compact binary).  Empty = no
  /// recorder at all (the zero-overhead contract).
  std::string trace_path;
  /// --metrics; derive the metric registry from the recorded trace and
  /// print/report it (implies an internal recorder even without --trace).
  bool metrics = false;
  bool help = false;
};

/// Canonical spelling for reports ("cycle" / "event").
std::string engine_name(sim::EngineKind engine);

/// Report label when a driver downgraded the requested engine up front
/// (e.g. `--engine event` with a fault plan or streaming workload, which
/// the hybrid kernel would immediately materialize out of anyway):
/// "cycle(fallback)" when a fallback happened, else the plain name.
std::string engine_label(sim::EngineKind requested, bool fell_back);

/// For workloads only the cycle engine runs (streams, fault plans): turns
/// a requested `--engine event` into the cycle engine up front and prints
/// `notice` on `err` (stdout may be consumed as a report).  Returns
/// whether it downgraded; reports then say engine_label(requested, true).
bool downgrade_to_cycle(sim::EngineKind& engine, std::ostream& err,
                        const std::string& notice);

/// Parses bench arguments (excluding argv[0]); throws
/// std::invalid_argument on unknown options or bad values.
Options parse_options(std::span<const char* const> args);

/// Usage text for a bench binary.
std::string bench_usage(const std::string& bench_name);

/// Machine-readable result sink: named tables plus run metadata,
/// serialized as JSON (no external dependencies).
class JsonReport {
 public:
  JsonReport(std::string name, int jobs) : name_(std::move(name)), jobs_(jobs) {}

  void add_table(const std::string& title, const std::string& csv_path,
                 const analysis::Table& table);
  void set_wall_seconds(double s) { wall_seconds_ = s; }
  /// Extra top-level string fields (e.g. "engine": "event"); insertion
  /// order is preserved in the output.
  void set_meta(const std::string& key, const std::string& value);

  [[nodiscard]] std::string to_json() const;
  /// Writes to `path`; throws std::runtime_error if the file cannot be
  /// opened.
  void write(const std::string& path) const;

 private:
  struct Entry {
    std::string title;
    std::string csv_path;
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };
  std::string name_;
  int jobs_ = 1;
  double wall_seconds_ = 0;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<Entry> entries_;
};

/// Writes `recorder`'s events to `path` (".json" = Chrome trace-event
/// JSON, else the binary pcmtrace format) and prints the `trace:` line;
/// does nothing when `path` is empty.  A write error goes to `err` as
/// "<tool>: <what>" and does not fail the run.
void export_trace(const obs::FlightRecorder& recorder, const std::string& path,
                  std::ostream& os, std::ostream& err, const std::string& tool);

/// The tail every pcmcast/pcmlint and bench report ends with.
/// write_report_tail emits, in this order, each part whose path is set:
/// `csv_rows` as CSV (`csv:` line), the metrics derived from `recorder`
/// (printed and appended to the JSON report), export_trace, and the JSON
/// report (`json:` line).  An unopenable CSV or JSON file throws.
struct ReportTail {
  std::string tool;  ///< prefix of error messages
  std::string csv;
  const analysis::Table* csv_rows = nullptr;
  const obs::FlightRecorder* recorder = nullptr;
  bool metrics = false;
  std::string trace;
  std::string json;
  /// Set for benches: their metrics print as a titled bench table and
  /// their JSON records the wall seconds since this start.
  std::optional<std::chrono::steady_clock::time_point> bench_start;
};
void write_report_tail(const ReportTail& tail, JsonReport& report, std::ostream& os,
                       std::ostream& err);

/// Per-bench driver: owns the pool and the JSON report.
class Harness {
 public:
  Harness(std::string bench_name, const Options& opt);
  /// Convenience for bench main()s: parses argv, prints usage and exits 0
  /// on --help, prints the error and exits 2 on bad arguments.
  Harness(std::string bench_name, int argc, char** argv);
  /// Ends the report on destruction: write_report_tail (metrics, trace,
  /// JSON).
  ~Harness();

  [[nodiscard]] ThreadPool& pool() { return pool_; }
  [[nodiscard]] int jobs() const { return pool_.jobs(); }
  [[nodiscard]] const Options& options() const { return opt_; }

  /// Simulator configuration honouring --engine; benches with custom run
  /// loops should construct their Simulators from this.
  [[nodiscard]] sim::SimConfig sim_config() const {
    sim::SimConfig cfg;
    cfg.engine = opt_.engine;
    return cfg;
  }

  /// Records an extra top-level field in the JSON report.
  void set_meta(const std::string& key, const std::string& value) {
    json_.set_meta(key, value);
  }

  /// For benches whose workload only the cycle engine can run (streaming,
  /// fault plans): downgrade a requested `--engine event` up front.  The
  /// JSON meta reports "cycle(fallback)" and a notice goes to stderr, so
  /// the envelope never claims an engine that did not run.
  void downgrade_engine(const std::string& reason);

  /// The flight recorder behind --trace/--metrics; nullptr when both are
  /// off (tracing off = no recorder exists = zero overhead).  Benches with
  /// custom run loops install it as the Simulator observer themselves (or
  /// pass per-run recorders through merge_run()).
  [[nodiscard]] obs::FlightRecorder* recorder() { return recorder_.get(); }

  /// Appends a finished per-run recorder into the master trace; custom
  /// bench loops call this in placement order after their fan-out.
  void merge_run(const obs::FlightRecorder& run) {
    if (recorder_) recorder_->append(run);
  }

  /// Runs `alg` over the given placements (one Simulator per placement,
  /// fanned out over the pool) and summarizes in placement order.
  Point run_point(const sim::Topology& topo, const MeshShape* shape,
                  const rt::MulticastRuntime& rtm, McastAlgorithm alg,
                  std::span<const analysis::Placement> placements, Bytes payload);

  /// Deterministic fan-out for custom bench loops: body(i) must write its
  /// results into slot i of caller-owned storage.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
    pool_.parallel_for(n, body);
  }

  /// RNG substream for replication `i` (see substream_seed).
  [[nodiscard]] std::uint64_t run_seed(std::uint64_t i) const {
    return substream_seed(kSeed, i);
  }

  /// Prints the experiment preamble: machine parameters at a reference
  /// message size plus the harness configuration, so every output records
  /// its setup.
  void preamble(const std::string& what, const rt::RuntimeConfig& cfg,
                Bytes ref_bytes, int reps) const;

  /// Prints the table (mirroring CSV when `csv_path` is non-empty) and
  /// records it in the JSON report.
  void report(const analysis::Table& t, const std::string& title,
              const std::string& csv_path = "");

 private:
  std::string bench_name_;
  Options opt_;
  ThreadPool pool_;
  JsonReport json_;
  std::chrono::steady_clock::time_point start_;
  std::unique_ptr<obs::FlightRecorder> recorder_;  ///< only under --trace/--metrics
  std::size_t run_counter_ = 0;  ///< kRunBegin index across run_point calls
};

/// The paper reports message sizes as "0k, 8k, ..., 64k".
std::string size_label(Bytes b);

}  // namespace pcm::harness
