// Shared experiment harness for the per-figure bench binaries and the
// pcmcast CLI.
//
// Every bench follows the paper's method (Sec. 5): a data point is the
// mean multicast latency over `reps` independent random placements (the
// paper uses 16) with identical parameters; the same seeded placements
// are reused across algorithms so series are paired.
//
// The harness adds the scale-out layer: placements x algorithm runs fan
// out across a thread pool (RunFanOut; `--jobs N`, default one per
// hardware thread; `--jobs 1` reproduces the historical serial behaviour
// exactly), every run gets its own Simulator on the `--engine` asked for
// and, where randomness is needed, its own RNG substream — so results are
// bit-identical at any job count.  With
// `--json FILE` each bench also emits a machine-readable report (tables
// + wall-clock) for tracking the perf trajectory across commits.  The
// bench flags are one harness::FlagTable (bench_flags), parsed and
// printed by the same code as every other tool's (harness/flags.hpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "core/algorithms.hpp"
#include "harness/flags.hpp"
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

/// Command-line surface shared by every bench binary (see bench_flags).
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

/// The flag table every bench binary parses; `bench_name` prefixes its
/// errors and heads its --help text.
FlagTable<Options> bench_flags(const std::string& bench_name);

/// Parses bench arguments (excluding argv[0]) against bench_flags(tool),
/// then validates the --faults spec; throws std::invalid_argument
/// "<tool>: <what>" on unknown options or bad values.
Options parse_options(std::span<const char* const> args,
                      std::string_view tool = "bench");

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

/// One run of a RunFanOut: the topology its Simulator is built on and
/// the algorithm its kRunBegin marker names.
struct RunSpec {
  const sim::Topology* topo = nullptr;
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
};

/// The one way the benches and pcmcast's one-shot sweep run simulated
/// placements: a deterministic fan-out over the thread pool that builds
/// exactly one Simulator per run, on the engine asked for.  body(i, ...)
/// must write its results into slot i of caller-owned storage.
class RunFanOut {
 public:
  /// `traced` keeps a merged trace (--trace/--metrics); `audit` makes the
  /// per-run rings unbounded, because an audit replays them.
  RunFanOut(int jobs, sim::EngineKind engine, bool traced, bool audit = false);

  /// Runs body(i, sim, trace) for i in [0, n): `sim` is run i's fresh
  /// Simulator over spec_of(i).topo, `trace` its ring, already `sim`'s
  /// observer (nullptr when tracing is off).  Each ring opens with a
  /// kRunBegin marker (a = run index across every call, b =
  /// spec_of(i).alg); the rings merge into trace() in index order, so it
  /// is bit-identical at any --jobs.  A body's exception is rethrown
  /// after that merge.
  void run(std::size_t n, const std::function<RunSpec(std::size_t)>& spec_of,
           const std::function<void(std::size_t, sim::Simulator&, obs::FlightRecorder*)>&
               body);

  [[nodiscard]] int jobs() const { return pool_.jobs(); }
  /// The merged trace of every run so far; nullptr when tracing is off.
  [[nodiscard]] obs::FlightRecorder* trace() const { return trace_.get(); }

 private:
  ThreadPool pool_;
  sim::EngineKind engine_;
  std::size_t ring_capacity_;
  std::unique_ptr<obs::FlightRecorder> trace_;
  std::size_t runs_ = 0;
};

/// One per bench binary: owns the run fan-out and the JSON report.
class Harness {
 public:
  Harness(std::string bench_name, const Options& opt);
  /// Convenience for bench main()s: parses argv, prints usage and exits 0
  /// on --help, prints the error and exits 2 on bad arguments.
  Harness(std::string bench_name, int argc, char** argv);
  /// Ends the report on destruction: write_report_tail (metrics, trace,
  /// JSON).
  ~Harness();

  /// Every simulated run of a bench goes through this fan-out, so each
  /// honours --engine, --trace and --metrics.
  [[nodiscard]] RunFanOut& fan_out() { return fan_out_; }
  [[nodiscard]] const Options& options() const { return opt_; }

  /// Records an extra top-level field in the JSON report.
  void set_meta(const std::string& key, const std::string& value) {
    json_.set_meta(key, value);
  }

  /// Runs `alg` over the given placements (one Simulator per placement,
  /// fanned out over the pool) and summarizes in placement order.
  Point run_point(const sim::Topology& topo, const MeshShape* shape,
                  const rt::MulticastRuntime& rtm, McastAlgorithm alg,
                  std::span<const analysis::Placement> placements, Bytes payload);

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
  RunFanOut fan_out_;
  JsonReport json_;
  std::chrono::steady_clock::time_point start_;
};

/// The paper reports message sizes as "0k, 8k, ..., 64k".
std::string size_label(Bytes b);

}  // namespace pcm::harness
