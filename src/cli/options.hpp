// Command-line surface of the `pcmcast` and `pcmlint` tools: run any
// multicast experiment the library supports without writing C++.
//
//   pcmcast --topology mesh:16 --algorithm opt-mesh --nodes 32
//           --bytes 4096 --reps 16 --seed 1997 [--csv out.csv] [--probe]
//
// Every flag is a row of cli_flags(): its value kind and range, the
// modes it applies in (one-shot, --stream, --lint, --lint --forest,
// --lint --stream) and its --help text.  harness::parse_flags parses the
// table; parse_args adds the checks that relate flags to each other.
// Kept as a library so the parsing and the experiment driver are unit
// testable; the binaries in tools/ are thin main()s.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "core/algorithms.hpp"
#include "harness/flags.hpp"
#include "harness/spec.hpp"
#include "sim/simulator.hpp"

namespace pcm::cli {

struct CliOptions {
  std::string topology = "mesh:16";     ///< kind:param (see make_topology)
  std::string algorithm = "opt-mesh";   ///< see algorithm_from_name
  std::string collective = "multicast"; ///< multicast | reduce | barrier
  int nodes = 32;                       ///< multicast size k (incl. source)
  Bytes bytes = 4096;                   ///< payload size
  int reps = 16;                        ///< random placements per run
  std::uint64_t seed = 1997;
  std::string csv;                      ///< optional CSV output path
  std::string json;                     ///< optional JSON report path
  std::string trace;                    ///< optional flight-recorder trace path
  bool metrics = false;                 ///< derive + report trace metrics
  std::string faults;                   ///< fault plan spec (see FaultPlan::parse)
  int max_retries = 3;                  ///< fault-tolerant runtime retry budget
  int jobs = 0;                         ///< worker threads; 0 = hardware
  /// --engine cycle|event: simulator kernel (results are bit-identical).
  sim::EngineKind engine = sim::EngineKind::kCycle;
  int source = -1;                      ///< explicit source node (with --dests)
  std::string dests;                    ///< explicit comma-separated destinations
  /// --forest "START:ALG:SRC:D1,D2,..;..": static forest certification of
  /// N concurrent trees (lint only; see run_lint_cli).
  std::string forest;
  /// --offset-search: ignore the forest spec's START values and compute
  /// each member's earliest contention-free start offset instead,
  /// admitting trees in spec order (lint::earliest_clean_offset).
  bool offset_search = false;
  int stream = 0;                       ///< --stream N: slots to stream (0 = one-shot)
  int window = 0;                       ///< --window W: slot ring size (0 = default 8)
  Time heartbeat = 0;                   ///< --heartbeat P: membership lease cadence
  bool failover = false;                ///< --failover: elect a successor source
  bool rejoin = false;                  ///< --rejoin: re-admit healed receivers
  bool probe = false;                   ///< measure (t_hold, t_end) first
  bool compare = false;                 ///< run every applicable algorithm
  bool gantt = false;                   ///< print a message Gantt for rep 0
  bool audit = false;                   ///< run under the InvariantAuditor
  bool lint = false;                    ///< static analysis only (no simulation)
  bool allow_partial = false;           ///< exit 0 despite lost destinations
  bool shuffle_chain = false;           ///< self-test: split an unsorted chain
  bool help = false;
};

/// The flag table of pcmcast, or of pcmlint when `tool` is "pcmlint"
/// (same flags; its errors and --help name pcmlint).
harness::FlagTable<CliOptions> cli_flags(std::string_view tool = "pcmcast");

/// Parses argv-style arguments (excluding argv[0]).  Throws
/// std::invalid_argument "<tool>: <what>" on bad input.
CliOptions parse_args(std::span<const std::string_view> args,
                      std::string_view tool = "pcmcast");

// The spec parsers live in harness/spec.hpp, shared with the chaos
// harness; re-exported here as part of the CLI surface.
using harness::algorithm_from_name;
using harness::make_topology;
using harness::mesh_shape_of;

/// Runs the experiment described by `opt` and writes the report to `os`;
/// diagnostics that must not pollute machine-readable stdout (a trace
/// that cannot be written) go to `err`.  Returns the process
/// exit code: 0 on success, 1 when a fault run lost destinations and
/// --allow-partial was not given, 3 when --audit caught an invariant
/// violation.  (2 is the caller's catch-all for errors.)
///
/// Dispatches to one of three drivers: `--lint` (run_lint_cli), `--stream
/// N` (one placement through the windowed stream runtime), or the
/// one-shot sweep over the sampled or explicit placements, fanned out
/// over --jobs.  Every multicast placement, one-shot or stream, runs
/// through verify::run_placement, the function pcmchaos runs its
/// scenarios with, so a chaos reproducer replays the same code.  Reduce
/// and barrier runs build the same tree (verify::placement_tree).  Every
/// driver ends its report with harness::write_report_tail.
int run_cli(const CliOptions& opt, std::ostream& os, std::ostream& err);

/// Convenience overload: diagnostics go to std::cerr.
int run_cli(const CliOptions& opt, std::ostream& os);

/// Static-analysis driver behind `pcmcast --lint` and the `pcmlint`
/// binary: derives every (algorithm, placement) schedule symbolically
/// (lint::lint_tree) without simulating a flit.  Exit codes mirror the
/// dynamic contract: 0 every schedule certified clean, 1 diagnostics on
/// an algorithm with no theorem guarantee, 3 when an algorithm covered by
/// Theorems 1–2 (guarantees_contention_free) is flagged — the same
/// schedules on which --audit exits 3.  (2 stays the caller's catch-all.)
///
/// The per-tree sweep builds its trees with verify::placement_tree, the
/// builder the dynamic drivers use (--shuffle-chain included).  Two v2
/// modes dispatch from here before the per-tree sweep:
///  - `--forest SPEC` certifies N concurrent trees on a shared channel
///    timeline (lint::lint_forest); `--offset-search` additionally
///    computes each member's earliest contention-free start.  Forest
///    diagnostics always exit 1: Theorems 1-2 speak about trees in
///    isolation, so cross-tree contention is never a theorem violation.
///  - `--stream N [--window W]` analyzes the windowed streaming schedule
///    (lint::lint_stream): exact steady-state pipeline interval, busy-node
///    bound, saturation.  Exits 3 only when a guaranteed algorithm is
///    flagged at window 1 (the regime audit_stream demands be clean).
///
/// Run-time errors (an unknown topology, --nodes past its size, a bad
/// --forest member) are prefixed with `tool`, as parse errors are.
int run_lint_cli(const CliOptions& opt, std::ostream& os,
                 std::string_view tool = "pcmcast");

}  // namespace pcm::cli
