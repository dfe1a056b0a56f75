#include "cli/options.hpp"

#include <algorithm>
#include <iostream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/sampling.hpp"
#include "analysis/stats.hpp"
#include "analysis/table.hpp"
#include "analysis/timeline.hpp"
#include "harness/harness.hpp"
#include "lint/lint.hpp"
#include "obs/recorder.hpp"
#include "runtime/collectives.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/param_probe.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "verify/invariant_auditor.hpp"
#include "verify/run.hpp"

namespace pcm::cli {
namespace {

constexpr long long kMaxInt = std::numeric_limits<int>::max();
constexpr long long kMaxInt64 = std::numeric_limits<long long>::max();

using harness::parse_uint_flag;

/// The five modes of pcmcast/pcmlint, one bit each in a flag's mask.
enum Mode { kOneShot, kStream, kLint, kLintForest, kLintStream };
constexpr harness::ModeMask bit(Mode m) { return 1U << m; }
constexpr harness::ModeMask kDynamic = bit(kOneShot) | bit(kStream);
constexpr harness::ModeMask kStreams = bit(kStream) | bit(kLintStream);
constexpr harness::ModeMask kNoForest = harness::kAnyMode & ~bit(kLintForest);

int mode_of(const CliOptions& o) {
  if (!o.lint) return o.stream > 0 ? kStream : kOneShot;
  if (!o.forest.empty()) return kLintForest;
  return o.stream > 0 ? kLintStream : kLint;
}

}  // namespace

harness::FlagTable<CliOptions> cli_flags(std::string_view tool) {
  return {
    .tool = std::string(tool),
    .intro = tool == "pcmlint"
                 ? "pcmlint — static contention and deadlock analysis of multicast\n"
                   "schedules (pcmcast --lint; no flit is simulated)\n\n"
                   "usage: pcmlint [options]\n"
                 : "pcmcast — parameterized-model multicast experiments on a flit-level\n"
                   "wormhole simulator (IPPS'97 reproduction)\n\n"
                   "usage: pcmcast [options]\n",
    .column = 19,
    .mode_of = mode_of,
    .mode_names = {"one-shot runs", "--stream", "--lint", "--lint --forest",
                   "--lint --stream"},
    .flags = {
      {.name = "--topology", .metavar = "SPEC", .field = &CliOptions::topology,
       .help = "mesh:S | hypercube:Q | bmin:N[:source|adaptive|dest|random]\n"
               "| butterfly:N            (default mesh:16)"},
      {.name = "--algorithm", .metavar = "NAME", .field = &CliOptions::algorithm,
       .help = "opt-mesh | u-mesh | opt-min | u-min | opt-tree |\n"
               "binomial | sequential    (default opt-mesh)"},
      {.name = "--nodes", .metavar = "K", .field = &CliOptions::nodes, .lo = 2,
       .hi = kMaxInt, .help = "multicast size incl. source (default 32)"},
      {.name = "--bytes", .metavar = "B", .field = &CliOptions::bytes, .hi = kMaxInt64,
       .help = "payload bytes (default 4096)"},
      {.name = "--reps", .metavar = "R", .field = &CliOptions::reps, .lo = 1,
       .hi = kMaxInt, .help = "random placements (default 16)"},
      {.name = "--seed", .metavar = "S", .field = &CliOptions::seed,
       .lo = std::numeric_limits<long long>::min(), .hi = kMaxInt64,
       .help = "RNG seed (default 1997)"},
      {.name = "--collective", .metavar = "KIND", .field = &CliOptions::collective,
       .help = "multicast | reduce | barrier (default multicast)"},
      {.name = "--compare", .field = &CliOptions::compare,
       .modes = bit(kOneShot) | bit(kLint) | bit(kLintStream),
       .help = "run every algorithm applicable to the topology"},
      {.name = "--gantt", .field = &CliOptions::gantt,
       .modes = bit(kOneShot) | bit(kLint) | bit(kLintForest),
       .help = "print a message timeline for the first rep"},
      {.name = "--faults", .metavar = "SPEC", .field = &CliOptions::faults,
       .modes = kDynamic,
       .help = "inject faults and run the fault-tolerant runtime;\n"
               "clauses: link:R,P@C | linkup:R,P@C | node:N@C |\n"
               "drop:RATE | corrupt:RATE | seed:S (';'-separated),\n"
               "e.g. \"node:42@1500;drop:0.001\" (multicast only)"},
      {.name = "--max-retries", .metavar = "N", .field = &CliOptions::max_retries,
       .hi = 40,
       .help = "retransmissions before a receiver is declared dead\n"
               "(default 3; only meaningful with --faults)"},
      {.name = "--allow-partial", .field = &CliOptions::allow_partial,
       .help = "exit 0 even when a fault run loses destinations\n"
               "(default: delivered < 100% exits 1)"},
      {.name = "--audit", .field = &CliOptions::audit, .modes = kDynamic,
       .help = "run under the invariant auditor (conservation,\n"
               "channel exclusivity, Thm 1-2 contention freedom,\n"
               "ack epochs); a violation prints and exits 3"},
      {.name = "--lint", .field = &CliOptions::lint,
       .help = "static analysis only: derive every schedule\n"
               "symbolically and interval-check channel holds\n"
               "(no flits simulated); diagnostics exit 1, or 3\n"
               "when a Thm 1-2 guaranteed algorithm is flagged"},
      {.name = "--forest", .metavar = "SPEC", .field = &CliOptions::forest,
       .modes = bit(kLintForest),
       .help = "(with --lint) certify N concurrent trees on a\n"
               "shared channel timeline; SPEC is ';'-separated\n"
               "members START:ALG:SRC:D1,D2,... — cross-tree\n"
               "contention or deadlock names both sends, the\n"
               "channel, and the overlap window (exit 1)"},
      {.name = "--offset-search", .field = &CliOptions::offset_search,
       .modes = bit(kLintForest),
       .help = "(with --forest) ignore the members' START\n"
               "values and compute each tree's earliest\n"
               "contention-free start, admitting in spec order"},
      {.name = "--source", .metavar = "N", .field = &CliOptions::source, .hi = kMaxInt,
       .modes = kNoForest, .help = "explicit source node (requires --dests)"},
      {.name = "--dests", .metavar = "A,B,...", .field = &CliOptions::dests,
       .modes = kNoForest,
       .help = "explicit destination list; replaces the sampled\n"
               "placements (one rep) — chaos reproducers use this"},
      {.name = "--stream", .metavar = "N", .field = &CliOptions::stream, .lo = 1,
       .hi = 1 << 20, .modes = kStreams,
       .help = "stream N back-to-back slots through one tree\n"
               "(windowed pipelining; needs --source/--dests;\n"
               "--faults switches on the reliable protocol with\n"
               "epoch-based recovery); with --lint: derive the\n"
               "schedule symbolically and report the exact\n"
               "steady-state pipeline interval instead"},
      {.name = "--window", .metavar = "W", .field = &CliOptions::window, .lo = 1,
       .hi = 1 << 20, .modes = kStreams,
       .help = "slot-ring capacity for --stream (default 8;\n"
               "1 = stop-and-wait, matches one-shot runs)"},
      {.name = "--heartbeat", .metavar = "P", .field = &CliOptions::heartbeat, .lo = 1,
       .hi = 1 << 30, .modes = bit(kStream),
       .help = "membership lease cadence in cycles for --stream:\n"
               "a deterministic failure detector suspects, then\n"
               "confirms, silent members as crashed or unreachable"},
      {.name = "--failover", .field = &CliOptions::failover, .modes = bit(kStream),
       .help = "on a confirmed source death elect a successor\n"
               "(highest committed prefix, ties by node id) and\n"
               "resume the stream (requires --heartbeat)"},
      {.name = "--rejoin", .field = &CliOptions::rejoin, .modes = bit(kStream),
       .help = "re-admit healed (previously partitioned) receivers\n"
               "at the current epoch with delta catch-up of the\n"
               "slots they missed (requires --heartbeat)"},
      {.name = "--shuffle-chain", .field = &CliOptions::shuffle_chain,
       .modes = bit(kOneShot) | bit(kLint),
       .help = "self-test: split the --seed-shuffled caller-order\n"
               "chain instead of the sorted one, deliberately\n"
               "voiding the contention-freedom precondition"},
      {.name = "--csv", .metavar = "PATH", .field = &CliOptions::csv,
       .help = "also write per-rep results as CSV"},
      {.name = "--json", .metavar = "PATH", .field = &CliOptions::json,
       .help = "also write a machine-readable JSON report"},
      {.name = "--trace", .metavar = "PATH", .field = &CliOptions::trace,
       .modes = kDynamic,
       .help = "record a flight-recorder trace of every run\n"
               "(merged in placement order: bit-identical at\n"
               "any --jobs and across engines); '.json' writes\n"
               "Chrome trace-event JSON (Perfetto), anything\n"
               "else the compact binary pcmtrace reads"},
      {.name = "--metrics", .field = &CliOptions::metrics, .modes = kDynamic,
       .help = "derive deterministic metrics (channel occupancy,\n"
               "retry depth, failover latency, slots/kcycle)\n"
               "from the trace and report them (no --trace needed)"},
      {.name = "--engine", .metavar = "E", .field = &CliOptions::engine,
       .help = "simulator kernel: cycle (reference) or event\n"
               "(event-driven fast-forward; bit-identical\n"
               "results, much faster on large topologies)"},
      {.name = "--jobs", .alias = "-j", .metavar = "N", .field = &CliOptions::jobs,
       .hi = 4096,
       .help = "fan placements out over N threads\n"
               "(0 = one per hardware thread, 1 = serial; default 0;\n"
               "results are identical at any N)"},
      {.name = "--probe", .field = &CliOptions::probe,
       .help = "measure (t_hold, t_end) on the network first"},
    }};
}

CliOptions parse_args(std::span<const std::string_view> args, std::string_view tool) {
  CliOptions opt = harness::parse_flags(cli_flags(tool), args);
  if (opt.help) return opt;
  const auto fail = [&](const std::string& what) { return harness::usage_error(tool, what); };
  if (!algorithm_from_name(opt.algorithm))
    throw fail("unknown algorithm '" + opt.algorithm + "'");
  if (opt.collective != "multicast") {
    if (opt.collective != "reduce" && opt.collective != "barrier")
      throw fail("--collective must be multicast, reduce, or barrier");
    // Reduce and barrier run one-shot, fault-free and unaudited.
    const std::pair<bool, const char*> multicast_only[] = {
        {opt.lint, "--lint"},
        {opt.stream > 0, "--stream"},
        {!opt.faults.empty(), "--faults"},
        {opt.audit, "--audit"},
        {opt.shuffle_chain, "--shuffle-chain"}};
    for (const auto& [set, flag] : multicast_only)
      if (set) throw fail(std::string(flag) + " requires --collective multicast");
  }
  if (!opt.faults.empty()) {
    try {
      (void)sim::FaultPlan::parse(opt.faults);
    } catch (const std::exception& e) {
      throw fail("bad --faults spec: " + std::string(e.what()));
    }
  }
  if (opt.dests.empty() != (opt.source < 0))
    throw fail("--source and --dests must be given together");
  if ((opt.failover || opt.rejoin) && opt.heartbeat == 0)
    throw fail("--failover/--rejoin need a failure detector (add --heartbeat P)");
  // The static analyzer (lint_stream) samples placements; the dynamic
  // stream driver needs one explicit placement.
  if (opt.stream > 0 && !opt.lint && opt.dests.empty())
    throw fail("--stream needs an explicit placement (--source and --dests)");
  return opt;
}

namespace {

/// Explicit --source/--dests placement (one rep) or --seed-sampled ones;
/// shared by the dynamic (run_cli) and static (run_lint_cli) drivers.
std::vector<analysis::Placement> make_placements(const CliOptions& opt, const sim::Topology& topo,
                                                 std::string_view tool = "pcmcast") {
  if (opt.dests.empty() && opt.nodes > topo.num_nodes())
    throw harness::usage_error(tool, "--nodes exceeds topology size");
  std::vector<analysis::Placement> placements;
  if (!opt.dests.empty()) {
    // Explicit placement (chaos reproducers): one rep, exactly as given.
    analysis::Placement p;
    p.source = opt.source;
    std::istringstream is(opt.dests);
    std::string tok;
    while (std::getline(is, tok, ','))
      p.dests.push_back(static_cast<NodeId>(parse_uint_flag("--dests", tok, 0, kMaxInt, tool)));
    if (p.dests.empty()) throw harness::usage_error(tool, "empty --dests list");
    if (p.source < 0 || p.source >= topo.num_nodes())
      throw harness::usage_error(tool, "--source outside the topology");
    for (const NodeId d : p.dests)
      if (d >= topo.num_nodes())
        throw harness::usage_error(tool, "--dests node outside the topology");
    placements.push_back(std::move(p));
    return placements;
  }
  return analysis::sample_placements(opt.seed, topo.num_nodes(), opt.nodes,
                                     opt.reps);
}

/// --compare expands to every algorithm applicable to the topology.
std::vector<McastAlgorithm> select_algorithms(const CliOptions& opt, const MeshShape* shape,
                                              std::string_view tool = "pcmcast") {
  if (opt.compare) {
    if (shape != nullptr)
      return {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh,
              McastAlgorithm::kOptTree, McastAlgorithm::kBinomial,
              McastAlgorithm::kSequential};
    return {McastAlgorithm::kOptMin, McastAlgorithm::kUMin,
            McastAlgorithm::kOptTree, McastAlgorithm::kBinomial,
            McastAlgorithm::kSequential};
  }
  const auto alg = algorithm_from_name(opt.algorithm);
  if (needs_mesh_shape(*alg) && shape == nullptr)
    throw harness::usage_error(tool, opt.algorithm + " requires a mesh/hypercube topology");
  return {*alg};
}

/// The verify::PlacementRun `opt` asks for at one placement.
verify::PlacementRun placement_run(const CliOptions& opt, McastAlgorithm alg,
                                   const MeshShape* shape, const analysis::Placement& p,
                                   const sim::FaultPlan* plan) {
  verify::PlacementRun run;
  run.alg = alg;
  run.shape = shape;
  run.source = p.source;
  run.dests = p.dests;
  run.bytes = opt.bytes;
  run.max_retries = opt.max_retries;
  run.audit = opt.audit;
  run.shuffle_chain = opt.shuffle_chain;
  run.shuffle_seed = opt.seed;
  run.plan = plan;
  run.slots = opt.stream;
  run.window = opt.window > 0 ? opt.window : 8;
  run.heartbeat = opt.heartbeat;
  run.failover = opt.failover;
  run.rejoin = opt.rejoin;
  return run;
}

/// The tail of every CLI report (csv, metrics, trace, json lines).
harness::ReportTail cli_tail(const CliOptions& opt, const analysis::Table& rows,
                             const obs::FlightRecorder* recorder,
                             std::string_view tool = "pcmcast") {
  harness::ReportTail tail;
  tail.tool = tool;
  tail.csv = opt.csv;
  tail.csv_rows = &rows;
  tail.recorder = recorder;
  tail.metrics = opt.metrics;
  tail.trace = opt.trace;
  tail.json = opt.json;
  return tail;
}

/// An --audit violation exits 3.  Under --trace it becomes the trace's
/// last annotation, so `pcmtrace dump` shows the offending event in
/// context.
int report_violation(const CliOptions& opt, const verify::InvariantViolation& v,
                     obs::FlightRecorder* trace, std::ostream& os, std::ostream& err) {
  if (trace != nullptr) {
    trace->record(obs::EventKind::kViolation, v.cycle(),
                  static_cast<std::int32_t>(v.invariant()), v.msg(), v.router(),
                  v.port());
    harness::export_trace(*trace, opt.trace, os, err, "pcmcast");
  }
  os << "pcmcast: AUDIT VIOLATION: " << v.what() << "\n";
  return 3;
}

struct RunOutcome {
  Time latency = 0;
  Time model = 0;
  long long conflicts = 0;
  double delivered = 1.0;  ///< fraction of participants holding the payload
  int retries = 0;
  int repairs = 0;
  int dead = 0;
  // cycle-engine internals, for the JSON envelope only
  long long leaps = 0;
  long long leaped_cycles = 0;
};

RunOutcome run_one(const rt::CollectiveRuntime& coll, const CliOptions& opt,
                   const verify::PlacementRun& run, sim::Simulator& sim) {
  RunOutcome out;
  if (opt.collective == "multicast") {
    verify::PlacementResult res;
    verify::run_placement(coll.multicast(), sim, run, res);
    const rt::McastResult& r = res.shot;
    out = RunOutcome{r.latency,           r.model_latency,
                     r.channel_conflicts, r.delivered_fraction,
                     r.retries,           r.repairs,
                     static_cast<int>(r.dead_nodes.size())};
  } else {
    // Reduce and barrier run unaudited and fault-free (parse_args); the
    // trace, if any, is already the simulator's observer.
    const MulticastTree tree = verify::placement_tree(run, coll.multicast());
    if (opt.collective == "reduce") {
      const rt::ReduceResult r = coll.run_reduce(sim, tree, opt.bytes, sim.now());
      out = RunOutcome{r.latency, r.model_latency, r.channel_conflicts};
    } else {
      const rt::BarrierResult r = coll.run_barrier(sim, tree, opt.bytes);
      out = RunOutcome{r.latency, r.reduce.model_latency + r.bcast.model_latency,
                       r.reduce.channel_conflicts + r.bcast.channel_conflicts};
    }
  }
  out.leaps = sim.leaps();
  out.leaped_cycles = sim.leaped_cycles();
  return out;
}

/// `pcmcast --stream N`: one explicit placement pushed through the
/// windowed StreamRuntime.  Faults switch on reliable mode; --audit adds
/// the channel-level auditor plus the replay of the stream's recorded
/// protocol events (InvariantAuditor::audit_stream).
int run_stream_cli(const CliOptions& opt, std::ostream& os, std::ostream& err) {
  const auto topo = make_topology(opt.topology);
  const MeshShape* shape = mesh_shape_of(*topo);
  const std::vector<analysis::Placement> placements = make_placements(opt, *topo);
  const analysis::Placement& p = placements.front();
  const McastAlgorithm alg = select_algorithms(opt, shape).front();

  std::optional<sim::FaultPlan> plan;
  if (!opt.faults.empty()) plan = sim::FaultPlan::parse(opt.faults);

  rt::RuntimeConfig cfg;
  rt::CollectiveRuntime coll(cfg);
  verify::PlacementRun run =
      placement_run(opt, alg, shape, p, plan ? &*plan : nullptr);

  os << "pcmcast: stream " << opt.algorithm << " on " << opt.topology << ", k="
     << p.dests.size() + 1 << ", " << opt.bytes << " B x " << run.slots
     << " slots, window " << run.window;
  if (opt.heartbeat > 0)
    os << ", heartbeat " << opt.heartbeat << (opt.failover ? ", failover" : "")
       << (opt.rejoin ? ", rejoin" : "");
  os << (opt.audit ? ", audited" : "") << "\n";
  os << "machine: " << describe(cfg.machine, opt.bytes) << "\n";
  if (plan)
    os << "faults:  " << plan->describe() << " (max-retries " << opt.max_retries
       << ")\n";

  sim::Simulator sim(*topo, sim::SimConfig{.engine = opt.engine});
  // A stream is one run: a single recorder, no per-placement fan-out;
  // --audit replays it, so an audited recorder never wraps.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!opt.trace.empty() || opt.metrics) {
    recorder = std::make_unique<obs::FlightRecorder>(
        opt.audit ? obs::RecorderConfig{obs::kUnbounded} : obs::RecorderConfig{});
    recorder->record(obs::EventKind::kRunBegin, 0, 0,
                     static_cast<std::int32_t>(alg));
    run.trace = recorder.get();
  }

  verify::PlacementResult res;
  try {
    verify::run_placement(coll.multicast(), sim, run, res);
  } catch (const verify::InvariantViolation& v) {
    return report_violation(opt, v, recorder.get(), os, err);
  }
  const rt::StreamResult& r = res.stream;

  const double kcycles = static_cast<double>(r.makespan) / 1000.0;
  analysis::Table summary(
      {"slots", "window", "committed", "makespan", "slots/kcycle", "model/slot",
       "messages", "conflicts", "epochs", "failovers", "rejoins", "retries",
       "stale", "dead", "delivered"});
  summary.add_row(
      {std::to_string(r.slots), std::to_string(r.window_size),
       std::to_string(r.committed), std::to_string(r.makespan),
       analysis::Table::num(
           kcycles > 0 ? static_cast<double>(r.committed) / kcycles : 0.0, 2),
       std::to_string(r.model_slot_latency), std::to_string(r.messages),
       std::to_string(r.channel_conflicts), std::to_string(r.epoch),
       std::to_string(r.failovers), std::to_string(r.rejoins),
       std::to_string(r.retries), std::to_string(r.stale_acks),
       std::to_string(r.dead_nodes.size()),
       analysis::Table::num(r.delivered_fraction, 4)});
  os << "\n" << summary.to_string();

  // delivered_prefix is indexed by *chain position* (algorithms sort the
  // participant chain, so the source is not necessarily position 0);
  // rebuild the tree exactly as StreamRuntime::run does to label rows.
  const MulticastTree label_tree = verify::placement_tree(run, coll.multicast());
  analysis::Table rows({"pos", "node", "delivered_prefix", "status"});
  for (size_t i = 0; i < r.delivered_prefix.size(); ++i) {
    const NodeId node = label_tree.chain.nodes[i];
    const bool dead = std::find(r.dead_nodes.begin(), r.dead_nodes.end(), node) !=
                      r.dead_nodes.end();
    const bool unreach =
        std::find(r.unreachable_nodes.begin(), r.unreachable_nodes.end(),
                  node) != r.unreachable_nodes.end();
    rows.add_row({std::to_string(i), std::to_string(node),
                  std::to_string(r.delivered_prefix[i]),
                  static_cast<int>(i) == label_tree.chain.source_pos
                      ? (dead ? "source (dead)" : "source")
                      : (dead ? "dead" : (unreach ? "unreachable" : "ok"))});
  }
  if (!r.complete) {
    os << "\nper-receiver delivered prefix:\n" << rows.to_string();
  }

  harness::JsonReport report("pcmcast", 1);
  report.set_meta("engine", harness::engine_name(opt.engine));
  report.set_meta("leaps", std::to_string(sim.leaps()));
  report.set_meta("leaped_cycles", std::to_string(sim.leaped_cycles()));
  report.set_meta("seed", std::to_string(opt.seed));
  report.set_meta("makespan", std::to_string(r.makespan));
  report.set_meta("committed", std::to_string(r.committed));
  report.set_meta("failovers", std::to_string(r.failovers));
  report.set_meta("rejoins", std::to_string(r.rejoins));
  report.add_table("stream", opt.csv, summary);
  report.add_table("per-receiver", opt.csv, rows);
  harness::write_report_tail(cli_tail(opt, rows, recorder.get()), report, os, err);
  if (!r.complete && !opt.allow_partial) {
    os << "pcmcast: partial stream delivery ("
       << analysis::Table::num(r.delivered_fraction, 4)
       << " of (receiver, slot) pairs); failing — pass --allow-partial to "
          "accept\n";
    return 1;
  }
  return 0;
}

}  // namespace

int run_cli(const CliOptions& opt, std::ostream& os) {
  return run_cli(opt, os, std::cerr);
}

int run_cli(const CliOptions& opt, std::ostream& os, std::ostream& err) {
  if (opt.help) {
    os << harness::flag_usage(cli_flags());
    return 0;
  }
  if (opt.lint) return run_lint_cli(opt, os);
  if (opt.stream > 0) return run_stream_cli(opt, os, err);
  const auto topo = make_topology(opt.topology);
  const MeshShape* shape = mesh_shape_of(*topo);
  std::vector<analysis::Placement> placements = make_placements(opt, *topo);
  const int group_size = opt.dests.empty()
                             ? opt.nodes
                             : static_cast<int>(placements.front().dests.size()) + 1;
  const std::vector<McastAlgorithm> algs = select_algorithms(opt, shape);

  rt::RuntimeConfig cfg;
  rt::CollectiveRuntime coll(cfg);
  os << "pcmcast: " << (opt.compare ? std::string("compare") : opt.algorithm) << " ("
     << opt.collective << ") on " << opt.topology << ", k=" << group_size << ", "
     << opt.bytes << " B, " << placements.size() << " reps, seed " << opt.seed
     << (opt.shuffle_chain ? ", shuffled chain" : "")
     << (opt.audit ? ", audited" : "") << "\n";
  os << "machine: " << describe(cfg.machine, opt.bytes) << "\n";

  std::optional<sim::FaultPlan> plan;
  if (!opt.faults.empty()) {
    plan = sim::FaultPlan::parse(opt.faults);
    os << "faults:  " << plan->describe() << " (max-retries " << opt.max_retries
       << ")\n";
  }

  if (opt.probe) {
    const rt::ProbeResult probe =
        rt::probe_parameters(*topo, cfg.machine, opt.bytes, 32, opt.seed);
    os << "probe:   t_net=" << probe.t_net << " (" << probe.t_net_min << ".."
       << probe.t_net_max << "), t_hold=" << probe.t_hold << ", t_end=" << probe.t_end
       << "\n";
  }

  const bool ft = plan.has_value();
  std::vector<std::string> sum_cols = {"algorithm", "mean", "ci95",      "min",
                                       "max",       "model", "sim/model", "blocked"};
  std::vector<std::string> row_cols = {"algorithm", "rep", "latency", "model",
                                       "conflicts"};
  if (ft) {
    for (const char* c : {"delivered", "retries", "repairs", "dead"}) {
      sum_cols.emplace_back(c);
      row_cols.emplace_back(c);
    }
  }
  analysis::Table summary(sum_cols);
  analysis::Table rows(row_cols);
  double min_delivered = 1.0;
  long long leaps = 0, leaped_cycles = 0;

  // --trace/--metrics: one trace merged from per-run rings in placement
  // order (bit-identical at any --jobs); an audited run replays its ring,
  // which therefore never wraps.  Off = no recorder object exists
  // anywhere.
  harness::RunFanOut runs(opt.jobs, opt.engine, !opt.trace.empty() || opt.metrics,
                          opt.audit);
  try {
  for (McastAlgorithm alg : algs) {
    // Each placement gets its own Simulator and an indexed result slot;
    // the summary below reads the slots in placement order, so the report
    // is identical at any --jobs value (fault decisions are pure hashes
    // of per-simulator state, so this holds with --faults too).
    std::vector<RunOutcome> outcomes(placements.size());
    runs.run(
        placements.size(), [&](std::size_t) { return harness::RunSpec{topo.get(), alg}; },
        [&](std::size_t i, sim::Simulator& sim, obs::FlightRecorder* trace) {
          verify::PlacementRun run = placement_run(opt, alg, shape, placements[i],
                                                   ft ? &*plan : nullptr);
          run.trace = trace;
          outcomes[i] = run_one(coll, opt, run, sim);
        });
    std::vector<double> lat, model, delivered;
    long long conflicts = 0, retries = 0, repairs = 0, dead = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
      const RunOutcome& r = outcomes[i];
      min_delivered = std::min(min_delivered, r.delivered);
      lat.push_back(static_cast<double>(r.latency));
      model.push_back(static_cast<double>(r.model));
      delivered.push_back(r.delivered);
      conflicts += r.conflicts;
      retries += r.retries;
      repairs += r.repairs;
      dead += r.dead;
      leaps += r.leaps;
      leaped_cycles += r.leaped_cycles;
      std::vector<std::string> row = {std::string(algorithm_name(alg)),
                                      std::to_string(i), std::to_string(r.latency),
                                      std::to_string(r.model),
                                      std::to_string(r.conflicts)};
      if (ft) {
        row.push_back(analysis::Table::num(r.delivered, 4));
        row.push_back(std::to_string(r.retries));
        row.push_back(std::to_string(r.repairs));
        row.push_back(std::to_string(r.dead));
      }
      rows.add_row(std::move(row));
    }
    const analysis::Stats s = analysis::summarize(lat);
    const analysis::Stats ms = analysis::summarize(model);
    std::vector<std::string> srow = {
        std::string(algorithm_name(alg)), analysis::Table::num(s.mean, 1),
        analysis::Table::num(s.ci95, 1),  analysis::Table::num(s.min, 0),
        analysis::Table::num(s.max, 0),   analysis::Table::num(ms.mean, 1),
        analysis::Table::num(s.mean / ms.mean, 3), std::to_string(conflicts)};
    if (ft) {
      srow.push_back(analysis::Table::num(analysis::summarize(delivered).mean, 4));
      srow.push_back(std::to_string(retries));
      srow.push_back(std::to_string(repairs));
      srow.push_back(std::to_string(dead));
    }
    summary.add_row(std::move(srow));
  }
  } catch (const verify::InvariantViolation& v) {
    return report_violation(opt, v, runs.trace(), os, err);
  }
  os << "\n" << summary.to_string();

  if (opt.gantt) {
    sim::Simulator sim(*topo, sim::SimConfig{.engine = opt.engine});
    try {
      (void)run_one(coll, opt,
                    placement_run(opt, algs.front(), shape, placements.front(),
                                  ft ? &*plan : nullptr),
                    sim);
    } catch (const verify::InvariantViolation& v) {
      return report_violation(opt, v, runs.trace(), os, err);
    }
    os << "\nmessage timeline (" << algorithm_name(algs.front()) << ", rep 0):\n"
       << analysis::timeline_gantt(analysis::message_timeline(sim.messages()));
  }

  harness::JsonReport report("pcmcast", runs.jobs());
  report.set_meta("engine", harness::engine_name(opt.engine));
  report.set_meta("leaps", std::to_string(leaps));
  report.set_meta("leaped_cycles", std::to_string(leaped_cycles));
  report.set_meta("seed", std::to_string(opt.seed));
  report.add_table("summary", opt.csv, summary);
  report.add_table("per-rep", opt.csv, rows);
  harness::write_report_tail(cli_tail(opt, rows, runs.trace()), report, os, err);
  if (ft && min_delivered < 1.0 && !opt.allow_partial) {
    os << "pcmcast: partial delivery (min "
       << analysis::Table::num(min_delivered, 4)
       << " of participants); failing — pass --allow-partial to accept\n";
    return 1;
  }
  return 0;
}

namespace {

/// "START:ALG:SRC:D1,D2,...;START:ALG:SRC:..." -> forest members.  The
/// shared --bytes payload applies to every member; `names` receives the
/// algorithm name of each member for reporting.
std::vector<lint::ForestMember> parse_forest_spec(
    const std::string& spec, const sim::Topology& topo, const MeshShape* shape,
    TwoParam tp, Bytes payload, std::vector<std::string>* names, std::string_view tool) {
  std::vector<lint::ForestMember> members;
  std::istringstream groups(spec);
  std::string g;
  while (std::getline(groups, g, ';')) {
    if (g.empty()) continue;
    std::vector<std::string> f;
    std::istringstream fields(g);
    std::string tok;
    while (std::getline(fields, tok, ':')) f.push_back(tok);
    if (f.size() != 4)
      throw harness::usage_error(tool, "--forest member '" + g +
                                           "' must be START:ALG:SRC:D1,D2,...");
    lint::ForestMember m;
    m.start = parse_uint_flag("--forest start", f[0], 0, lint::kMaxStartOffset, tool);
    const auto alg = algorithm_from_name(f[1]);
    if (!alg)
      throw harness::usage_error(tool, "--forest unknown algorithm '" + f[1] + "'");
    if (needs_mesh_shape(*alg) && shape == nullptr)
      throw harness::usage_error(
          tool, "--forest algorithm " + f[1] + " requires a mesh/hypercube topology");
    const auto src =
        static_cast<NodeId>(parse_uint_flag("--forest source", f[2], 0, kMaxInt, tool));
    std::vector<NodeId> dests;
    std::istringstream ds(f[3]);
    while (std::getline(ds, tok, ','))
      dests.push_back(
          static_cast<NodeId>(parse_uint_flag("--forest dests", tok, 0, kMaxInt, tool)));
    if (dests.empty())
      throw harness::usage_error(tool, "--forest member '" + g + "' has no destinations");
    if (src >= topo.num_nodes())
      throw harness::usage_error(tool, "--forest source outside the topology");
    for (const NodeId d : dests)
      if (d >= topo.num_nodes())
        throw harness::usage_error(tool, "--forest destination outside the topology");
    m.tree = build_multicast(*alg, src, dests, tp, shape);
    m.payload = payload;
    members.push_back(std::move(m));
    names->push_back(f[1]);
  }
  if (members.empty())
    throw harness::usage_error(tool, "empty --forest spec");
  return members;
}

/// `pcmlint --forest SPEC [--offset-search]`: shared-timeline forest
/// certification (lint_forest), optionally computing each member's
/// earliest contention-free start first (earliest_clean_offset).
int run_lint_forest_cli(const CliOptions& opt, std::ostream& os, std::string_view tool) {
  const auto topo = make_topology(opt.topology, tool);
  const MeshShape* shape = mesh_shape_of(*topo);
  const rt::RuntimeConfig cfg;
  const sim::SimConfig sim_cfg;
  const rt::MulticastRuntime rtm(cfg);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(opt.bytes, 1));
  std::vector<std::string> names;
  std::vector<lint::ForestMember> members =
      parse_forest_spec(opt.forest, *topo, shape, tp, opt.bytes, &names, tool);

  if (opt.offset_search) {
    // Admit members in spec order: each starts at the earliest offset
    // whose rigidly shifted isolated timeline is hold-disjoint from
    // everything already admitted.  The lint_forest verdict below stays
    // authoritative: when members share CPUs, queuing on the shared
    // software timeline can still perturb the admitted schedules.
    lint::ChannelReservations reserved;
    for (lint::ForestMember& m : members) {
      m.start = lint::earliest_clean_offset(m.tree, *topo, cfg, sim_cfg,
                                            m.payload, reserved);
      reserved.add(lint::lint_schedule(m.tree, *topo, cfg, sim_cfg, m.payload,
                                       m.start));
    }
  }

  const lint::ForestOptions fopts;
  const lint::ForestReport rep =
      lint::lint_forest(members, *topo, cfg, sim_cfg, fopts);

  os << "pcmlint: forest of " << members.size() << " tree(s) on "
     << opt.topology << ", " << opt.bytes << " B"
     << (opt.offset_search ? ", offsets searched" : "")
     << " (static, no flits)\n";
  os << "machine: " << describe(cfg.machine, opt.bytes) << "\n\n";

  analysis::Table rows(
      {"tree", "algorithm", "k", "start", "sends", "makespan", "latency"});
  for (size_t t = 0; t < members.size(); ++t) {
    const Time mk = t < rep.tree_makespan.size() ? rep.tree_makespan[t] : 0;
    rows.add_row({std::to_string(t), names[t],
                  std::to_string(members[t].tree.num_nodes()),
                  std::to_string(members[t].start),
                  std::to_string(members[t].tree.sends.size()),
                  std::to_string(mk), std::to_string(mk - members[t].start)});
  }
  os << rows.to_string();

  analysis::Table summary({"trees", "sends", "channels", "max windows",
                           "intra pairs", "cross pairs", "deadlock",
                           "makespan", "verdict"});
  summary.add_row({std::to_string(rep.trees), std::to_string(rep.sends),
                   std::to_string(rep.channels_used),
                   std::to_string(rep.max_channel_windows),
                   std::to_string(rep.intra_pairs),
                   std::to_string(rep.cross_pairs),
                   rep.deadlock_free ? "none" : "CYCLE",
                   std::to_string(rep.makespan),
                   rep.clean() ? "clean" : "FLAGGED"});
  os << "\n" << summary.to_string();
  os << "\nforest: " << rep.describe(members, *topo) << "\n";

  harness::JsonReport report("pcmlint", 1);
  report.set_meta("engine", "static");
  report.set_meta("seed", std::to_string(opt.seed));
  report.set_meta("mode", "forest");
  report.add_table("summary", opt.csv, summary);
  report.add_table("per-tree", opt.csv, rows);
  harness::write_report_tail(cli_tail(opt, rows, nullptr, tool), report, os, std::cerr);
  // Cross-tree findings are never a theorem violation — Theorems 1-2
  // speak about one tree in isolation — so a flagged forest exits 1.
  return rep.clean() ? 0 : 1;
}

/// `pcmlint --stream N [--window W] [--compare]`: steady-state pipeline
/// analysis (lint_stream) of the windowed streaming schedule.
int run_lint_stream_cli(const CliOptions& opt, std::ostream& os, std::string_view tool) {
  const auto topo = make_topology(opt.topology, tool);
  const MeshShape* shape = mesh_shape_of(*topo);
  const std::vector<analysis::Placement> placements = make_placements(opt, *topo, tool);
  const analysis::Placement& p = placements.front();
  const std::vector<McastAlgorithm> algs = select_algorithms(opt, shape, tool);
  const int window = opt.window > 0 ? opt.window : 8;  // dynamic default

  const rt::RuntimeConfig cfg;
  const sim::SimConfig sim_cfg;
  const rt::MulticastRuntime rtm(cfg);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(opt.bytes, 1));

  os << "pcmlint: stream of " << opt.stream << " slot(s), window " << window
     << ", " << (opt.compare ? std::string("compare") : opt.algorithm)
     << " on " << opt.topology << ", k="
     << static_cast<int>(p.dests.size()) + 1 << ", " << opt.bytes
     << " B, placement 0 of seed " << opt.seed << " (static, no flits)\n";
  os << "machine: " << describe(cfg.machine, opt.bytes) << "\n\n";

  analysis::Table summary({"algorithm", "guarantee", "clean", "interval",
                           "busy bound", "busy node", "saturated", "period",
                           "slot latency", "makespan", "slots/kcycle",
                           "diagnostics"});
  int exit_code = 0;
  bool printed_detail = false;
  for (const McastAlgorithm alg : algs) {
    const bool guaranteed = verify::guarantees_contention_free(alg);
    const MulticastTree tree = build_multicast(alg, p.source, p.dests, tp, shape);
    const lint::StreamLintReport rep = lint::lint_stream(
        tree, *topo, cfg, sim_cfg, opt.bytes, opt.stream, window);
    summary.add_row(
        {std::string(algorithm_name(alg)), guaranteed ? "Thm 1-2" : "-",
         rep.clean() ? "yes" : "no", analysis::Table::num(rep.interval, 2),
         std::to_string(rep.busy_bound), std::to_string(rep.busy_node),
         rep.saturated ? "yes" : "no",
         rep.period_slots > 0 ? std::to_string(rep.period_cycles) + "/" +
                                    std::to_string(rep.period_slots)
                              : "-",
         std::to_string(rep.slot_latency), std::to_string(rep.makespan),
         analysis::Table::num(rep.slots_per_kcycle, 3),
         std::to_string(rep.diagnostics.size())});
    if (!rep.clean()) {
      // The dynamic auditor demands contention freedom of guaranteed
      // algorithms only at window 1 (deeper windows legally overlap
      // consecutive slots); mirror that exit contract.
      exit_code = std::max(exit_code, guaranteed && window == 1 ? 3 : 1);
      if (!printed_detail) {
        os << algorithm_name(alg) << ": " << rep.describe(tree, *topo) << "\n\n";
        printed_detail = true;
      }
    }
  }
  os << summary.to_string();

  harness::JsonReport report("pcmlint", 1);
  report.set_meta("engine", "static");
  report.set_meta("seed", std::to_string(opt.seed));
  report.set_meta("mode", "stream");
  report.set_meta("slots", std::to_string(opt.stream));
  report.set_meta("window", std::to_string(window));
  report.add_table("stream", opt.csv, summary);
  harness::write_report_tail(cli_tail(opt, summary, nullptr, tool), report, os, std::cerr);
  if (exit_code == 3)
    os << "pcmlint: GUARANTEE VIOLATION: a Theorem 1-2 algorithm is not "
          "contention-free at window 1\n";
  return exit_code;
}

}  // namespace

int run_lint_cli(const CliOptions& opt, std::ostream& os, std::string_view tool) {
  if (opt.help) {
    os << harness::flag_usage(cli_flags("pcmlint"));
    return 0;
  }
  if (!opt.forest.empty()) return run_lint_forest_cli(opt, os, tool);
  if (opt.stream > 0) return run_lint_stream_cli(opt, os, tool);
  const auto topo = make_topology(opt.topology, tool);
  const MeshShape* shape = mesh_shape_of(*topo);
  const std::vector<analysis::Placement> placements = make_placements(opt, *topo, tool);
  const std::vector<McastAlgorithm> algs = select_algorithms(opt, shape, tool);
  const int group_size = opt.dests.empty()
                             ? opt.nodes
                             : static_cast<int>(placements.front().dests.size()) + 1;

  const rt::RuntimeConfig cfg;
  const sim::SimConfig sim_cfg;
  const rt::MulticastRuntime rtm(cfg);
  lint::LintOptions lint_opts;
  lint_opts.keep_schedule = false;  // verdicts and diagnostics only

  os << "pcmlint: " << (opt.compare ? std::string("compare") : opt.algorithm)
     << " on " << opt.topology << ", k=" << group_size << ", " << opt.bytes
     << " B, " << placements.size() << " placement(s), seed " << opt.seed
     << (opt.shuffle_chain ? ", shuffled chain" : "") << " (static, no flits)\n";
  os << "machine: " << describe(cfg.machine, opt.bytes) << "\n";

  analysis::Table summary({"algorithm", "guarantee", "placements", "clean",
                           "contention", "deadlock", "pairs", "max makespan"});
  analysis::Table rows({"algorithm", "rep", "clean", "diagnostics", "makespan"});
  int exit_code = 0;
  bool printed_detail = false;
  for (const McastAlgorithm alg : algs) {
    const bool guaranteed = verify::guarantees_contention_free(alg);
    int clean = 0, contended = 0, deadlocked = 0;
    long long pairs = 0;
    Time max_makespan = 0;
    for (size_t i = 0; i < placements.size(); ++i) {
      const MulticastTree tree = verify::placement_tree(
          placement_run(opt, alg, shape, placements[i], nullptr), rtm);
      const lint::LintReport rep =
          lint::lint_tree(tree, *topo, cfg, sim_cfg, opt.bytes, lint_opts);
      clean += rep.clean() ? 1 : 0;
      contended += rep.contention_free ? 0 : 1;
      deadlocked += rep.deadlock_free ? 0 : 1;
      for (const lint::LintDiagnostic& d : rep.diagnostics)
        pairs += d.kind == lint::DiagKind::kContention ? 1 : 0;
      max_makespan = std::max(max_makespan, rep.makespan);
      rows.add_row({std::string(algorithm_name(alg)), std::to_string(i),
                    rep.clean() ? "yes" : "no",
                    std::to_string(rep.diagnostics.size()),
                    std::to_string(rep.makespan)});
      if (!rep.clean()) {
        exit_code = std::max(exit_code, guaranteed ? 3 : 1);
        if (!printed_detail) {
          // Full witness for the first flagged schedule; the summary
          // table carries the rest.
          os << "\n" << algorithm_name(alg) << " placement " << i << ": "
             << rep.describe(tree, *topo) << "\n";
          printed_detail = true;
        }
      }
    }
    summary.add_row({std::string(algorithm_name(alg)), guaranteed ? "Thm 1-2" : "-",
                     std::to_string(placements.size()), std::to_string(clean),
                     std::to_string(contended), std::to_string(deadlocked),
                     std::to_string(pairs), std::to_string(max_makespan)});
  }
  os << "\n" << summary.to_string();

  harness::JsonReport report("pcmlint", 1);
  // Same envelope keys as every dynamic report; lint simulates nothing,
  // so the engine is "static".
  report.set_meta("engine", "static");
  report.set_meta("seed", std::to_string(opt.seed));
  report.add_table("summary", opt.csv, summary);
  report.add_table("per-placement", opt.csv, rows);
  harness::write_report_tail(cli_tail(opt, rows, nullptr, tool), report, os, std::cerr);
  if (exit_code == 3)
    os << "pcmlint: GUARANTEE VIOLATION: a Theorem 1-2 algorithm is not "
          "contention-free on this input\n";
  return exit_code;
}

}  // namespace pcm::cli
