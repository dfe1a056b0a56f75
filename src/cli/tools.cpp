#include "cli/tools.hpp"

#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "analysis/table.hpp"
#include "harness/harness.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

namespace pcm::cli {

// --- pcmchaos ---------------------------------------------------------------
//
// Generates scenarios from RNG substreams of (--seed, index), executes
// each under the InvariantAuditor, delta-debugs any failure to a minimal
// reproducer, and prints the `pcmcast --audit` command that replays it.
// The report is bit-identical at any --jobs value.

harness::FlagTable<ChaosOptions> chaos_flags() {
  return {
    .tool = "pcmchaos",
    .intro = "pcmchaos — randomized fault-injection fuzzer with invariant auditing\n\n"
             "usage: pcmchaos [options]\n",
    .column = 16,
    .flags = {
      {.name = "--scenarios", .metavar = "N", .field = &ChaosOptions::scenarios,
       .hi = 1'000'000, .help = "scenarios to run (default 1000)"},
      {.name = "--seed", .metavar = "S", .field = &ChaosOptions::seed,
       .lo = std::numeric_limits<long long>::min(),
       .hi = std::numeric_limits<long long>::max(),
       .help = "root seed; scenario i uses substream (S, i) (default 42)"},
      {.name = "--jobs", .alias = "-j", .metavar = "N", .field = &ChaosOptions::jobs,
       .hi = 4096,
       .help = "worker threads (0 = one per hardware thread; default 0;\n"
               "results are identical at any N)"},
      {.name = "--minimize", .metavar = "N", .field = &ChaosOptions::max_minimized,
       .hi = std::numeric_limits<int>::max(),
       .help = "delta-debug at most N failures (default 5)"},
      {.name = "--stream", .field = &ChaosOptions::streaming,
       .help = "sweep streaming scenarios instead: multi-slot windowed\n"
               "streams with mid-stream faults, audited end to end\n"
               "(reproducers replay via pcmcast --stream)"},
      {.name = "--json", .metavar = "PATH", .field = &ChaosOptions::json,
       .help = "also write the report as the unified JSON envelope\n"
               "(schema_version/engine/seed/jobs + summary table)"},
      {.name = "--quiet", .field = &ChaosOptions::quiet,
       .help = "only print the summary line"},
    }};
}

int run_chaos_cli(const ChaosOptions& opt, std::ostream& os) {
  if (opt.help) {
    os << harness::flag_usage(chaos_flags());
    return 0;
  }
  const verify::ChaosReport rep = verify::run_chaos(opt, opt.quiet ? nullptr : &os);
  os << "pcmchaos: " << rep.scenarios << " scenarios, seed " << opt.seed << ": "
     << rep.violations << " violations (" << rep.watchdogs
     << " watchdogs), mean delivered " << analysis::Table::num(rep.mean_delivered, 4)
     << ", " << rep.retries << " retries, " << rep.repairs << " repairs, "
     << rep.dropped << " messages dropped";
  if (opt.streaming)
    os << ", " << rep.epochs << " epochs, " << rep.stale_acks << " stale acks, "
       << rep.failovers << " failovers, " << rep.rejoins << " rejoins";
  os << "\n";
  if (!opt.json.empty()) {
    // Same report envelope as pcmcast/pcmlint/pcmtrace.
    harness::JsonReport report("pcmchaos", opt.jobs);
    report.set_meta("engine", "cycle");  // run_scenario uses pcmcast defaults
    report.set_meta("seed", std::to_string(opt.seed));
    report.set_meta("mode", opt.streaming ? "stream" : "one-shot");
    analysis::Table t({"scenarios", "violations", "watchdogs", "retries", "repairs",
                       "dropped", "epochs", "failovers", "rejoins", "mean delivered"});
    t.add_row({std::to_string(rep.scenarios), std::to_string(rep.violations),
               std::to_string(rep.watchdogs), std::to_string(rep.retries),
               std::to_string(rep.repairs), std::to_string(rep.dropped),
               std::to_string(rep.epochs), std::to_string(rep.failovers),
               std::to_string(rep.rejoins), analysis::Table::num(rep.mean_delivered, 4)});
    report.add_table("summary", "", t);
    report.write(opt.json);
    os << "json: " << opt.json << "\n";
  }
  return rep.violations == 0 ? 0 : 1;
}

// --- pcmtrace ---------------------------------------------------------------
//
// `dump` prints one line per event (oldest first) with optional filters;
// `diff` compares two traces record-by-record (traces of the same
// workload are byte-identical at any --jobs and on either engine);
// `stats` derives the deterministic metric registry from the trace.

namespace {

using obs::EventKind;
using obs::TraceEvent;

enum TraceCommand { kDump, kDiff, kStats };
constexpr std::string_view kTraceCommands[] = {"dump", "diff", "stats"};

/// The command `o` runs, which is its mode; a missing or unknown command
/// or a wrong number of trace files is a usage error.
int trace_command(const TraceOptions& o) {
  for (const TraceCommand c : {kDump, kDiff, kStats}) {
    if (o.operands.empty() || o.operands[0] != kTraceCommands[c]) continue;
    if (o.operands.size() != (c == kDiff ? 3U : 2U))
      throw harness::usage_error(
          "pcmtrace", std::string(kTraceCommands[c]) + " takes " +
                          (c == kDiff ? "two trace files" : "one trace file") + " (try --help)");
    return c;
  }
  throw harness::usage_error("pcmtrace", o.operands.empty()
                                             ? std::string("missing command (try --help)")
                                             : "unknown command '" + o.operands[0] +
                                                   "' (try --help)");
}

obs::TraceFile load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("pcmtrace: cannot open " + path);
  return obs::read_binary_trace(f);
}

/// The message id an event is "about", when it has one (--msg filter).
std::optional<std::int32_t> msg_of(const TraceEvent& ev) {
  switch (ev.event_kind()) {
    case EventKind::kPost:
    case EventKind::kDeliver:
    case EventKind::kDrop:
      return ev.a;
    case EventKind::kReserve:
    case EventKind::kRelease:
    case EventKind::kBlocked:
    case EventKind::kWait:
      return ev.c;
    case EventKind::kViolation:
      return ev.b;
    default:
      return std::nullopt;
  }
}

/// The (router, out-port) channel of a reserve or release (--channel
/// filter); a wait or blocked record names an input port, not a channel.
std::optional<harness::IntPair> channel_of(const TraceEvent& ev) {
  const EventKind k = ev.event_kind();
  if (k == EventKind::kReserve || k == EventKind::kRelease)
    return harness::IntPair{ev.a, ev.b};
  return std::nullopt;
}

int run_dump(const TraceOptions& o, std::ostream& os) {
  const std::string& path = o.operands[1];
  const obs::TraceFile tf = load(path);
  os << path << ": " << tf.events.size() << " events";
  if (tf.dropped > 0) os << " (" << tf.dropped << " dropped by ring wrap)";
  os << "\n";
  std::int64_t shown = 0;
  for (const TraceEvent& ev : tf.events) {
    if (o.msg && msg_of(ev) != o.msg) continue;
    if (o.channel && channel_of(ev) != o.channel) continue;
    if (o.cycle_range &&
        (ev.cycle < o.cycle_range->first || ev.cycle > o.cycle_range->second))
      continue;
    if (o.limit && shown == *o.limit) {
      os << "... (limit " << *o.limit << " reached)\n";
      break;
    }
    os << obs::format_event(ev) << "\n";
    ++shown;
  }
  return 0;
}

int run_diff(const TraceOptions& o, std::ostream& os) {
  const obs::TraceFile lhs = load(o.operands[1]);
  const obs::TraceFile rhs = load(o.operands[2]);
  const obs::TraceDiff d = obs::diff_traces(lhs.events, rhs.events);
  if (d.identical) {
    os << "identical: " << lhs.events.size() << " events\n";
    return 0;
  }
  os << "different at record " << d.first_divergence << ":\n" << d.detail << "\n";
  return 1;
}

int run_stats(const TraceOptions& o, std::ostream& os) {
  const std::string& path = o.operands[1];
  const obs::TraceFile tf = load(path);
  obs::MetricsRegistry reg;
  obs::populate_metrics(tf.events, reg);
  analysis::Table t({"metric", "value"});
  for (const obs::MetricSample& s : reg.snapshot()) t.add_row({s.name, s.value});
  os << path << ": " << tf.events.size() << " events\n" << t.to_string();
  if (!o.json.empty()) {
    // Same envelope as every other tool (schema_version/engine/seed/jobs);
    // the metrics derive from a recorded trace, so the engine is "trace"
    // and the seed is whatever produced the trace (not recorded in PCMT —
    // reported as 0).
    harness::JsonReport report("pcmtrace", 1);
    report.set_meta("engine", "trace");
    report.set_meta("seed", "0");
    report.set_meta("source", path);
    report.set_meta("events", std::to_string(tf.events.size()));
    report.add_table("stats", "", t);
    report.write(o.json);
    os << "json: " << o.json << "\n";
  }
  return 0;
}

}  // namespace

harness::FlagTable<TraceOptions> trace_flags() {
  // Message ids, routers and ports are int32; cycles and counts int64.
  constexpr std::int64_t kMaxId = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kMaxCount = std::numeric_limits<std::int64_t>::max();
  constexpr harness::ModeMask kDumpOnly = 1U << kDump;
  return {
    .tool = "pcmtrace",
    .intro =
      "usage: pcmtrace dump FILE [--msg M] [--channel R,P] [--cycle-range A:B]\n"
      "                          [--limit N]\n"
      "       pcmtrace diff A B\n"
      "       pcmtrace stats FILE [--json PATH]\n"
      "\n"
      "  dump   print events oldest-first; filters compose (AND)\n"
      "  diff   byte-compare two traces; exit 0 identical, 1 different\n"
      "  stats  deterministic metrics derived from the trace (channel\n"
      "         occupancy, span/retry histograms, commit rate)\n"
      "\n",
    .column = 19,
    .mode_of = trace_command,
    .mode_names = {std::begin(kTraceCommands), std::end(kTraceCommands)},
    .operands = &TraceOptions::operands,
    .flags = {
      {.name = "--msg", .metavar = "M", .field = &TraceOptions::msg, .hi = kMaxId,
       .modes = kDumpOnly, .help = "(dump) events about message id M"},
      {.name = "--channel", .metavar = "R,P", .field = &TraceOptions::channel,
       .hi = kMaxId, .sep = ',', .modes = kDumpOnly,
       .help = "(dump) channel events on router R, output port P"},
      {.name = "--cycle-range", .metavar = "A:B", .field = &TraceOptions::cycle_range,
       .hi = kMaxCount, .sep = ':', .modes = kDumpOnly,
       .help = "(dump) events with A <= cycle <= B"},
      {.name = "--limit", .metavar = "N", .field = &TraceOptions::limit, .hi = kMaxCount,
       .modes = kDumpOnly, .help = "(dump) stop after N matching events"},
      {.name = "--json", .metavar = "PATH", .field = &TraceOptions::json,
       .modes = 1U << kStats,
       .help = "(stats) also write the metrics as the unified JSON\n"
               "report envelope (schema_version/engine/...)"},
    }};
}

int run_trace_cli(const TraceOptions& opt, std::ostream& os) {
  if (opt.help) {
    os << harness::flag_usage(trace_flags());
    return 0;
  }
  constexpr int (*kRun[])(const TraceOptions&, std::ostream&) = {run_dump, run_diff,
                                                                 run_stats};
  return kRun[trace_command(opt)](opt, os);
}

}  // namespace pcm::cli
