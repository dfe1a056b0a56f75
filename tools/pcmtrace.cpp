// pcmtrace: inspect and compare binary flight-recorder traces (PCMT
// format, produced by `pcmcast --trace` and the bench harness).
//
//   pcmtrace dump FILE [--msg M] [--channel R,P] [--cycle-range A:B]
//                      [--limit N]
//   pcmtrace diff A B
//   pcmtrace stats FILE
//
// `dump` prints one line per event (oldest first) with optional filters;
// `diff` compares two traces record-by-record (traces of the same
// workload are byte-identical at any --jobs and on either engine);
// `stats` derives the deterministic metric registry from the trace.
// Exit codes: dump/stats 0 on success; diff 0 identical, 1 different;
// 2 usage or I/O error everywhere (integer flags out of range too).
#include <cstdint>
#include <limits>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/table.hpp"
#include "harness/harness.hpp"
#include "harness/spec.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_event.hpp"

namespace {

using pcm::obs::EventKind;
using pcm::obs::TraceEvent;

constexpr std::string_view kUsage =
    "usage: pcmtrace dump FILE [--msg M] [--channel R,P] [--cycle-range A:B]\n"
    "                          [--limit N]\n"
    "       pcmtrace diff A B\n"
    "       pcmtrace stats FILE [--json PATH]\n"
    "\n"
    "  dump   print events oldest-first; filters compose (AND)\n"
    "         --msg M          events about message id M\n"
    "         --channel R,P    channel events on router R, output port P\n"
    "         --cycle-range A:B  events with A <= cycle <= B\n"
    "         --limit N        stop after N matching events\n"
    "  diff   byte-compare two traces; exit 0 identical, 1 different\n"
    "  stats  deterministic metrics derived from the trace (channel\n"
    "         occupancy, span/retry histograms, commit rate)\n"
    "         --json PATH      also write the metrics as the unified JSON\n"
    "                          report envelope (schema_version/engine/...)\n";

/// Upper bound of --cycle-range and --limit (cycles and counts are int64).
constexpr long long kInt64Max = std::numeric_limits<long long>::max();

/// An integer flag value in [0, hi]; anything else is a usage error.
long long parse_flag(std::string_view flag, std::string_view v,
                     long long hi = std::numeric_limits<std::int32_t>::max()) {
  return pcm::harness::parse_uint_flag(flag, v, 0, hi, "pcmtrace");
}

pcm::obs::TraceFile load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("pcmtrace: cannot open " + path);
  return pcm::obs::read_binary_trace(f);
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
      return ev.c;
    case EventKind::kViolation:
      return ev.b;
    default:
      return std::nullopt;
  }
}

/// The (router, out-port) channel of a channel-layer event.
std::optional<std::pair<std::int32_t, std::int32_t>> channel_of(
    const TraceEvent& ev) {
  switch (ev.event_kind()) {
    case EventKind::kReserve:
    case EventKind::kRelease:
    case EventKind::kBlocked:
      return std::make_pair(ev.a, ev.b);
    default:
      return std::nullopt;
  }
}

struct DumpFilter {
  std::optional<std::int32_t> msg;
  std::optional<std::pair<std::int32_t, std::int32_t>> channel;
  long long cycle_lo = 0, cycle_hi = -1;  ///< hi < 0 = unbounded
  long long limit = -1;                   ///< < 0 = unbounded
};

int run_dump(const std::string& path, const DumpFilter& filt) {
  const pcm::obs::TraceFile tf = load(path);
  std::cout << path << ": " << tf.events.size() << " events";
  if (tf.dropped > 0) std::cout << " (" << tf.dropped << " dropped by ring wrap)";
  std::cout << "\n";
  long long shown = 0;
  for (const TraceEvent& ev : tf.events) {
    if (filt.msg && msg_of(ev) != filt.msg) continue;
    if (filt.channel && channel_of(ev) != filt.channel) continue;
    if (ev.cycle < filt.cycle_lo) continue;
    if (filt.cycle_hi >= 0 && ev.cycle > filt.cycle_hi) continue;
    if (filt.limit >= 0 && shown == filt.limit) {
      std::cout << "... (limit " << filt.limit << " reached)\n";
      break;
    }
    std::cout << pcm::obs::format_event(ev) << "\n";
    ++shown;
  }
  return 0;
}

int run_diff(const std::string& a, const std::string& b) {
  const pcm::obs::TraceFile lhs = load(a);
  const pcm::obs::TraceFile rhs = load(b);
  const pcm::obs::TraceDiff d = pcm::obs::diff_traces(lhs.events, rhs.events);
  if (d.identical) {
    std::cout << "identical: " << lhs.events.size() << " events\n";
    return 0;
  }
  std::cout << "different at record " << d.first_divergence << ":\n"
            << d.detail << "\n";
  return 1;
}

int run_stats(const std::string& path, const std::string& json_path) {
  const pcm::obs::TraceFile tf = load(path);
  pcm::obs::MetricsRegistry reg;
  pcm::obs::populate_metrics(tf.events, reg);
  pcm::analysis::Table t({"metric", "value"});
  for (const pcm::obs::MetricSample& s : reg.snapshot())
    t.add_row({s.name, s.value});
  std::cout << path << ": " << tf.events.size() << " events\n" << t.to_string();
  if (!json_path.empty()) {
    // Same envelope as every other tool (schema_version/engine/seed/jobs);
    // the metrics derive from a recorded trace, so the engine is "trace"
    // and the seed is whatever produced the trace (not recorded in PCMT —
    // reported as 0).
    pcm::harness::JsonReport report("pcmtrace", 1);
    report.set_meta("engine", "trace");
    report.set_meta("seed", "0");
    report.set_meta("source", path);
    report.set_meta("events", std::to_string(tf.events.size()));
    report.add_table("stats", "", t);
    report.write(json_path);
    std::cout << "json: " << json_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    if (args.empty() || args[0] == "--help" || args[0] == "-h") {
      std::cout << kUsage;
      return args.empty() ? 2 : 0;
    }
    const std::string_view cmd = args[0];
    // Positional operands first, then flags; a flag's value is the next
    // argument after '=' -less flags.
    std::vector<std::string> pos;
    DumpFilter filt;
    std::string json_path;
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string_view a = args[i];
      auto value = [&]() -> std::string_view {
        if (i + 1 >= args.size())
          throw std::invalid_argument("pcmtrace: " + std::string(a) +
                                      " expects a value");
        return args[++i];
      };
      if (a == "--msg") {
        filt.msg = static_cast<std::int32_t>(parse_flag(a, value()));
      } else if (a == "--channel") {
        const std::string_view v = value();
        const std::size_t comma = v.find(',');
        if (comma == std::string_view::npos)
          throw std::invalid_argument(
              "pcmtrace: --channel expects ROUTER,PORT");
        filt.channel = {static_cast<std::int32_t>(parse_flag(a, v.substr(0, comma))),
                        static_cast<std::int32_t>(parse_flag(a, v.substr(comma + 1)))};
      } else if (a == "--cycle-range") {
        const std::string_view v = value();
        const std::size_t colon = v.find(':');
        if (colon == std::string_view::npos)
          throw std::invalid_argument(
              "pcmtrace: --cycle-range expects LO:HI");
        filt.cycle_lo = parse_flag(a, v.substr(0, colon), kInt64Max);
        filt.cycle_hi = parse_flag(a, v.substr(colon + 1), kInt64Max);
      } else if (a == "--limit") {
        filt.limit = parse_flag(a, value(), kInt64Max);
      } else if (a == "--json") {
        json_path = std::string(value());
      } else if (a.substr(0, 2) == "--") {
        throw std::invalid_argument("pcmtrace: unknown option " +
                                    std::string(a));
      } else {
        pos.emplace_back(a);
      }
    }
    if (cmd == "dump" && pos.size() == 1) return run_dump(pos[0], filt);
    if (cmd == "diff" && pos.size() == 2) return run_diff(pos[0], pos[1]);
    if (cmd == "stats" && pos.size() == 1) return run_stats(pos[0], json_path);
    std::cerr << kUsage;
    return 2;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
