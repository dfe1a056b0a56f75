// Tests for the flight recorder (src/obs): ring semantics, serialization
// round-trips, metric derivation, and the end-to-end determinism
// contracts the subsystem exists to enforce — byte-identical traces at
// any --jobs value, cycle-vs-event equality modulo the fast-forwarded
// flag, zero behavioural change when tracing is off, and audits that
// replay a recorded trace (never a wrapped one), from memory or a file.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm::obs {
namespace {

TraceEvent make_event(EventKind k, Time cycle, std::int32_t a = 0,
                      std::int32_t b = 0, std::int32_t c = 0,
                      std::int32_t d = 0) {
  TraceEvent ev;
  ev.cycle = cycle;
  ev.kind = static_cast<std::uint16_t>(k);
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  return ev;
}

// --- ring buffer ----------------------------------------------------------

TEST(Recorder, RingKeepsNewestAndCountsDrops) {
  FlightRecorder rec(RecorderConfig{4});
  for (int i = 0; i < 7; ++i)
    rec.record(EventKind::kPost, i, i);
  EXPECT_EQ(rec.events_recorded(), 7u);
  EXPECT_EQ(rec.events_dropped(), 3u);
  const std::vector<TraceEvent> evs = rec.snapshot();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: records 3..6 survive the wrap.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(evs[static_cast<std::size_t>(i)].a, i + 3);
}

TEST(Recorder, AppendMergesOldestFirstAndPropagatesDrops) {
  FlightRecorder master(RecorderConfig{16});
  FlightRecorder run(RecorderConfig{2});
  for (int i = 0; i < 5; ++i) run.record(EventKind::kDeliver, i, i);
  master.record(EventKind::kRunBegin, 0, 0);
  master.append(run);
  const std::vector<TraceEvent> evs = master.snapshot();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].event_kind(), EventKind::kRunBegin);
  EXPECT_EQ(evs[1].a, 3);
  EXPECT_EQ(evs[2].a, 4);
  // The master's dropped count reports the whole merged history.
  EXPECT_EQ(master.events_dropped(), run.events_dropped());
}

// --- binary round-trip ----------------------------------------------------

TEST(Export, BinaryRoundTripIsExact) {
  std::vector<TraceEvent> evs = {
      make_event(EventKind::kRunBegin, 0, 7, 2),
      make_event(EventKind::kReserve, 10, 3, 1, 42),
      make_event(EventKind::kRelease, 266, 3, 1, 42, 256),
  };
  evs.back().flags = kFastForwarded;
  std::stringstream ss;
  write_binary_trace(ss, evs, 9);
  const TraceFile tf = read_binary_trace(ss);
  EXPECT_EQ(tf.dropped, 9u);
  ASSERT_EQ(tf.events.size(), evs.size());
  for (std::size_t i = 0; i < evs.size(); ++i) EXPECT_EQ(tf.events[i], evs[i]);
}

TEST(Export, BinaryRejectsBadMagicAndTruncation) {
  std::stringstream bad("NOTATRACE........");
  EXPECT_THROW((void)read_binary_trace(bad), std::runtime_error);
  std::stringstream ss;
  write_binary_trace(ss, std::vector<TraceEvent>{make_event(EventKind::kPost, 1)},
                     0);
  std::string payload = ss.str();
  payload.resize(payload.size() - 5);  // cut into the record
  std::stringstream cut(payload);
  EXPECT_THROW((void)read_binary_trace(cut), std::runtime_error);
  // A forged header count over one real record: 2^26 must fail without
  // allocating the claimed 2 GB, and 2^59 + 1 (count * 32 overflows) must
  // fail the same way, not with std::length_error.
  for (const std::uint64_t count :
       {std::uint64_t{1} << 26, (std::uint64_t{1} << 59) + 1}) {
    std::string forged = ss.str();
    for (int i = 0; i < 8; ++i)
      forged[8 + i] = static_cast<char>((count >> (8 * i)) & 0xff);
    std::stringstream in(forged);
    EXPECT_THROW((void)read_binary_trace(in), std::runtime_error) << count;
  }
}

// --- diffing (the pcmtrace diff engine) -----------------------------------

TEST(Diff, IdenticalMaskedAndDivergent) {
  std::vector<TraceEvent> a = {make_event(EventKind::kReserve, 5, 1, 2, 3),
                               make_event(EventKind::kRelease, 9, 1, 2, 3, 4)};
  std::vector<TraceEvent> b = a;
  EXPECT_TRUE(diff_traces(a, b, false).identical);

  // The ff flag is the one sanctioned cycle-vs-event difference: strict
  // diff flags it, masked diff does not.
  b[1].flags = kFastForwarded;
  EXPECT_FALSE(diff_traces(a, b, false).identical);
  EXPECT_EQ(diff_traces(a, b, false).first_divergence, 1u);
  EXPECT_TRUE(diff_traces(a, b, true).identical);

  // Any payload difference survives the mask.
  b[1].d = 5;
  EXPECT_FALSE(diff_traces(a, b, true).identical);

  // Length mismatches diverge at the shorter length.
  b = a;
  b.pop_back();
  const TraceDiff d = diff_traces(a, b, false);
  EXPECT_FALSE(d.identical);
  EXPECT_EQ(d.first_divergence, 1u);
}

// --- metrics --------------------------------------------------------------

TEST(Metrics, RegistryIsDeterministicAndTyped) {
  MetricsRegistry reg;
  reg.count("b.counter", 2);
  reg.gauge("a.gauge", 1.5);
  reg.count("b.counter", 3);
  reg.observe("hist", 10, 4.0);
  reg.observe("hist", 10, 14.0);
  const std::vector<MetricSample> rows = reg.snapshot();
  // First-use order, not alphabetical: counters before the gauge here.
  ASSERT_GE(rows.size(), 4u);
  EXPECT_EQ(rows[0].name, "b.counter");
  EXPECT_EQ(rows[0].value, "5");
  EXPECT_EQ(rows[1].name, "a.gauge");
  // Re-registering a name under a different kind is a bug, not a merge.
  EXPECT_THROW(reg.gauge("b.counter", 1.0), std::logic_error);
}

TEST(Metrics, PopulateDerivesSpansAndRates) {
  std::vector<TraceEvent> evs = {
      make_event(EventKind::kRunBegin, 0),
      make_event(EventKind::kReserve, 10, 1, 0, 5),
      make_event(EventKind::kRelease, 26, 1, 0, 5, 16),
      make_event(EventKind::kSendAttempt, 12, 0, 0, 1, -1),
      make_event(EventKind::kSendAttempt, 40, 0, 1, 1, -1),
  };
  evs[2].flags = kFastForwarded;
  MetricsRegistry reg;
  populate_metrics(evs, reg);
  const std::vector<MetricSample> rows = reg.snapshot();
  auto value_of = [&](const std::string& name) -> std::string {
    for (const MetricSample& s : rows)
      if (s.name == name) return s.value;
    return "<missing>";
  };
  EXPECT_EQ(value_of("events.reserve"), "1");
  EXPECT_EQ(value_of("spans.fast_forwarded"), "1");
  EXPECT_EQ(value_of("hist.span_cycles.count"), "1");
  EXPECT_EQ(value_of("hist.retry_depth.count"), "2");
  // One retry (attempt index 1) lands in the [1,2) bucket.
  EXPECT_EQ(value_of("hist.retry_depth[1,2)"), "1");
}

// --- end-to-end determinism contracts -------------------------------------

struct TempPath {
  explicit TempPath(const std::string& stem)
      : path((std::filesystem::temp_directory_path() /
              ("pcm_obs_" + stem + ".pcmt"))
                 .string()) {}
  ~TempPath() { std::remove(path.c_str()); }
  std::string path;
};

cli::CliOptions fig2_options() {
  cli::CliOptions opt;
  opt.topology = "mesh:8";
  opt.algorithm = "opt-mesh";
  opt.nodes = 16;
  opt.reps = 2;
  return opt;
}

TraceFile run_traced(cli::CliOptions opt, const std::string& path,
                     std::string* stdout_text = nullptr) {
  opt.trace = path;
  std::ostringstream os, err;
  EXPECT_EQ(cli::run_cli(opt, os, err), 0);
  if (stdout_text != nullptr) *stdout_text = os.str();
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good());
  return read_binary_trace(f);
}

TEST(TraceDeterminism, GoldenFig2Shape) {
  TempPath tmp("golden");
  const TraceFile tf = run_traced(fig2_options(), tmp.path);
  EXPECT_EQ(tf.dropped, 0u);
  ASSERT_FALSE(tf.events.empty());
  // Two placements = two run markers, in placement order.
  std::size_t runs = 0, reserves = 0, releases = 0, posts = 0, delivers = 0;
  for (const TraceEvent& ev : tf.events) {
    switch (ev.event_kind()) {
      case EventKind::kRunBegin:
        EXPECT_EQ(ev.a, static_cast<std::int32_t>(runs));
        ++runs;
        break;
      case EventKind::kReserve: ++reserves; break;
      case EventKind::kRelease: ++releases; break;
      case EventKind::kPost: ++posts; break;
      case EventKind::kDeliver: ++delivers; break;
      default: break;
    }
  }
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(reserves, releases);       // every span closes
  EXPECT_EQ(posts, delivers);          // fault-free: every message lands
  EXPECT_EQ(posts, 2u * 15u);          // k=16 multicast = 15 sends per run
  // Re-running the identical workload reproduces the trace byte-for-byte.
  TempPath tmp2("golden2");
  const TraceFile again = run_traced(fig2_options(), tmp2.path);
  EXPECT_TRUE(diff_traces(tf.events, again.events, false).identical);
}

TEST(TraceDeterminism, JobsFanOutIsByteIdentical) {
  cli::CliOptions opt = fig2_options();
  opt.reps = 4;
  TempPath t1("jobs1"), t4("jobs4");
  opt.jobs = 1;
  const TraceFile a = run_traced(opt, t1.path);
  opt.jobs = 4;
  const TraceFile b = run_traced(opt, t4.path);
  const TraceDiff d = diff_traces(a.events, b.events, false);
  EXPECT_TRUE(d.identical) << d.detail;
}

TEST(TraceDeterminism, CycleVsEventEqualModuloFastForward) {
  cli::CliOptions opt = fig2_options();
  TempPath tc("cycle"), te("event");
  opt.engine = sim::EngineKind::kCycle;
  const TraceFile cycle = run_traced(opt, tc.path);
  opt.engine = sim::EngineKind::kEvent;
  const TraceFile event = run_traced(opt, te.path);

  // Masked: identical timestamps, payloads, and order.
  const TraceDiff masked = diff_traces(cycle.events, event.events, true);
  EXPECT_TRUE(masked.identical) << masked.detail;

  // The cycle engine only jumps a quiescent network, so it never flags;
  // the event engine fast-forwards laminar flow and must flag spans.
  std::size_t cycle_ff = 0, event_ff = 0;
  for (const TraceEvent& ev : cycle.events)
    cycle_ff += (ev.flags & kFastForwarded) != 0 ? 1u : 0u;
  for (const TraceEvent& ev : event.events)
    event_ff += (ev.flags & kFastForwarded) != 0 ? 1u : 0u;
  EXPECT_EQ(cycle_ff, 0u);
  EXPECT_GT(event_ff, 0u);
  EXPECT_FALSE(diff_traces(cycle.events, event.events, false).identical);
}

TEST(TraceDeterminism, TracingDoesNotPerturbResults) {
  const cli::CliOptions opt = fig2_options();
  std::ostringstream plain, err;
  ASSERT_EQ(cli::run_cli(opt, plain, err), 0);

  TempPath tmp("onoff");
  std::string traced_out;
  (void)run_traced(opt, tmp.path, &traced_out);
  // Identical stdout except the trailing "trace:" status line.
  const std::size_t cut = traced_out.find("trace:   ");
  ASSERT_NE(cut, std::string::npos);
  EXPECT_EQ(traced_out.substr(0, cut), plain.str());
}

TEST(TraceDeterminism, StreamTraceRecordsSlotLifecycle) {
  cli::CliOptions opt;
  opt.topology = "mesh:8";
  opt.algorithm = "opt-mesh";
  opt.source = 0;
  opt.dests = "1,2,3,9,10,11";
  opt.stream = 8;
  TempPath tmp("stream");
  opt.trace = tmp.path;
  std::ostringstream os, err;
  ASSERT_EQ(cli::run_cli(opt, os, err), 0);
  std::ifstream f(tmp.path, std::ios::binary);
  const TraceFile tf = read_binary_trace(f);
  std::size_t injects = 0, commits = 0;
  for (const TraceEvent& ev : tf.events) {
    if (ev.event_kind() == EventKind::kSlotInject) ++injects;
    if (ev.event_kind() == EventKind::kSlotCommit) ++commits;
  }
  EXPECT_EQ(injects, 8u);
  EXPECT_EQ(commits, 8u);
}

// --- the auditor replays the flight recorder -------------------------------

TEST(TraceAudit, AuditedOneShotRunNeverWrapsItsRing) {
  // ~96 k events in one fault run: more than a per-run ring
  // (kRunRingCapacity) holds, so an unaudited trace would lose its start.
  // An audited run records unbounded and exports every event.
  cli::CliOptions opt;
  opt.topology = "mesh:16";
  opt.algorithm = "opt-tree";
  opt.nodes = 256;
  opt.bytes = 8192;
  opt.reps = 1;
  opt.faults = "drop:0.002;seed:1";
  opt.allow_partial = true;
  opt.audit = true;
  TempPath tmp("audit_nowrap");
  std::string out;
  const TraceFile tf = run_traced(opt, tmp.path, &out);
  EXPECT_EQ(tf.dropped, 0u);
  EXPECT_GT(tf.events.size(), kRunRingCapacity);
  EXPECT_EQ(out.find("dropped by ring wrap"), std::string::npos) << out;
}

TEST(TraceAudit, PostMortemAuditFromAFileMatchesTheInMemoryAudit) {
  // A mid-stream source kill under failover, traced by pcmcast --audit
  // --trace; the same stream rerun in-process gives the StreamResult.
  // audit_stream over the file's events must reach the in-memory verdict:
  // clean for the real result, the same violation for a doctored one.
  cli::CliOptions opt;
  opt.topology = "mesh:8";
  opt.source = 0;
  opt.dests = "9,18,27,36";
  opt.bytes = 256;
  opt.stream = 24;
  opt.window = 4;
  opt.heartbeat = 600;
  opt.failover = true;
  opt.faults = "node:0@5000";
  opt.audit = true;
  TempPath tmp("postmortem");
  const TraceFile tf = run_traced(opt, tmp.path);
  ASSERT_EQ(tf.dropped, 0u);

  const auto topo = cli::make_topology(opt.topology);
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  rt::StreamConfig scfg;
  scfg.window_size = opt.window;
  scfg.slots = opt.stream;
  scfg.bytes = opt.bytes;
  scfg.shape = cli::mesh_shape_of(*topo);
  scfg.reliable = true;
  scfg.membership.heartbeat_period = opt.heartbeat;
  scfg.failover = true;
  FlightRecorder rec(RecorderConfig{kUnbounded});
  scfg.recorder = &rec;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(sim::FaultPlan::parse(opt.faults));
  const std::vector<NodeId> dests = {9, 18, 27, 36};
  rt::StreamResult res = rt::StreamRuntime(rtm).run(sim, 0, dests, scfg);
  ASSERT_EQ(res.failovers, 1);

  // The file carries the run marker and the simulator's events as well;
  // its protocol events are exactly the in-memory recorder's.
  std::vector<TraceEvent> protocol;
  for (const TraceEvent& ev : tf.events)
    if (ev.kind >= static_cast<std::uint16_t>(EventKind::kSendAttempt) &&
        ev.kind <= static_cast<std::uint16_t>(EventKind::kHealed))
      protocol.push_back(ev);
  EXPECT_EQ(protocol, rec.snapshot());

  using verify::InvariantAuditor;
  EXPECT_NO_THROW(InvariantAuditor::audit_stream(res, rec.snapshot(), 0));
  EXPECT_NO_THROW(InvariantAuditor::audit_stream(res, tf.events, tf.dropped));
  ++res.stale_acks;
  auto verdict = [&](std::span<const TraceEvent> events) {
    try {
      InvariantAuditor::audit_stream(res, events, 0);
    } catch (const verify::InvariantViolation& v) {
      return std::string(v.what());
    }
    return std::string("clean");
  };
  const std::string in_memory = verdict(rec.snapshot());
  EXPECT_NE(in_memory.find("stale-ack count"), std::string::npos) << in_memory;
  EXPECT_EQ(verdict(tf.events), in_memory);
}

}  // namespace
}  // namespace pcm::obs
