// Tests for the flight recorder (src/obs): ring semantics, serialization
// round-trips, metric derivation, and the end-to-end determinism
// contracts the subsystem exists to enforce — byte-identical traces at
// any --jobs value and on either engine, zero behavioural change when
// tracing is off, and audits that replay a recorded trace (never a
// wrapped one), from memory or a file.  The pcmtrace binary's flag
// contract closes the file.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "cli/options.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "verify/invariant_auditor.hpp"
#include "verify/run.hpp"

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

TEST(Recorder, EventsReadInPlaceUntilTheRingWraps) {
  // The audit replays events() instead of a snapshot() copy: the same
  // records, oldest first, without a copy until the ring wraps.
  FlightRecorder rec(RecorderConfig{4});
  std::vector<TraceEvent> copy;
  for (int i = 0; i < 7; ++i) {
    rec.record(EventKind::kPost, i, i);
    const std::span<const TraceEvent> evs = rec.events(copy);
    const std::vector<TraceEvent> want = rec.snapshot();
    ASSERT_EQ(evs.size(), want.size());
    for (std::size_t k = 0; k < evs.size(); ++k) EXPECT_EQ(evs[k].a, want[k].a) << i;
    EXPECT_EQ(copy.empty(), i < 4) << "copied at record " << i;
  }
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
  evs.back().flags = 1;  // reserved, always written as 0; old traces set it
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
  EXPECT_TRUE(diff_traces(a, b).identical);

  // Any payload difference diverges at its record.
  b[1].d = 5;
  EXPECT_FALSE(diff_traces(a, b).identical);
  EXPECT_EQ(diff_traces(a, b).first_divergence, 1u);

  // Length mismatches diverge at the shorter length.
  b = a;
  b.pop_back();
  const TraceDiff d = diff_traces(a, b);
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
  MetricsRegistry reg;
  populate_metrics(evs, reg);
  const std::vector<MetricSample> rows = reg.snapshot();
  auto value_of = [&](const std::string& name) -> std::string {
    for (const MetricSample& s : rows)
      if (s.name == name) return s.value;
    return "<missing>";
  };
  EXPECT_EQ(value_of("events.reserve"), "1");
  EXPECT_EQ(value_of("hist.span_cycles.count"), "1");
  EXPECT_EQ(value_of("hist.retry_depth.count"), "2");
  // One retry (attempt index 1) lands in the [1,2) bucket.
  EXPECT_EQ(value_of("hist.retry_depth[1,2)"), "1");
}

// --- end-to-end determinism contracts -------------------------------------

/// A temporary file named after the process, the running test and
/// `stem`, so concurrent test processes never share one.
struct TempPath {
  explicit TempPath(const std::string& stem) {
    std::string test = testing::UnitTest::GetInstance()->current_test_info()->name();
    std::ranges::replace(test, '/', '_');  // parameterized names hold '/'
    path = (std::filesystem::temp_directory_path() /
            ("pcm_obs_" + std::to_string(getpid()) + "_" + test + "_" + stem + ".pcmt"))
               .string();
  }
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
  EXPECT_TRUE(diff_traces(tf.events, again.events).identical);
}

TEST(TraceDeterminism, JobsFanOutIsByteIdentical) {
  cli::CliOptions opt = fig2_options();
  opt.reps = 4;
  TempPath t1("jobs1"), t4("jobs4");
  opt.jobs = 1;
  const TraceFile a = run_traced(opt, t1.path);
  opt.jobs = 4;
  const TraceFile b = run_traced(opt, t4.path);
  const TraceDiff d = diff_traces(a.events, b.events);
  EXPECT_TRUE(d.identical) << d.detail;
}

/// pcmcast workloads both engines must trace byte-identically: one-shot,
/// streams (plain and audited under a partition blip), a fault plan, and
/// the collectives.
cli::CliOptions engine_workload(const std::string& name) {
  if (name == "fig2") return fig2_options();
  cli::CliOptions opt;
  opt.topology = "mesh:8";
  opt.bytes = 256;
  if (name == "reduce" || name == "barrier") {
    opt.collective = name;
    opt.nodes = 6;
    opt.reps = 2;
    opt.jobs = 1;
  } else if (name == "drop_oneshot") {
    opt.source = 0;
    opt.dests = "1,2,3";
    opt.faults = "drop:0.01;seed:4";
  } else if (name == "stream_window4") {
    opt.source = 0;
    opt.dests = "9,18,27";
    opt.stream = 16;
    opt.window = 4;
  } else if (name == "stream_blip_audit") {
    opt.topology = "mesh:4";
    opt.source = 0;
    opt.dests = "5,10,15";
    opt.stream = 12;
    opt.window = 4;
    opt.heartbeat = 800;
    opt.faults = "partition:4,1|5,1|6,1|7,1@1500;heal:4,1|5,1|6,1|7,1@2300";
    opt.audit = true;
  }
  return opt;
}

class TraceEngines : public testing::TestWithParam<std::string> {};

TEST_P(TraceEngines, CycleVsEventByteIdentical) {
  // Same trace file, stdout and (empty) stderr on either engine: the
  // event engine's clock jumps are not observables.
  cli::CliOptions opt = engine_workload(GetParam());
  TempPath tmp("engines_" + GetParam());
  opt.trace = tmp.path;
  std::string trace[2], out[2], err[2];
  for (int i = 0; i < 2; ++i) {
    opt.engine = i == 0 ? sim::EngineKind::kCycle : sim::EngineKind::kEvent;
    std::ostringstream os, es;
    EXPECT_EQ(cli::run_cli(opt, os, es), 0) << os.str() << es.str();
    out[i] = os.str();
    err[i] = es.str();
    std::ifstream f(tmp.path, std::ios::binary);
    trace[i].assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  }
  std::istringstream cycle_bytes(trace[0]), event_bytes(trace[1]);
  const TraceFile cycle = read_binary_trace(cycle_bytes);
  const TraceFile event = read_binary_trace(event_bytes);
  EXPECT_GT(cycle.events.size(), 1u);
  const TraceDiff d = diff_traces(cycle.events, event.events);
  EXPECT_TRUE(d.identical) << d.detail;
  EXPECT_TRUE(trace[0] == trace[1]) << "PCMT bytes differ";
  EXPECT_EQ(out[0], out[1]);
  EXPECT_EQ(err[1], "");
}

INSTANTIATE_TEST_SUITE_P(Workloads, TraceEngines,
                         testing::Values("fig2", "stream_window4",
                                         "stream_blip_audit", "drop_oneshot",
                                         "reduce", "barrier"),
                         [](const auto& p) { return p.param; });

TEST(TraceDeterminism, TracingDoesNotPerturbResults) {
  // Identical stdout with and without --trace, except the trace's own
  // "trace:" status line: on fig2, and under --audit (which replays the
  // same recording either way) on a violating sweep and a clean fault
  // run, serial and fanned out.
  const std::pair<int, std::vector<std::string>> cases[] = {
      {0, {"--topology", "mesh:8", "--algorithm", "opt-mesh", "--nodes", "16", "--reps", "2"}},
      {3, {"--reps", "8", "--seed", "7", "--shuffle-chain", "--audit"}},
      {0, {"--topology", "mesh:8", "--nodes", "8", "--bytes", "512", "--reps", "2",
           "--faults", "node:3@300;drop:0.001;seed:1", "--audit", "--gantt", "--probe",
           "--engine", "event"}}};
  auto report = [](std::vector<std::string> args, int exit_code) {
    const std::vector<std::string_view> views(args.begin(), args.end());
    std::ostringstream os, err;
    EXPECT_EQ(cli::run_cli(cli::parse_args(views), os, err), exit_code);
    std::string out;
    std::istringstream in(os.str());
    for (std::string line; std::getline(in, line);)
      if (!line.starts_with("trace:")) out += line + "\n";
    return out;
  };
  for (const auto& [exit_code, args] : cases) {
    for (const char* jobs : {"1", "3"}) {
      SCOPED_TRACE(args[1] + " --jobs " + jobs);
      std::vector<std::string> run = args;
      run.insert(run.end(), {"--jobs", jobs});
      const std::string plain = report(run, exit_code);
      TempPath tmp(std::string("jobs") + jobs);
      run.insert(run.end(), {"--trace", tmp.path});
      EXPECT_EQ(report(run, exit_code), plain);
    }
  }
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
  // ~98 k events in one fault run: more than a per-run ring
  // (kRunRingCapacity) holds, so an unaudited trace would lose its start.
  // An audited run records unbounded and exports every event.
  cli::CliOptions opt;
  opt.topology = "mesh:40";
  opt.algorithm = "opt-tree";
  opt.nodes = 1600;
  opt.bytes = 256;
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

/// "clean" when `audit` passes, else its violation's what().
std::string verdict_of(const std::function<void()>& audit) {
  try {
    audit();
  } catch (const verify::InvariantViolation& v) {
    return v.what();
  }
  return "clean";
}

/// Audits `run` on `topology` in-process through run_placement into an
/// unbounded ring, then writes the ring to a PCMT file and reads it back.
/// The run and the channel replay of the ring and of the file with `cfg`
/// all reach `verdict` ("clean" or what()).  Returns the file's records
/// and the run's result.
std::pair<std::vector<TraceEvent>, verify::PlacementResult> expect_file_equals_memory(
    const std::string& topology, verify::PlacementRun run, const verify::AuditConfig& cfg,
    const std::string& verdict) {
  const auto topo = cli::make_topology(topology);
  sim::Simulator sim(*topo);
  FlightRecorder ring(RecorderConfig{kUnbounded});
  run.shape = cli::mesh_shape_of(*topo);
  run.audit = true;
  run.trace = &ring;
  verify::PlacementResult res;
  EXPECT_EQ(verdict_of([&] {
              verify::run_placement(rt::MulticastRuntime{rt::RuntimeConfig{}}, sim, run, res);
            }),
            verdict);
  TempPath tmp("replay");
  write_trace(tmp.path, ring.snapshot(), ring.events_dropped());
  std::ifstream f(tmp.path, std::ios::binary);
  const TraceFile tf = read_binary_trace(f);
  const verify::InvariantAuditor auditor(*topo, cfg);
  for (const std::vector<TraceEvent>& events : {ring.snapshot(), tf.events})
    EXPECT_EQ(verdict_of([&] {
                auditor.audit_run(events, tf.dropped, sim.stats(), sim.idle(), sim.now());
              }),
              verdict);
  return {tf.events, res};
}

TEST(TraceAudit, PostMortemAuditFromAFileMatchesTheInMemoryAudit) {
  // A mid-stream source kill under failover, traced by pcmcast --audit
  // --trace and rerun in-process (audited into a ring).  The file holds
  // the ring's records after its run marker, and audit_stream over the
  // file must reach the in-memory verdict: clean for the real result,
  // the same violation for a doctored one.
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

  const sim::FaultPlan plan = sim::FaultPlan::parse(opt.faults);
  const std::vector<NodeId> dests = {9, 18, 27, 36};
  verify::PlacementRun run;
  run.dests = dests;
  run.bytes = opt.bytes;
  run.slots = opt.stream;
  run.window = opt.window;
  run.heartbeat = opt.heartbeat;
  run.failover = true;
  run.plan = &plan;
  verify::AuditConfig cfg;
  cfg.plan_known = true;
  cfg.plan = plan;
  auto [ring, placed] = expect_file_equals_memory(opt.topology, run, cfg, "clean");
  rt::StreamResult& res = placed.stream;
  ASSERT_EQ(res.failovers, 1);
  ASSERT_FALSE(tf.events.empty());
  EXPECT_EQ(std::vector<TraceEvent>(tf.events.begin() + 1, tf.events.end()), ring);

  auto verdict = [&](std::span<const TraceEvent> events) {
    return verdict_of([&] { verify::InvariantAuditor::audit_stream(res, events, 0); });
  };
  EXPECT_EQ(verdict(ring), "clean");
  EXPECT_EQ(verdict(tf.events), "clean");
  ++res.stale_acks;
  const std::string in_memory = verdict(ring);
  EXPECT_NE(in_memory.find("stale-ack count"), std::string::npos) << in_memory;
  EXPECT_EQ(verdict(tf.events), in_memory);
}

TEST(TraceAudit, ChannelReplayOfAFileMatchesTheInMemoryReplay) {
  // The shuffled-chain violation: msg 18 waits at cycle 5206 and is
  // granted at 5319, so the replay counts 113 blocked cycles.
  const analysis::Placement p = analysis::sample_placements(7, 256, 32, 1)[0];
  verify::PlacementRun run;
  run.source = p.source;
  run.dests = p.dests;
  run.bytes = 4096;
  run.shuffle_chain = true;
  run.shuffle_seed = 7;
  verify::AuditConfig strict;
  strict.require_contention_free = true;
  expect_file_equals_memory(
      "mesh:16", run, strict,
      "invariant violation [contention-freedom]: delivered message was head-blocked "
      "113 cycles on a provably contention-free schedule (cycle 5581, msg 18)");

  // A clean fault run: node 3 dies under a 20 % drop rate, so the trace
  // holds purges of its worms and flit-fault drops.
  const sim::FaultPlan plan = sim::FaultPlan::parse("node:3@300;drop:0.2;seed:1");
  const std::vector<NodeId> dests = {1, 2, 3, 9, 10, 11, 18, 19, 20, 27, 36, 45};
  run = verify::PlacementRun{};
  run.dests = dests;
  run.bytes = 512;
  run.plan = &plan;
  verify::AuditConfig cfg;
  cfg.plan_known = true;
  cfg.plan = plan;
  const std::vector<TraceEvent> events =
      expect_file_equals_memory("mesh:8", run, cfg, "clean").first;
  for (const sim::DropReason why : {sim::DropReason::kNodeDead, sim::DropReason::kFlitFault})
    EXPECT_TRUE(std::ranges::any_of(events, [&](const TraceEvent& ev) {
      return ev.event_kind() == EventKind::kDrop && ev.b == static_cast<int>(why);
    })) << sim::drop_reason_name(why);

  // Doctored records: a held channel reserved again, a delivery of an id
  // never posted, and a file that lost records to ring wrap (refused,
  // never audited).
  const auto topo = cli::make_topology("mesh:8");
  const verify::InvariantAuditor auditor(*topo, cfg);
  std::vector<TraceEvent> doctored = events;
  const auto first = std::ranges::find_if(
      doctored, [](const TraceEvent& ev) { return ev.event_kind() == EventKind::kReserve; });
  ASSERT_NE(first, doctored.end());
  doctored.insert(first + 1, *first);
  EXPECT_TRUE(verdict_of([&] { auditor.audit_partial(doctored, 0); })
                  .starts_with("invariant violation [channel-exclusivity]: mesh"));
  doctored = events;
  const auto posts =
      std::ranges::count(events, static_cast<std::uint16_t>(EventKind::kPost), &TraceEvent::kind);
  doctored.push_back(make_event(EventKind::kDeliver, 0, static_cast<std::int32_t>(posts)));
  EXPECT_TRUE(verdict_of([&] { auditor.audit_partial(doctored, 0); })
                  .starts_with("invariant violation [phantom-delivery]: delivery for a "
                               "message never posted"));
  std::stringstream wrapped;
  write_binary_trace(wrapped, events, 1);
  const TraceFile tf = read_binary_trace(wrapped);
  EXPECT_THROW(auditor.audit_partial(tf.events, tf.dropped), std::invalid_argument);
}

// --- pcmtrace's flag contract ----------------------------------------------

struct ToolRun {
  int exit_code = -1;
  std::string out;
};

/// Runs the pcmtrace binary with `args`; stderr is discarded.
ToolRun pcmtrace(const std::string& args) {
  TempPath out("pcmtrace_stdout");
  const int status = std::system(
      (std::string(PCMTRACE_BIN) + " " + args + " >" + out.path + " 2>/dev/null").c_str());
  std::ifstream f(out.path);
  ToolRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out.assign(std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>());
  return run;
}

std::size_t event_lines(const std::string& dump) {
  std::size_t n = 0;
  std::istringstream in(dump);
  for (std::string line; std::getline(in, line);) n += line.starts_with("[") ? 1 : 0;
  return n;
}

TEST(PcmtraceCli, IntegerFlagsAreRangeCheckedAndLimitIsExact) {
  TempPath tmp("pcmtrace_in");
  std::vector<TraceEvent> evs;
  for (int m = 0; m < 5; ++m) evs.push_back(make_event(EventKind::kPost, 10 * m, m));
  write_trace(tmp.path, evs, 0);
  const std::string dump = "dump " + tmp.path + " ";

  // Out-of-range or malformed integers are usage errors, never wrapped
  // (--msg 2^32 must not dump msg 0).
  for (const char* flags :
       {"--msg 4294967296", "--msg -1", "--channel 4294967296,4294967299",
        "--channel 0,-3", "--cycle-range -1:5", "--cycle-range 0:x",
        "--limit -1", "--limit 9223372036854775808"})
    EXPECT_EQ(pcmtrace(dump + flags).exit_code, 2) << flags;

  const ToolRun msg = pcmtrace(dump + "--msg 3");
  EXPECT_EQ(msg.exit_code, 0);
  EXPECT_EQ(event_lines(msg.out), 1u) << msg.out;
  EXPECT_EQ(event_lines(pcmtrace(dump + "--cycle-range 10:30").out), 3u);
  // --limit N prints exactly N events, and says so only when it cut some.
  for (const std::size_t limit : {0u, 1u, 5u, 6u}) {
    const ToolRun run = pcmtrace(dump + "--limit " + std::to_string(limit));
    EXPECT_EQ(run.exit_code, 0);
    EXPECT_EQ(event_lines(run.out), std::min<std::size_t>(limit, 5)) << run.out;
    EXPECT_EQ(run.out.find("reached") != std::string::npos, limit < 5) << run.out;
  }
}

TEST(PcmtraceCli, ChannelFilterKeepsOnlyReservesAndReleases) {
  // --channel R,P names output port P of router R.  A wait (or an older
  // trace's blocked record) at router R names input port P, so the filter
  // leaves it out; --msg still finds it.
  TempPath tmp("pcmtrace_channel");
  const std::vector<TraceEvent> evs = {
      make_event(EventKind::kWait, 5, 3, 0, 7), make_event(EventKind::kBlocked, 5, 3, 0, 7),
      make_event(EventKind::kReserve, 9, 3, 0, 7),
      make_event(EventKind::kRelease, 20, 3, 0, 7, 11)};
  write_trace(tmp.path, evs, 0);
  const ToolRun run = pcmtrace("dump " + tmp.path + " --channel 3,0");
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(event_lines(run.out), 2u) << run.out;
  EXPECT_NE(run.out.find("] reserve a=3 b=0 c=7"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("] release a=3 b=0 c=7"), std::string::npos) << run.out;
  EXPECT_EQ(event_lines(pcmtrace("dump " + tmp.path + " --msg 7").out), 4u);
}

TEST(PcmtraceCli, CommandsRejectFlagsTheyDoNotTake) {
  // dump takes --msg/--channel/--cycle-range/--limit, stats takes --json,
  // diff takes no flags; any other flag is a usage error, and a value
  // never starts with "--".
  TempPath tmp("pcmtrace_flags");
  const std::vector<TraceEvent> evs = {make_event(EventKind::kPost, 10, 0)};
  write_trace(tmp.path, evs, 0);
  const std::string& f = tmp.path;
  TempPath json("pcmtrace_flags_json");
  for (const std::string& args :
       {"dump " + f + " --json " + json.path, "diff " + f + " " + f + " --msg 3",
        "stats " + f + " --cycle-range 0:5", "stats " + f + " --limit 1",
        "diff " + f + " " + f + " --json " + json.path, "stats " + f + " --json --limit"})
    EXPECT_EQ(pcmtrace(args).exit_code, 2) << args;
  EXPECT_FALSE(std::filesystem::exists(json.path));
  EXPECT_EQ(pcmtrace("dump " + f + " --msg 0 --channel 1,2 --cycle-range 0:5 --limit 1")
                .exit_code,
            0);
  EXPECT_EQ(pcmtrace("diff " + f + " " + f).exit_code, 0);
  EXPECT_EQ(pcmtrace("stats " + f + " --json " + json.path).exit_code, 0);
  EXPECT_TRUE(std::filesystem::exists(json.path));
}

}  // namespace
}  // namespace pcm::obs
