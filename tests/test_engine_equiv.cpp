// Engine-equivalence suite: the hybrid event-driven kernel
// (SimConfig::engine = kEvent) must be bit-identical to the cycle-driven
// reference engine on every observable — SimStats fields, per-message
// timestamps, the full observer callback sequence, run status, and
// watchdog reports.  Scenarios cover the PR-1/PR-3 golden workloads
// (contended OPT trees exercise mid-run materialization), a seeded
// randomized sweep over mesh and BMIN, single-flit and deep-pipeline
// router delays, fault-plan fallback, truncation + resume, and the
// deadlocked-ring watchdog regression from the fast-forward accounting
// fix.  The last section holds the cycle engine's steady-state leap to a
// one-cycle-at-a-time reference on contended trees, deep pipelines,
// small and large buffers, two-port NIs, fault plans and cut horizons,
// down to the flight recorder's bytes.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

namespace pcm::sim {
namespace {

/// Records every observer callback as one line, in commit order.  Two
/// engines are stream-equivalent iff the recorded logs match verbatim.
class RecordingObserver final : public SimObserver {
 public:
  void on_post(const Message& m, Time t) override {
    line() << "post " << m.id << " @" << t;
  }
  void on_deliver(const Message& m, Time t) override {
    line() << "deliver " << m.id << " @" << t << " blk=" << m.block_cycles;
  }
  void on_reserve(int r, int q, MsgId msg, Time t) override {
    line() << "reserve " << r << ":" << q << " m" << msg << " @" << t;
  }
  void on_release(int r, int q, MsgId msg, Time t) override {
    line() << "release " << r << ":" << q << " m" << msg << " @" << t;
  }
  void on_blocked(int r, int p, MsgId msg, Time t) override {
    line() << "blocked " << r << ":" << p << " m" << msg << " @" << t;
  }
  void on_drop(MsgId msg, DropReason reason, Time t) override {
    line() << "drop m" << msg << " r" << static_cast<int>(reason) << " @" << t;
  }
  void on_fault_event(Time t) override { line() << "fault @" << t; }
  void on_watchdog(const WatchdogReport& rep) override {
    line() << "watchdog @" << rep.cycle << " stalled=" << rep.stalled_cycles;
  }

  [[nodiscard]] std::string text() const { return os_.str(); }

 private:
  std::ostringstream& line() {
    os_ << '\n';
    return os_;
  }
  std::ostringstream os_;
};

struct RunCapture {
  SimStats stats;
  RunStatus status = RunStatus::kCompleted;
  Time cycles = 0;
  std::string events;
  std::vector<Message> messages;
  std::string stall;
};

/// Runs `drive` on a fresh simulator under `engine` and captures every
/// observable.  `drive` posts traffic and calls run_until_idle itself.
RunCapture capture(const Topology& topo, SimConfig cfg, EngineKind engine,
                   const std::function<void(Simulator&)>& drive,
                   bool take_stall_report = false) {
  cfg.engine = engine;
  Simulator sim(topo, cfg);
  RecordingObserver obs;
  sim.set_observer(&obs);
  drive(sim);
  RunCapture cap;
  cap.stats = sim.stats();
  cap.status = sim.run_status();
  cap.cycles = sim.now();
  cap.events = obs.text();
  cap.messages = sim.messages().all();
  if (take_stall_report) cap.stall = sim.stall_report().to_string();
  return cap;
}

/// Equal event logs; on a mismatch reports the first differing line
/// rather than gtest's full diff, which is quadratic on long logs.
void expect_same_log(const std::string& a, const std::string& b) {
  if (a == b) return;
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  const std::size_t line = i == 0 ? 0 : a.rfind('\n', i - 1);
  const std::size_t from = line == std::string::npos ? 0 : line;
  ADD_FAILURE() << "event logs differ at byte " << i << " (sizes " << a.size()
                << " vs " << b.size() << "):\n  want:" << a.substr(from, 160)
                << "\n  got: " << b.substr(from, 160);
}

void expect_equivalent(const RunCapture& cyc, const RunCapture& evt) {
  EXPECT_EQ(cyc.stats.cycles, evt.stats.cycles);
  EXPECT_EQ(cyc.stats.flit_hops, evt.stats.flit_hops);
  EXPECT_EQ(cyc.stats.channel_conflicts, evt.stats.channel_conflicts);
  EXPECT_EQ(cyc.stats.messages_delivered, evt.stats.messages_delivered);
  EXPECT_EQ(cyc.stats.max_inflight_flits, evt.stats.max_inflight_flits);
  EXPECT_EQ(cyc.stats.messages_dropped, evt.stats.messages_dropped);
  EXPECT_EQ(cyc.stats.messages_corrupted, evt.stats.messages_corrupted);
  EXPECT_EQ(cyc.stats.fault_events, evt.stats.fault_events);
  EXPECT_EQ(cyc.stats.undelivered, evt.stats.undelivered);
  EXPECT_EQ(cyc.stats.watchdog_fired, evt.stats.watchdog_fired);
  EXPECT_EQ(cyc.status, evt.status);
  EXPECT_EQ(cyc.cycles, evt.cycles);
  expect_same_log(cyc.events, evt.events);
  EXPECT_EQ(cyc.stall, evt.stall);
  ASSERT_EQ(cyc.messages.size(), evt.messages.size());
  for (std::size_t i = 0; i < cyc.messages.size(); ++i) {
    const Message& a = cyc.messages[i];
    const Message& b = evt.messages[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.src, b.src) << "msg " << a.id;
    EXPECT_EQ(a.dst, b.dst) << "msg " << a.id;
    EXPECT_EQ(a.flits, b.flits) << "msg " << a.id;
    EXPECT_EQ(a.ready_time, b.ready_time) << "msg " << a.id;
    EXPECT_EQ(a.tag, b.tag) << "msg " << a.id;
    EXPECT_EQ(a.inject_start, b.inject_start) << "msg " << a.id;
    EXPECT_EQ(a.inject_done, b.inject_done) << "msg " << a.id;
    EXPECT_EQ(a.delivered, b.delivered) << "msg " << a.id;
    EXPECT_EQ(a.block_cycles, b.block_cycles) << "msg " << a.id;
    EXPECT_EQ(a.dropped, b.dropped) << "msg " << a.id;
    EXPECT_EQ(a.drop_reason, b.drop_reason) << "msg " << a.id;
    EXPECT_EQ(a.corrupted, b.corrupted) << "msg " << a.id;
  }
}

void run_both(const Topology& topo, SimConfig cfg,
              const std::function<void(Simulator&)>& drive,
              bool take_stall_report = false) {
  const RunCapture cyc =
      capture(topo, cfg, EngineKind::kCycle, drive, take_stall_report);
  const RunCapture evt =
      capture(topo, cfg, EngineKind::kEvent, drive, take_stall_report);
  expect_equivalent(cyc, evt);
}

Message mk(NodeId src, NodeId dst, int flits, Time ready = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.flits = flits;
  m.ready_time = ready;
  return m;
}

// --- golden workloads (the PR-1/PR-3 regression scenarios) -------------

TEST(EngineEquiv, GoldenMeshOptTreeContended) {
  // Contended: heads lose arbitration mid-run, forcing the event engine
  // to materialize and replay — the hardest hand-off path.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];
  run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source, p.dests, 4096,
                      &topo->shape());
  });
}

TEST(EngineEquiv, GoldenMeshOptMeshContentionFree) {
  // Theorem-1 schedule: zero conflicts, so the event engine should stay
  // laminar end-to-end.  The golden numbers pin both engines.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];
  const auto drive = [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                      &topo->shape());
  };
  const RunCapture cyc = capture(*topo, SimConfig{}, EngineKind::kCycle, drive);
  const RunCapture evt = capture(*topo, SimConfig{}, EngineKind::kEvent, drive);
  expect_equivalent(cyc, evt);
  EXPECT_EQ(evt.stats.cycles, 5588);
  EXPECT_EQ(evt.stats.flit_hops, 67620);
  EXPECT_EQ(evt.stats.channel_conflicts, 0);
  EXPECT_EQ(evt.stats.messages_delivered, 31);
  EXPECT_EQ(evt.stats.max_inflight_flits, 67);
}

TEST(EngineEquiv, GoldenBminAdaptiveOptTree) {
  const auto topo = bmin::make_bmin(64, bmin::UpPolicy::kAdaptive);
  const auto p = analysis::sample_placements(9, 64, 16, 1)[0];
  run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source, p.dests, 1024);
  });
}

TEST(EngineEquiv, GoldenMeshCrossTraffic) {
  const auto topo = mesh::make_mesh2d(4);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 12; ++i) {
      if (i == 15 - i) continue;
      sim.post(mk(i, 15 - i, 24 + i, i * 3));
    }
    sim.run_until_idle();
  });
}

// --- randomized seeded sweep (deterministic regardless of --jobs) ------

void random_traffic(Simulator& sim, int nodes, int count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(0, nodes - 1);
  std::uniform_int_distribution<int> flits(1, 40);
  std::uniform_int_distribution<int> ready(0, 300);
  for (int i = 0; i < count; ++i) {
    const NodeId src = node(rng);
    NodeId dst = node(rng);
    if (dst == src) dst = (dst + 1) % nodes;
    sim.post(mk(src, dst, flits(rng), ready(rng)));
  }
  sim.run_until_idle();
}

TEST(EngineEquiv, RandomSweepMesh8) {
  const auto topo = mesh::make_mesh2d(8);
  for (unsigned seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed);
    run_both(*topo, SimConfig{}, [seed](Simulator& sim) {
      random_traffic(sim, 64, 48, seed);
    });
  }
}

TEST(EngineEquiv, RandomSweepBminAdaptive) {
  const auto topo = bmin::make_bmin(64, bmin::UpPolicy::kAdaptive);
  for (unsigned seed = 11; seed <= 14; ++seed) {
    SCOPED_TRACE(seed);
    run_both(*topo, SimConfig{}, [seed](Simulator& sim) {
      random_traffic(sim, 64, 48, seed);
    });
  }
}

TEST(EngineEquiv, RandomSweepDeepRouterDelay) {
  // router_delay > 1 stretches residency windows and the laminar closed
  // forms; fifo_capacity is auto-raised to delay + 1.
  const auto topo = mesh::make_mesh2d(8);
  SimConfig cfg;
  cfg.router_delay = 3;
  for (unsigned seed = 21; seed <= 23; ++seed) {
    SCOPED_TRACE(seed);
    run_both(*topo, cfg, [seed](Simulator& sim) {
      random_traffic(sim, 64, 32, seed);
    });
  }
}

TEST(EngineEquiv, SingleFlitMessages) {
  // F == 1: grant, release, delivery, and inject-done can all land on one
  // cycle — the same-cycle calendar drain paths.
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 30; ++i) sim.post(mk(i, 63 - i, 1, i % 7));
    sim.run_until_idle();
  });
}

TEST(EngineEquiv, BackToBackFromOneSource) {
  // Serialized sends from a single NI: the second worm chases the first
  // through the same channels one release behind (shared-FIFO case).
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 6; ++i) sim.post(mk(0, 63, 16, 0));
    sim.run_until_idle();
  });
}

// --- fault plans fall back to the reference engine ---------------------

TEST(EngineEquiv, FaultPlanFallsBackIdentically) {
  const auto topo = mesh::make_mesh2d(4);
  FaultPlan plan;
  plan.link_events.push_back(FaultPlan::LinkEvent{20, 5, 1, false});
  plan.node_events.push_back(FaultPlan::NodeEvent{40, 13});
  run_both(*topo, SimConfig{}, [&](Simulator& sim) {
    sim.set_fault_plan(plan);
    for (int i = 0; i < 12; ++i) {
      if (i == 15 - i) continue;
      sim.post(mk(i, 15 - i, 24 + i, i * 3));
    }
    sim.run_until_idle();
  });
}

// --- truncation, resume, forensic snapshots ----------------------------

TEST(EngineEquiv, TruncationMidFlightAndResume) {
  const auto topo = mesh::make_mesh2d(4);
  run_both(
      *topo, SimConfig{},
      [](Simulator& sim) {
        sim.post(mk(0, 15, 1000));
        sim.post(mk(5, 10, 400, 10));
        sim.run_until_idle(50);
        EXPECT_EQ(sim.run_status(), RunStatus::kTruncated);
        sim.run_until_idle();  // resume to completion
        EXPECT_EQ(sim.run_status(), RunStatus::kCompleted);
      },
      /*take_stall_report=*/true);
}

TEST(EngineEquiv, StallReportMidFlight) {
  // stall_report() while worms are event-resident must materialize and
  // show the same channel occupancy the cycle engine would.
  const auto topo = mesh::make_mesh2d(4);
  run_both(
      *topo, SimConfig{},
      [](Simulator& sim) {
        sim.post(mk(0, 15, 1000));
        sim.run_until_idle(60);
      },
      /*take_stall_report=*/true);
}

TEST(EngineEquiv, MultipleRunsReuseTheCalendar) {
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    sim.post(mk(0, 63, 32));
    sim.run_until_idle();
    sim.post(mk(63, 0, 32, sim.now() + 5));
    sim.post(mk(9, 54, 8, sim.now() + 5));
    sim.run_until_idle();
  });
}

TEST(EngineEquiv, DeliveryHandlersPostFollowUps) {
  // Handler-driven traffic (the runtime's pattern): follow-up posts made
  // from delivery callbacks enter the calendar after the commit point.
  const auto topo = mesh::make_mesh2d(8);
  run_both(*topo, SimConfig{}, [](Simulator& sim) {
    int hops = 0;
    sim.set_delivery_handler([&](const Message& m) {
      if (hops >= 5) return;
      ++hops;
      sim.post(mk(m.dst, (m.dst + 17) % 64, 12, sim.now() + 3));
    });
    sim.post(mk(0, 21, 12));
    sim.run_until_idle();
  });
}

// --- watchdog: the deadlocked-ring regression (satellite fix) ----------

// Two routers in a ring; traffic circulates and never ejects, so a long
// message wedges on its own wormhole reservation.
class RingTopology final : public Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 2; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] PortRef link(int router, int out_port) const override {
    if (out_port != 0) return {};
    return PortRef{1 - router, 0};
  }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{static_cast<int>(n), 1};
  }
  [[nodiscard]] NodeId ejector(int, int) const override { return kInvalidNode; }
  void route(int, int, NodeId, NodeId, std::vector<int>& c) const override {
    c.push_back(0);
  }
};

TEST(EngineEquiv, WatchdogRingWedgeIdenticalUnderBothEngines) {
  // The watchdog must count *stalled* cycles, not fast-forwarded spans:
  // the event engine materializes at the self-block and the replayed
  // cycle engine accumulates the identical stall count, so the thrown
  // report matches verbatim (cycle, stalled count, occupancy dump).
  RingTopology topo;
  SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 200;
  std::string what_by_engine[2];
  Time report_cycle[2] = {0, 0};
  Time report_stalled[2] = {0, 0};
  SimStats stats_by_engine[2];
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    cfg.engine = engine;
    Simulator sim(topo, cfg);
    sim.post(mk(0, 1, 32));
    const int idx = engine == EngineKind::kCycle ? 0 : 1;
    try {
      sim.run_until_idle();
      FAIL() << "expected watchdog to fire";
    } catch (const WatchdogError& e) {
      what_by_engine[idx] = e.what();
      report_cycle[idx] = e.report().cycle;
      report_stalled[idx] = e.report().stalled_cycles;
    }
    stats_by_engine[idx] = sim.stats();
  }
  EXPECT_EQ(what_by_engine[0], what_by_engine[1]);
  EXPECT_EQ(report_cycle[0], report_cycle[1]);
  EXPECT_EQ(report_stalled[0], report_stalled[1]);
  EXPECT_EQ(stats_by_engine[0].cycles, stats_by_engine[1].cycles);
  EXPECT_TRUE(stats_by_engine[1].watchdog_fired);
}

// --- steady-state leap vs the one-cycle reference ----------------------

/// The pre-leap cycle engine, without a switch: a horizon one cycle ahead
/// leaves leap() nothing to skip, so every call steps exactly one cycle
/// (after the usual fast-forward over a quiescent network).
void run_stepwise(Simulator& sim) {
  while (!sim.idle()) sim.run_until_idle(sim.now() + 1);
}

using Drain = std::function<void(Simulator&)>;

/// One run_until_idle().  The horizon only matters to a broken leap that
/// overshoots a tail and streams forever: it then stops, truncated, and
/// the comparison fails instead of hanging.
constexpr Time kLeapTestHorizon = 2000000;
void run_whole(Simulator& sim) { sim.run_until_idle(kLeapTestHorizon); }

struct LeapCapture {
  RunCapture run;
  std::string trace;  ///< FlightRecorder binary export
  long long leaps = 0;
  long long leaped_cycles = 0;
};

/// Runs `drive` (which posts traffic and drains with the Drain it is
/// given) under a flight recorder chained to the line recorder.
LeapCapture capture_leap(const Topology& topo, SimConfig cfg, EngineKind engine,
                         const std::function<void(Simulator&, const Drain&)>& drive,
                         const Drain& drain) {
  cfg.engine = engine;
  Simulator sim(topo, cfg);
  RecordingObserver lines;
  obs::FlightRecorder rec(obs::RecorderConfig{std::size_t{1} << 18});
  rec.chain(&lines);
  sim.set_observer(&rec);
  drive(sim, drain);
  LeapCapture cap;
  cap.run.stats = sim.stats();
  cap.run.status = sim.run_status();
  cap.run.cycles = sim.now();
  cap.run.events = lines.text();
  cap.run.messages = sim.messages().all();
  std::ostringstream bytes;
  obs::write_binary_trace(bytes, rec.snapshot(), rec.events_dropped());
  cap.trace = bytes.str();
  cap.leaps = sim.leaps();
  cap.leaped_cycles = sim.leaped_cycles();
  return cap;
}

/// Checks a single run_until_idle() — cycle engine, and event engine
/// handing over to it — against the stepped reference; returns the
/// cycle engine's leaped cycles so callers can insist the leap ran.
long long expect_leap_exact(
    const Topology& topo, SimConfig cfg,
    const std::function<void(Simulator&, const Drain&)>& drive,
    const Drain& whole = run_whole) {
  const LeapCapture ref =
      capture_leap(topo, cfg, EngineKind::kCycle, drive, run_stepwise);
  EXPECT_EQ(ref.leaps, 0);
  long long leaped = 0;
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    SCOPED_TRACE(engine == EngineKind::kCycle ? "cycle" : "event");
    const LeapCapture got = capture_leap(topo, cfg, engine, drive, whole);
    expect_equivalent(ref.run, got.run);
    if (engine == EngineKind::kCycle) {
      // Byte-equal traces need equal fast-forward flags, which differ
      // between engines by design (see SimObserver::on_fast_forward).
      EXPECT_TRUE(ref.trace == got.trace) << "flight recorder bytes differ";
      leaped = got.leaped_cycles;
    }
  }
  return leaped;
}

/// MulticastRuntime::run's schedule — posts, t_hold spacing per send
/// engine, receive-triggered activation — with the simulator drained by
/// `drain` instead of one run_until_idle().
void drive_tree(Simulator& sim, const Drain& drain, const MulticastTree& tree,
                Bytes payload, int engines) {
  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const MachineParams& mp = rtm.config().machine;
  std::vector<std::vector<Time>> next_op(
      static_cast<std::size_t>(tree.num_nodes()),
      std::vector<Time>(static_cast<std::size_t>(engines), 0));
  auto activate = [&](int pos, Time at) {
    auto& ops = next_op[static_cast<std::size_t>(pos)];
    for (Time& t : ops) t = std::max(t, at);
    std::size_t e = 0;
    for (const int idx : tree.out[static_cast<std::size_t>(pos)]) {
      const SendEvent& ev = tree.sends[static_cast<std::size_t>(idx)];
      const int interval = ev.sub_hi - ev.sub_lo + 1;
      Message m;
      m.src = tree.node(ev.sender_pos);
      m.dst = tree.node(ev.receiver_pos);
      m.flits = rtm.wire_flits(payload, interval);
      m.ready_time = ops[e] + mp.t_send(rtm.wire_bytes(payload, interval));
      m.tag = idx;
      sim.post(m);
      ops[e] += mp.t_hold(rtm.wire_bytes(payload, interval));
      e = (e + 1) % ops.size();
    }
  };
  sim.set_delivery_handler([&](const Message& m) {
    const SendEvent& ev = tree.sends.at(static_cast<std::size_t>(m.tag));
    const int interval = ev.sub_hi - ev.sub_lo + 1;
    activate(ev.receiver_pos,
             m.delivered + mp.t_recv(rtm.wire_bytes(payload, interval)));
  });
  activate(tree.chain.source_pos, sim.now());
  drain(sim);
  sim.set_delivery_handler(nullptr);
}

MulticastTree opt_tree(int nodes, int group, unsigned seed, Bytes payload) {
  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(seed, nodes, group, 1)[0];
  return build_multicast(McastAlgorithm::kOptTree, p.source, p.dests,
                         rtm.config().machine.two_param(rtm.wire_bytes(payload, 1)));
}

TEST(EngineLeap, ContendedOptTreeMesh16) {
  // Unsorted chains contend on the mesh: heads block behind streaming
  // worms, so every leap replays on_blocked in rotating-arbiter order.
  const auto topo = mesh::make_mesh2d(16);
  long long leaped = 0;
  long long conflicts = 0;
  for (const Bytes payload : {Bytes{4096}, Bytes{16384}, Bytes{65536}}) {
    SCOPED_TRACE(payload);
    const MulticastTree tree = opt_tree(256, 32, 5, payload);
    leaped += expect_leap_exact(*topo, SimConfig{}, [&](Simulator& sim, const Drain& d) {
      drive_tree(sim, d, tree, payload, 1);
      conflicts += sim.stats().channel_conflicts;
    });
  }
  EXPECT_GT(leaped, 0);
  EXPECT_GT(conflicts, 0);
}

TEST(EngineLeap, ContendedOptTreeBmin128) {
  const auto topo = bmin::make_bmin(128, bmin::UpPolicy::kAdaptive);
  long long leaped = 0;
  for (const Bytes payload : {Bytes{4096}, Bytes{65536}}) {
    SCOPED_TRACE(payload);
    const MulticastTree tree = opt_tree(128, 32, 9, payload);
    leaped += expect_leap_exact(*topo, SimConfig{}, [&](Simulator& sim, const Drain& d) {
      drive_tree(sim, d, tree, payload, 1);
    });
  }
  EXPECT_GT(leaped, 0);
}

TEST(EngineLeap, RouterDelayAndBufferDepthGrid) {
  // Deeper residency and small/large buffers change how many flits a
  // streaming FIFO holds (capacity is raised to router_delay + 1).
  const auto topo = mesh::make_mesh2d(16);
  const MulticastTree tree = opt_tree(256, 32, 5, 8192);
  for (const Time delay : {Time{1}, Time{2}, Time{3}}) {
    for (const int capacity : {2, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << "delay " << delay << " capacity " << capacity);
      SimConfig cfg;
      cfg.router_delay = delay;
      cfg.fifo_capacity = capacity;
      EXPECT_GT(expect_leap_exact(*topo, cfg,
                                  [&](Simulator& sim, const Drain& d) {
                                    drive_tree(sim, d, tree, 8192, 1);
                                  }),
                0);
    }
  }
}

TEST(EngineLeap, RandomMixedTrafficDeepPipelines) {
  // One- to three-flit messages among long worms: with router_delay >= 2
  // a head that arrived just before a quiet cycle is not yet eligible
  // and must stop the leap, since it arbitrates a cycle or two later.
  for (const int side : {3, 4}) {
    const auto topo = mesh::make_mesh2d(side);
    for (unsigned seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message() << "side " << side << " seed " << seed);
      SimConfig cfg;
      cfg.router_delay = 1 + seed % 3;
      cfg.fifo_capacity = 2 + static_cast<int>(seed / 3) % 6;
      expect_leap_exact(*topo, cfg, [&](Simulator& sim, const Drain& d) {
        std::mt19937 rng(seed);
        const int nodes = side * side;
        const int count = 10 + static_cast<int>(rng() % 40);
        for (int i = 0; i < count; ++i) {
          const NodeId src = static_cast<NodeId>(rng() % nodes);
          NodeId dst = static_cast<NodeId>(rng() % nodes);
          if (dst == src) dst = (dst + 1) % nodes;
          const unsigned kind = rng() % 3;
          const int flits = static_cast<int>(kind == 0   ? 1 + rng() % 3
                                             : kind == 1 ? 1 + rng() % 40
                                                         : 50 + rng() % 400);
          sim.post(mk(src, dst, flits, static_cast<Time>(rng() % 600)));
        }
        d(sim);
      });
    }
  }
}

TEST(EngineLeap, TwoPortNi) {
  // Two injection engines per node stream two worms out of one NI.
  mesh::MeshTopology topo(MeshShape::square2d(16), mesh::RouteOrder::kHighestFirst, 2);
  const MulticastTree tree = opt_tree(256, 32, 13, 16384);
  EXPECT_GT(expect_leap_exact(topo, SimConfig{},
                              [&](Simulator& sim, const Drain& d) {
                                drive_tree(sim, d, tree, 16384, 2);
                              }),
            0);
}

TEST(EngineLeap, HorizonCutsASpanAndResumes) {
  // The horizon lands mid-stream: the leap must stop exactly there, leave
  // the microstate the reference shows at that cycle, and resume.
  const auto topo = mesh::make_mesh2d(8);
  const auto drive = [](Simulator& sim, const Drain& d) {
    sim.post(mk(0, 63, 3000));
    sim.post(mk(7, 56, 2000, 40));
    d(sim);
  };
  std::string stall_at_cut;
  const auto cut = [&](Simulator& sim) {
    sim.run_until_idle(1234);
    EXPECT_EQ(sim.run_status(), RunStatus::kTruncated);
    EXPECT_EQ(sim.now(), 1234);
    stall_at_cut = sim.stall_report().to_string();
    sim.run_until_idle(kLeapTestHorizon);
  };
  EXPECT_GT(expect_leap_exact(*topo, SimConfig{}, drive, cut), 0);
  Simulator ref(*topo);
  ref.post(mk(0, 63, 3000));
  ref.post(mk(7, 56, 2000, 40));
  while (ref.now() < 1234) ref.run_until_idle(ref.now() + 1);
  EXPECT_EQ(ref.stall_report().to_string(), stall_at_cut);
}

TEST(EngineLeap, FaultsInsideSteadySpans) {
  // Long worms stream from cycle ~20 to ~3000; a node kill (900), a link
  // cut (1500) and its heal (2100) land between the short messages
  // posted every 200 cycles, in the middle of steady spans, and rate
  // drops hit the heads of the short messages.
  const auto topo = mesh::make_mesh2d(8);
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{900, 56});      // kills 7 -> 56
  plan.link_events.push_back(FaultPlan::LinkEvent{1500, 9, 1, false});
  plan.link_events.push_back(FaultPlan::LinkEvent{2100, 9, 1, true});
  plan.drop_rate = 0.05;
  plan.seed = 3;
  const auto drive = [&](Simulator& sim, const Drain& d) {
    sim.set_fault_plan(plan);
    sim.post(mk(0, 63, 3000));
    sim.post(mk(7, 56, 2500));
    sim.post(mk(8, 15, 2500));
    for (int i = 0; i < 12; ++i) sim.post(mk(16 + i, 47 - i, 30, 200 * i + 150));
    d(sim);
    EXPECT_EQ(sim.stats().fault_events, 3);
    EXPECT_EQ(sim.messages().at(1).dropped, 900);   // mid-stream, dest dead
    EXPECT_EQ(sim.messages().at(2).dropped, 1500);  // mid-stream, link cut
    EXPECT_GT(sim.stats().messages_dropped, 2);     // rate drops too
  };
  EXPECT_GT(expect_leap_exact(*topo, SimConfig{}, drive), 0);
}

}  // namespace
}  // namespace pcm::sim
