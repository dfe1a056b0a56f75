// Engine-equivalence suite: the hybrid event-driven kernel
// (SimConfig::engine = kEvent) must be bit-identical to the cycle-driven
// reference engine on every observable — SimStats fields, per-message
// timestamps, the full observer callback sequence, run status, and
// watchdog reports.  Scenarios cover the PR-1/PR-3 golden workloads
// (contended OPT trees exercise mid-run materialization), a seeded
// randomized sweep over mesh and BMIN, single-flit and deep-pipeline
// router delays, fault-plan fallback, truncation + resume, and the
// deadlocked-ring watchdog regression from the fast-forward accounting
// fix.  Runs without an observer let the event engine admit worms whole;
// those compare the delivery/drop handler log instead, and the engine
// counters prove which path ran: reliable streams with receiver kills,
// source failover and partitions, corrupt-rate plans, dead senders,
// horizon cuts, and collisions with admitted paths.  The last section
// holds the cycle engine's steady-state leap to a one-cycle-at-a-time
// reference on contended trees, deep pipelines, small and large buffers,
// two-port NIs, fault plans and cut horizons, down to the flight
// recorder's bytes on both engines.
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
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
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
  // Engine counters: which path the event engine took (not compared).
  long long admitted = 0;
  long long reentries = 0;
  long long event_cycles = 0;
  long long materialized[kMaterializationKinds] = {};
  [[nodiscard]] long long materializations(Materialization why) const {
    return materialized[static_cast<int>(why)];
  }
};

/// Runs `drive` on a fresh simulator under `engine` and captures every
/// observable.  `drive` posts traffic and calls run_until_idle itself.
/// With `observe` the log holds every observer callback; without, it
/// holds the delivery and drop handler calls (unless `drive` installs
/// its own handlers), and the event engine may admit worms whole.
RunCapture capture(const Topology& topo, SimConfig cfg, EngineKind engine,
                   const std::function<void(Simulator&)>& drive,
                   bool take_stall_report = false, bool observe = true) {
  cfg.engine = engine;
  Simulator sim(topo, cfg);
  RecordingObserver obs;
  if (observe) {
    sim.set_observer(&obs);
  } else {
    sim.set_delivery_handler(
        [&](const Message& m) { obs.on_deliver(m, sim.now()); });
    sim.set_drop_handler(
        [&](const Message& m) { obs.on_drop(m.id, m.drop_reason, sim.now()); });
  }
  drive(sim);
  RunCapture cap;
  cap.stats = sim.stats();
  cap.status = sim.run_status();
  cap.cycles = sim.now();
  cap.events = obs.text();
  cap.messages = sim.messages().all();
  if (take_stall_report) cap.stall = sim.stall_report().to_string();
  cap.admitted = sim.admitted_worms();
  cap.reentries = sim.reentries();
  cap.event_cycles = sim.event_cycles();
  for (int k = 0; k < kMaterializationKinds; ++k)
    cap.materialized[k] = sim.materializations(static_cast<Materialization>(k));
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

/// Compares both engines; returns the event run for counter checks.
RunCapture run_both(const Topology& topo, SimConfig cfg,
                    const std::function<void(Simulator&)>& drive,
                    bool take_stall_report = false, bool observe = true) {
  const RunCapture cyc =
      capture(topo, cfg, EngineKind::kCycle, drive, take_stall_report, observe);
  const RunCapture evt =
      capture(topo, cfg, EngineKind::kEvent, drive, take_stall_report, observe);
  expect_equivalent(cyc, evt);
  EXPECT_EQ(cyc.admitted + cyc.reentries + cyc.event_cycles, 0)
      << "the cycle engine never starts the event engine";
  return evt;
}

/// run_both without an observer: worms may be admitted whole.
RunCapture run_both_unobserved(const Topology& topo, SimConfig cfg,
                               const std::function<void(Simulator&)>& drive,
                               bool take_stall_report = false) {
  return run_both(topo, cfg, drive, take_stall_report, /*observe=*/false);
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

// --- fault plans: events under live worms hand over to the cycle engine -

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

// --- whole-worm admission and two-way hand-off (no observer) -----------

TEST(EngineEquiv, RandomSweepAdmittedMeshAndBmin) {
  // Without an observer laminar worms are admitted whole; random traffic
  // collides with admitted paths, hands over, and re-enters.
  const auto mesh8 = mesh::make_mesh2d(8);
  const auto bmin64 = bmin::make_bmin(64, bmin::UpPolicy::kAdaptive);
  long long admitted = 0;
  long long reentries = 0;
  long long collisions = 0;
  for (const Topology* topo : {static_cast<const Topology*>(mesh8.get()),
                               static_cast<const Topology*>(bmin64.get())}) {
    for (unsigned seed = 1; seed <= 6; ++seed) {
      SCOPED_TRACE(::testing::Message() << topo->num_routers() << " routers, seed "
                                        << seed);
      const RunCapture evt = run_both_unobserved(
          *topo, SimConfig{}, [seed](Simulator& sim) { random_traffic(sim, 64, 48, seed); });
      admitted += evt.admitted;
      reentries += evt.reentries;
      collisions += evt.materializations(Materialization::kContention);
    }
  }
  EXPECT_GT(admitted, 0);
  EXPECT_GT(reentries, 0);
  EXPECT_GT(collisions, 0);
}

TEST(EngineEquiv, RandomSweepAdmittedDeepRouterDelay) {
  const auto topo = mesh::make_mesh2d(8);
  for (const Time delay : {Time{2}, Time{3}}) {
    for (unsigned seed = 21; seed <= 23; ++seed) {
      SCOPED_TRACE(::testing::Message() << "delay " << delay << " seed " << seed);
      SimConfig cfg;
      cfg.router_delay = delay;
      const RunCapture evt = run_both_unobserved(
          *topo, cfg, [seed](Simulator& sim) { random_traffic(sim, 64, 32, seed); });
      EXPECT_GT(evt.admitted, 0);
    }
  }
}

TEST(EngineEquiv, AdmittedContentionFreeTreeNeverHandsOver) {
  // A Theorem-1 schedule: every worm is admitted at its NI pull and the
  // engine executes only pulls, injection ends and deliveries.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];
  const RunCapture evt = run_both_unobserved(*topo, SimConfig{}, [&](Simulator& sim) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                      &topo->shape());
  });
  EXPECT_EQ(evt.admitted, 31);
  EXPECT_EQ(evt.reentries, 0);
  for (int k = 0; k < kMaterializationKinds; ++k) EXPECT_EQ(evt.materialized[k], 0);
  EXPECT_LE(evt.event_cycles, 3 * 31);
}

TEST(EngineEquiv, AdmissionBminAdaptiveSameCycleTie) {
  // Worms 0 -> 63 and 16 -> 48 climb the same number of stages and meet
  // at one switch in the same cycle, both preferring the same up-port.
  // The first pull is admitted; the second finds that window taken and
  // keeps the per-hop path, and at the meeting cycle the cycle engine
  // settles the tie in rotating-arbiter order.
  const auto topo = bmin::make_bmin(64, bmin::UpPolicy::kAdaptive);
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [](Simulator& sim) {
          sim.post(mk(0, 63, 24));
          sim.post(mk(16, 48, 24));
          sim.run_until_idle();
        },
        false, observe);
    EXPECT_EQ(evt.admitted, observe ? 0 : 1);
    EXPECT_EQ(evt.materializations(Materialization::kContention), 1);
    EXPECT_GT(evt.stats.channel_conflicts, 0);
  }
}

TEST(EngineEquiv, AdmissionLateWindowOnAnAdmittedChannel) {
  // Worm A (0 -> 7) is admitted with its whole row path.  A later worm
  // on a disjoint window of A's channels is admitted too; one whose
  // window reaches A's — starting before A's head arrives, or while A
  // holds the channel — keeps the per-hop path and hands over at the
  // colliding grant.
  const auto topo = mesh::make_mesh2d(8);
  const RunCapture clear = run_both_unobserved(*topo, SimConfig{}, [](Simulator& sim) {
    sim.post(mk(0, 7, 10));
    sim.post(mk(3, 7, 6, 20));  // A released router 3's east channel at 13
    sim.run_until_idle();
  });
  EXPECT_EQ(clear.admitted, 2);
  EXPECT_EQ(clear.reentries, 0);
  for (const Time ready : {Time{0}, Time{5}}) {
    SCOPED_TRACE(ready);
    const RunCapture hit = run_both_unobserved(*topo, SimConfig{}, [ready](Simulator& sim) {
      sim.post(mk(0, 7, 10));
      sim.post(mk(3, 7, 30, ready));
      sim.post(mk(40, 47, 8, 200));  // after the hand-off: admitted again
      sim.run_until_idle();
    });
    EXPECT_EQ(hit.admitted, 2);
    EXPECT_EQ(hit.materializations(Materialization::kContention), 1);
    EXPECT_EQ(hit.reentries, 1);
    EXPECT_GT(hit.stats.channel_conflicts, 0);
  }
}

TEST(EngineEquiv, AdmissionTwoPortNi) {
  // Two injection engines per node pull two worms out of one NI in the
  // same cycle, onto distinct attach ports.
  mesh::MeshTopology topo(MeshShape::square2d(8), mesh::RouteOrder::kHighestFirst, 2);
  const RunCapture evt = run_both_unobserved(topo, SimConfig{}, [](Simulator& sim) {
    for (int i = 0; i < 6; ++i) sim.post(mk(0, 63 - 9 * i, 12, 0));
    for (int i = 0; i < 6; ++i) sim.post(mk(63, 9 * i, 12, 3));
    sim.run_until_idle();
  });
  EXPECT_GT(evt.admitted, 0);
}

TEST(EngineEquiv, DeadSenderPostReleasedInEventMode) {
  // Node 5 dies while the network is quiescent: the event engine applies
  // the event at the next post release without handing over, drops the
  // dead sender's later posts at release, and fires drop handlers after
  // that cycle's delivery handlers.
  const auto topo = mesh::make_mesh2d(4);
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{100, 5});
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [&](Simulator& sim) {
          sim.set_fault_plan(plan);
          sim.post(mk(0, 15, 8, 0));
          sim.post(mk(5, 10, 8, 150));   // dropped at release
          sim.post(mk(12, 3, 1, 143));   // delivered at 150
          sim.post(mk(5, 0, 4, 150));    // dropped too, after the first
          sim.post(mk(3, 12, 6, 300));
          sim.run_until_idle();
          EXPECT_EQ(sim.messages().at(1).drop_reason, DropReason::kSenderDead);
          EXPECT_EQ(sim.messages().at(1).dropped, 150);
          EXPECT_EQ(sim.messages().at(2).delivered, 150);
        },
        false, observe);
    if (!observe) {
      EXPECT_LT(evt.events.find("deliver 2 "), evt.events.find("drop m1 "));
    }
    EXPECT_EQ(evt.stats.fault_events, 1);
    EXPECT_EQ(evt.stats.messages_dropped, 2);
    for (int k = 0; k < kMaterializationKinds; ++k) EXPECT_EQ(evt.materialized[k], 0);
  }
}

TEST(EngineEquiv, CorruptRatePlanStaysInEventMode) {
  // Corruption marks deliveries inline; drops hand over at the head's
  // grant and the engine re-enters once the network drains.
  const auto topo = mesh::make_mesh2d(8);
  FaultPlan plan;
  plan.corrupt_rate = 0.2;
  plan.drop_rate = 0.01;
  plan.seed = 9;
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [&](Simulator& sim) {
          sim.set_fault_plan(plan);
          random_traffic(sim, 64, 60, 4);
        },
        false, observe);
    EXPECT_GT(evt.stats.messages_corrupted, 0);
    EXPECT_GT(evt.stats.messages_dropped, 0);
    EXPECT_GT(evt.materializations(Materialization::kDrop), 0);
    EXPECT_GT(evt.reentries, 0);
    if (!observe) {
      EXPECT_GT(evt.admitted, 0);
    }
  }
}

TEST(EngineEquiv, FaultEventsUnderLiveWormsHandOverAndReenter) {
  // Events falling due mid-flight hand over at their cycle (the cut at 30
  // under worm 0 -> 63, the kill at 500 under worm 3 -> 20); the ones
  // landing on a quiescent network (the heal at 400, the kill at 5000)
  // apply in event mode at the next post release.
  const auto topo = mesh::make_mesh2d(8);
  FaultPlan plan;
  plan.link_events.push_back(FaultPlan::LinkEvent{30, 9, 1, false});
  plan.link_events.push_back(FaultPlan::LinkEvent{400, 9, 1, true});
  plan.node_events.push_back(FaultPlan::NodeEvent{500, 20});
  plan.node_events.push_back(FaultPlan::NodeEvent{5000, 44});
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [&](Simulator& sim) {
          sim.set_fault_plan(plan);
          sim.post(mk(0, 63, 100, 0));
          sim.post(mk(5, 50, 10, 450));
          sim.post(mk(3, 20, 300, 460));   // purged at its dead ejector
          sim.post(mk(44, 2, 10, 6000));   // dropped at release
          sim.post(mk(2, 44, 10, 6000));   // purged at its dead ejector
          sim.run_until_idle();
          EXPECT_EQ(sim.messages().at(2).drop_reason, DropReason::kNodeDead);
          EXPECT_EQ(sim.messages().at(3).drop_reason, DropReason::kSenderDead);
        },
        false, observe);
    EXPECT_EQ(evt.stats.fault_events, 4);
    EXPECT_EQ(evt.materializations(Materialization::kFaultEvent), 2);
    EXPECT_EQ(evt.materializations(Materialization::kDrop), 1);
    EXPECT_EQ(evt.reentries, 2);  // the run ends before a third is due
    // The worm to the dead node 44 meets its dead ejector at admission.
    if (!observe) {
      EXPECT_EQ(evt.admitted, 3);
    }
  }
}

TEST(EngineEquiv, HorizonCutPostAtNowAndResume) {
  // A horizon mid-flight stops the clock with worms still in the
  // calendar; a post() at now() and the resumed run continue in event
  // mode without a hand-off.
  const auto topo = mesh::make_mesh2d(8);
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [](Simulator& sim) {
          sim.post(mk(0, 63, 200));
          sim.post(mk(7, 56, 120, 10));
          sim.run_until_idle(57);
          EXPECT_EQ(sim.run_status(), RunStatus::kTruncated);
          EXPECT_EQ(sim.now(), 57);
          EXPECT_FALSE(sim.idle());
          sim.post(mk(9, 54, 40, sim.now()));
          sim.run_until_idle(130);
          EXPECT_EQ(sim.now(), 130);
          sim.post(mk(18, 45, 3, sim.now()));
          sim.run_until_idle();
          EXPECT_EQ(sim.run_status(), RunStatus::kCompleted);
        },
        /*take_stall_report=*/false, observe);
    for (int k = 0; k < kMaterializationKinds; ++k) EXPECT_EQ(evt.materialized[k], 0);
    if (!observe) {
      EXPECT_EQ(evt.admitted, 4);
    }
  }
}

TEST(EngineEquiv, HorizonCutThenStallReport) {
  // stall_report() after a horizon materializes the admitted paths.
  const auto topo = mesh::make_mesh2d(8);
  const RunCapture evt = run_both_unobserved(
      *topo, SimConfig{},
      [](Simulator& sim) {
        sim.post(mk(0, 63, 200));
        sim.post(mk(7, 56, 120, 10));
        sim.run_until_idle(40);
      },
      /*take_stall_report=*/true);
  EXPECT_EQ(evt.admitted, 2);
  EXPECT_EQ(evt.materializations(Materialization::kBail), 1);
}

TEST(EngineEquiv, ObserverAttachedBetweenRunsSeesTheRest) {
  // Admitted worms produce no per-hop events, so attaching an observer
  // mid-flight hands them to the cycle engine first.
  const auto topo = mesh::make_mesh2d(8);
  std::string logs[2];
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    SimConfig cfg;
    cfg.engine = engine;
    Simulator sim(*topo, cfg);
    RecordingObserver obs;
    sim.post(mk(0, 63, 100));
    sim.post(mk(9, 54, 40, 5));
    sim.run_until_idle(30);
    sim.set_observer(&obs);
    sim.run_until_idle();
    logs[engine == EngineKind::kCycle ? 0 : 1] = obs.text();
    if (engine == EngineKind::kEvent) {
      EXPECT_EQ(sim.admitted_worms(), 2);
      EXPECT_EQ(sim.materializations(Materialization::kBail), 1);
    }
  }
  expect_same_log(logs[0], logs[1]);
}

// --- reliable streams on the event engine -------------------------------

void expect_same_stream(const rt::StreamResult& a, const rt::StreamResult& b) {
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.model_slot_latency, b.model_slot_latency);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.channel_conflicts, b.channel_conflicts);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.stale_acks, b.stale_acks);
  EXPECT_EQ(a.duplicate_deliveries, b.duplicate_deliveries);
  EXPECT_EQ(a.max_window_occupancy, b.max_window_occupancy);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.rejoins, b.rejoins);
  EXPECT_EQ(a.suspects, b.suspects);
  EXPECT_EQ(a.dead_nodes, b.dead_nodes);
  EXPECT_EQ(a.unreachable_nodes, b.unreachable_nodes);
  EXPECT_EQ(a.delivered_prefix, b.delivered_prefix);
  EXPECT_EQ(a.commit_time, b.commit_time);
  EXPECT_EQ(a.complete, b.complete);
  EXPECT_EQ(a.delivered_fraction, b.delivered_fraction);
}

/// Streams under both engines, observed (callback log) and unobserved
/// (admission on); returns the unobserved event run and the observed
/// event run for counter checks.
std::pair<RunCapture, RunCapture> stream_both(const Topology& topo,
                                              const FaultPlan& plan,
                                              const rt::StreamConfig& scfg,
                                              const analysis::Placement& p) {
  RunCapture evts[2];
  for (const bool observe : {true, false}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    rt::StreamResult res[2];
    RunCapture caps[2];
    for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
      const int i = engine == EngineKind::kCycle ? 0 : 1;
      caps[i] = capture(
          topo, SimConfig{}, engine,
          [&](Simulator& sim) {
            if (!plan.empty()) sim.set_fault_plan(plan);
            const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
            const rt::StreamRuntime srt(rtm);
            res[i] = srt.run(sim, p.source, p.dests, scfg);
          },
          false, observe);
    }
    expect_equivalent(caps[0], caps[1]);
    expect_same_stream(res[0], res[1]);
    EXPECT_EQ(res[1].committed, scfg.slots);
    evts[observe ? 1 : 0] = caps[1];
  }
  EXPECT_GT(evts[0].admitted, 0);
  EXPECT_EQ(evts[1].admitted, 0);
  return {evts[0], evts[1]};
}

rt::StreamConfig reliable_stream(const mesh::MeshTopology& topo, McastAlgorithm alg,
                                 int window, int slots, Time heartbeat) {
  rt::StreamConfig c;
  c.window_size = window;
  c.slots = slots;
  c.bytes = 64;
  c.alg = alg;
  c.shape = &topo.shape();
  c.reliable = true;
  c.membership.heartbeat_period = heartbeat;
  c.failover = heartbeat > 0;
  c.rejoin = heartbeat > 0;
  return c;
}

/// A fault-free run's makespan: the time scale fault events are placed on.
Time clean_span(const mesh::MeshTopology& topo, rt::StreamConfig c,
                const analysis::Placement& p) {
  c.reliable = false;
  c.membership.heartbeat_period = 0;
  c.failover = c.rejoin = false;
  Simulator sim(topo);
  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  return rt::StreamRuntime(rtm).run(sim, p.source, p.dests, c).makespan;
}

TEST(EngineEquiv, ReliableStreamReceiverKillsWindows1And8) {
  // E19's fault cell: two mid-stream receiver kills plus drop rate 1e-3,
  // the lease detector at heartbeat 800.
  const auto topo = mesh::make_mesh2d(16);
  const auto places = analysis::sample_placements(1997, 256, 16, 2);
  std::uint64_t seed = 1;
  for (const McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
    for (const int window : {1, 8}) {
      for (const analysis::Placement& p : places) {
        SCOPED_TRACE(::testing::Message() << algorithm_name(alg) << " window " << window
                                          << " source " << p.source);
        const rt::StreamConfig c = reliable_stream(*topo, alg, window, 60, 800);
        const Time span = clean_span(*topo, c, p);
        FaultPlan plan;
        plan.node_events.push_back({span / 3, p.dests.front()});
        plan.node_events.push_back({2 * span / 3, p.dests.back()});
        plan.drop_rate = 1e-3;
        plan.seed = seed++;
        const auto [quiet, observed] = stream_both(*topo, plan, c, p);
        EXPECT_GT(quiet.reentries + observed.reentries, 0);
        EXPECT_EQ(quiet.stats.fault_events, 2);
      }
    }
  }
}

TEST(EngineEquiv, ReliableStreamSourceKillFailoverAndRejoin) {
  // E20: the source dies a third of the way through a window-8 stream;
  // the lease detector, failover and rejoin recover it.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, 256, 16, 1)[0];
  for (const Time hb : {Time{400}, Time{1600}}) {
    SCOPED_TRACE(hb);
    const rt::StreamConfig c = reliable_stream(*topo, McastAlgorithm::kOptMesh, 8, 60, hb);
    FaultPlan plan;
    plan.node_events.push_back({clean_span(*topo, c, p) / 3, p.source});
    const auto [quiet, observed] = stream_both(*topo, plan, c, p);
    EXPECT_GT(quiet.event_cycles, 0);
    EXPECT_EQ(quiet.stats.fault_events, 1);
  }
}

TEST(EngineEquiv, ReliableStreamCutAndHealPartition) {
  // A partition cuts the group mid-stream and heals; evicted members
  // rejoin with catch-up.
  const auto topo = mesh::make_mesh2d(8);
  std::vector<NodeId> lower, upper;
  for (NodeId v = 0; v < 64; ++v) (v < 32 ? lower : upper).push_back(v);
  const auto p = analysis::sample_placements(7, 64, 12, 1)[0];
  const rt::StreamConfig c = reliable_stream(*topo, McastAlgorithm::kOptMesh, 4, 40, 300);
  const Time span = clean_span(*topo, c, p);
  const FaultPlan plan = FaultPlan::partition(*topo, lower, upper, span / 4, span / 2);
  const auto [quiet, observed] = stream_both(*topo, plan, c, p);
  EXPECT_GT(quiet.stats.fault_events, 2);
  EXPECT_GT(quiet.reentries + observed.reentries, 0);
}

TEST(EngineEquiv, ReliableStreamCorruptRate) {
  const auto topo = mesh::make_mesh2d(8);
  const auto p = analysis::sample_placements(3, 64, 12, 1)[0];
  const rt::StreamConfig c = reliable_stream(*topo, McastAlgorithm::kOptMesh, 8, 40, 0);
  FaultPlan plan;
  plan.corrupt_rate = 0.02;
  plan.seed = 77;
  const auto [quiet, observed] = stream_both(*topo, plan, c, p);
  EXPECT_GT(quiet.stats.messages_corrupted, 0);
  EXPECT_EQ(quiet.reentries, 0) << "corruption alone never hands over";
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
    EXPECT_TRUE(ref.trace == got.trace) << "flight recorder bytes differ";
    if (engine == EngineKind::kCycle) leaped = got.leaped_cycles;
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
