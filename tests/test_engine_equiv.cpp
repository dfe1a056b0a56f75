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
// horizon cuts, and collisions with admitted paths.  A seeded sweep of
// windowed streams under cross traffic, follow-up posts and link faults
// (mesh and BMIN, router delays 1-3, one- and two-port NIs) makes the
// event engine rebuild rotating-arbiter positions mid-flight, and two
// small cases pin the segment merge and fold rules.  The contended
// workloads the benches put on either engine — overlapping concurrent
// groups on the mesh, caller-order OPT chains on the butterfly — must
// match in results and flight-recorder bytes, traced or not.  The last
// section holds the cycle engine's steady-state leap to a
// one-cycle-at-a-time reference on contended trees, deep pipelines, small
// and large buffers, two-port NIs, fault plans and cut horizons, down to
// the flight recorder's bytes on both engines.  Pinned microstate
// sequences hold the cycle engine's full flit-level state, arbiter
// positions included, after every single step of seven contended runs to
// hashes recorded from the eagerly swept engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <sstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "butterfly/butterfly_topology.hpp"
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

struct RunCapture {
  SimStats stats;
  RunStatus status = RunStatus::kCompleted;
  Time cycles = 0;
  std::vector<obs::TraceEvent> events;  ///< the flight recorder's records
  std::vector<Message> messages;
  std::string stall;
  // Engine counters: which path the event engine took (not compared).
  long long admitted = 0;
  long long reentries = 0;
  long long event_cycles = 0;
  long long leaps = 0;
  long long leaped_cycles = 0;
  long long worm_leaps = 0;
  long long worm_leaped_hops = 0;
  long long materialized[kMaterializationKinds] = {};
  [[nodiscard]] long long materializations(Materialization why) const {
    return materialized[static_cast<int>(why)];
  }
};

/// Runs `drive` on a fresh simulator under `engine` and captures every
/// observable.  `drive` posts traffic and calls run_until_idle itself.
/// With `observe` a flight recorder is the observer and records every
/// callback; without, the delivery and drop handlers feed its hooks
/// (unless `drive` installs its own handlers), and the event engine may
/// admit worms whole.
RunCapture capture(const Topology& topo, SimConfig cfg, EngineKind engine,
                   const std::function<void(Simulator&)>& drive,
                   bool take_stall_report = false, bool observe = true) {
  cfg.engine = engine;
  Simulator sim(topo, cfg);
  obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
  if (observe) {
    sim.set_observer(&rec);
  } else {
    sim.set_delivery_handler(
        [&](const Message& m) { rec.on_deliver(m, sim.now()); });
    sim.set_drop_handler(
        [&](const Message& m) { rec.on_drop(m.id, m.drop_reason, sim.now()); });
  }
  drive(sim);
  RunCapture cap;
  cap.stats = sim.stats();
  cap.status = sim.run_status();
  cap.cycles = sim.now();
  cap.events = rec.snapshot();
  cap.messages.assign(sim.messages().all().begin(), sim.messages().all().end());
  if (take_stall_report) cap.stall = sim.stall_report().to_string();
  cap.admitted = sim.admitted_worms();
  cap.reentries = sim.reentries();
  cap.event_cycles = sim.event_cycles();
  cap.leaps = sim.leaps();
  cap.leaped_cycles = sim.leaped_cycles();
  cap.worm_leaps = sim.worm_leaps();
  cap.worm_leaped_hops = sim.worm_leaped_hops();
  for (int k = 0; k < kMaterializationKinds; ++k)
    cap.materialized[k] = sim.materializations(static_cast<Materialization>(k));
  return cap;
}

/// Equal traces, record for record; a mismatch reports the first
/// differing record rather than gtest's full diff.
void expect_same_log(const std::vector<obs::TraceEvent>& a,
                     const std::vector<obs::TraceEvent>& b) {
  const obs::TraceDiff d = obs::diff_traces(a, b);
  EXPECT_TRUE(d.identical) << "traces differ at record " << d.first_divergence << ": "
                           << d.detail;
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
      auto at = [&](obs::EventKind k, int msg) {
        return std::ranges::find_if(evt.events, [&](const obs::TraceEvent& ev) {
          return ev.event_kind() == k && ev.a == msg;
        });
      };
      EXPECT_LT(at(obs::EventKind::kDeliver, 2), at(obs::EventKind::kDrop, 1));
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
  std::vector<obs::TraceEvent> logs[2];
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    SimConfig cfg;
    cfg.engine = engine;
    Simulator sim(*topo, cfg);
    obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
    sim.post(mk(0, 63, 100));
    sim.post(mk(9, 54, 40, 5));
    sim.run_until_idle(30);
    sim.set_observer(&rec);
    sim.run_until_idle();
    logs[engine == EngineKind::kCycle ? 0 : 1] = rec.snapshot();
    if (engine == EngineKind::kEvent) {
      EXPECT_EQ(sim.admitted_worms(), 2);
      EXPECT_EQ(sim.materializations(Materialization::kBail), 1);
    }
  }
  expect_same_log(logs[0], logs[1]);
}

// --- admission coverage: contention-free runs admit every worm ---------
//
// A route the engine cannot follow (one that leaves the head's router or
// never ejects) keeps the worm on the per-hop path with every output
// unchanged, so only the admission count shows it.

/// Both engines unobserved; returns the event run's admitted worm count
/// after checking it against the messages posted.
long long expect_all_admitted(const Topology& topo,
                              const std::function<void(Simulator&)>& drive) {
  const RunCapture evt = run_both_unobserved(topo, SimConfig{}, drive);
  EXPECT_EQ(evt.stats.channel_conflicts, 0);
  EXPECT_EQ(evt.admitted, static_cast<long long>(evt.messages.size()));
  EXPECT_EQ(evt.reentries, 0);
  return evt.admitted;
}

TEST(EngineEquiv, AdmissionCoversOptMeshOneShotsOnEveryAttachPort) {
  // One engine: Theorem 1 holds and every worm is admitted.  Two engines
  // on a two-port NI send concurrently from one node, which the one-port
  // schedule does not plan for, so heads collide; the worms that still
  // get through whole leave through attach port 0 or 1, and their count
  // pins that a port-1 path starts at the head too.
  const auto places = analysis::sample_placements(5, 256, 32, 3);
  for (const int engines : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << engines << " send engines");
    const mesh::MeshTopology topo(MeshShape::square2d(16),
                                  mesh::RouteOrder::kHighestFirst, engines);
    rt::RuntimeConfig rcfg;
    rcfg.send_engines = engines;
    std::vector<long long> admitted;
    for (const auto& p : places) {
      const auto drive = [&](Simulator& sim) {
        rt::MulticastRuntime rtm(rcfg);
        rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                          &topo.shape());
      };
      admitted.push_back(engines == 1
                             ? expect_all_admitted(topo, drive)
                             : run_both_unobserved(topo, SimConfig{}, drive).admitted);
    }
    const std::vector<long long> want =
        engines == 1 ? std::vector<long long>{31, 31, 31} : std::vector<long long>{4, 15, 6};
    EXPECT_EQ(admitted, want);
  }
}

TEST(EngineEquiv, AdmissionCoversOptMinOnBmin128) {
  const auto topo = bmin::make_bmin(128);
  long long admitted = 0;
  for (const auto& p : analysis::sample_placements(7, 128, 64, 3))
    admitted += expect_all_admitted(*topo, [&](Simulator& sim) {
      rt::MulticastRuntime rtm(rt::RuntimeConfig{});
      rtm.run_algorithm(sim, McastAlgorithm::kOptMin, p.source, p.dests, 4096);
    });
  EXPECT_EQ(admitted, 3 * 63);
}

TEST(EngineEquiv, AdmissionCoversAWindow8OptMeshStream) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(1997, 256, 16, 1)[0];
  rt::StreamConfig c;
  c.window_size = 8;
  c.slots = 50;
  c.bytes = 64;
  c.alg = McastAlgorithm::kOptMesh;
  c.shape = &topo->shape();
  EXPECT_EQ(expect_all_admitted(*topo,
                                [&](Simulator& sim) {
                                  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
                                  (void)rt::StreamRuntime(rtm).run(sim, p.source,
                                                                   p.dests, c);
                                }),
            50 * 15);
}

/// Three routers in a line, one node each; out-port 0 goes left, 1
/// right, 2 ejects.  A node's second NI port attaches (on in-port 3) to
/// the router two to its right, wrapping, so node 1's is on router 0.
/// append_path walks from attach port 0 only: it misses a port-1 head.
class CrossAttachLine final : public Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 3; }
  [[nodiscard]] int radix() const override { return 4; }
  [[nodiscard]] int num_nodes() const override { return 3; }
  [[nodiscard]] int ports_per_node() const override { return 2; }
  [[nodiscard]] PortRef link(int router, int out_port) const override {
    if (out_port == 0 && router > 0) return PortRef{router - 1, 1};
    if (out_port == 1 && router < 2) return PortRef{router + 1, 0};
    return {};
  }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{static_cast<int>(n), 2};
  }
  [[nodiscard]] PortRef node_attach_port(NodeId n, int p) const override {
    return p == 0 ? node_attach(n) : PortRef{(static_cast<int>(n) + 2) % 3, 3};
  }
  [[nodiscard]] NodeId ejector(int router, int out_port) const override {
    return out_port == 2 ? router : kInvalidNode;
  }
  void route(int router, int, NodeId, NodeId dst, std::vector<int>& c) const override {
    c.push_back(dst < router ? 0 : dst > router ? 1 : 2);
  }
};

TEST(EngineEquiv, AdmissionRefusesAPathThatMissesTheHead) {
  // Node 1's two NI engines pull at once.  The port-0 worm to node 2
  // follows append_path and is admitted.  The port-1 worm to node 0 sits
  // on router 0, where its append_path (router 1's left channel, then
  // router 0's ejection) does not start, so it keeps the per-hop path and
  // ejects at once.
  const CrossAttachLine topo;
  const RunCapture evt = run_both_unobserved(topo, SimConfig{}, [](Simulator& sim) {
    sim.post(mk(1, 2, 6));
    sim.post(mk(1, 0, 6));
    sim.run_until_idle();
  });
  EXPECT_EQ(evt.stats.messages_delivered, 2);
  EXPECT_EQ(evt.stats.flit_hops, 2 * 6 + 6);
  EXPECT_EQ(evt.admitted, 1);
}

// --- contended bench workloads ------------------------------------------

/// One engine's run of a workload: its multicast results, SimStats and,
/// when traced, the flight recorder's records.
struct WorkloadCapture {
  std::vector<rt::McastResult> results;
  SimStats stats;
  std::vector<obs::TraceEvent> trace;
};

using Workload = std::function<std::vector<rt::McastResult>(Simulator&)>;

WorkloadCapture run_workload(const Topology& topo, EngineKind engine, bool traced,
                             const Workload& drive) {
  Simulator sim(topo, SimConfig{.engine = engine});
  obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
  if (traced) sim.set_observer(&rec);
  WorkloadCapture cap;
  cap.results = drive(sim);
  cap.stats = sim.stats();
  cap.trace = rec.snapshot();
  return cap;
}

/// Both engines, traced (the event engine steps per hop) and untraced (it
/// may admit worms whole): identical results, SimStats and trace bytes.
/// Returns the cycle engine's blocked cycles, so callers can show the
/// workload really contends.
long long expect_workload_engine_identical(const Topology& topo, const Workload& drive) {
  long long blocked = 0;
  for (const bool traced : {true, false}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    const WorkloadCapture cyc = run_workload(topo, EngineKind::kCycle, traced, drive);
    const WorkloadCapture evt = run_workload(topo, EngineKind::kEvent, traced, drive);
    EXPECT_EQ(cyc.results.size(), evt.results.size());
    for (std::size_t i = 0; i < std::min(cyc.results.size(), evt.results.size()); ++i) {
      const rt::McastResult& a = cyc.results[i];
      const rt::McastResult& b = evt.results[i];
      EXPECT_EQ(a.latency, b.latency) << "result " << i;
      EXPECT_EQ(a.model_latency, b.model_latency) << "result " << i;
      EXPECT_EQ(a.channel_conflicts, b.channel_conflicts) << "result " << i;
      EXPECT_EQ(a.block_cycles, b.block_cycles) << "result " << i;
      EXPECT_EQ(a.messages, b.messages) << "result " << i;
      EXPECT_EQ(a.recv_complete, b.recv_complete) << "result " << i;
    }
    EXPECT_EQ(cyc.stats.cycles, evt.stats.cycles);
    EXPECT_EQ(cyc.stats.flit_hops, evt.stats.flit_hops);
    EXPECT_EQ(cyc.stats.channel_conflicts, evt.stats.channel_conflicts);
    EXPECT_EQ(cyc.stats.messages_delivered, evt.stats.messages_delivered);
    EXPECT_EQ(cyc.stats.max_inflight_flits, evt.stats.max_inflight_flits);
    expect_same_log(cyc.trace, evt.trace);
    EXPECT_EQ(traced, !cyc.trace.empty());
    blocked = cyc.stats.channel_conflicts;
  }
  return blocked;
}

TEST(EngineEquiv, ConcurrentOverlappingGroupsMesh16) {
  // bench_concurrent_groups at G = 4: four random 16-node groups on the
  // 16x16 mesh, member sets overlapping across groups, 4 KB each, run at
  // once by run_concurrent.
  const auto topo = mesh::make_mesh2d(16);
  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const Bytes size = 4096;
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(size, 1));
  long long blocked = 0;
  for (const McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(algorithm_name(alg)) + " seed " + std::to_string(seed));
      analysis::Rng rng(seed);
      std::vector<rt::MulticastRuntime::GroupRun> groups;
      std::vector<int> membership(256, 0);
      for (int g = 0; g < 4; ++g) {
        const analysis::Placement p = analysis::sample_placement(rng, 256, 16);
        ++membership[static_cast<std::size_t>(p.source)];
        for (const NodeId d : p.dests) ++membership[static_cast<std::size_t>(d)];
        groups.push_back({build_multicast(alg, p.source, p.dests, tp, &topo->shape()),
                          size, 0});
      }
      EXPECT_GT(*std::max_element(membership.begin(), membership.end()), 1)
          << "the groups share no node";
      blocked += expect_workload_engine_identical(
          *topo, [&](Simulator& sim) { return rtm.run_concurrent(sim, groups); });
    }
  }
  EXPECT_GT(blocked, 0) << "no cross-group contention exercised";
}

TEST(EngineEquiv, ButterflyCallerOrderOptChain) {
  // bench_butterfly_temporal's OPT(caller) column: OPT splits over the
  // caller-order chain on the 64-node butterfly, where no contention-free
  // ordering exists.
  const auto topo = butterfly::make_butterfly(64);
  const rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const Bytes size = 4096;
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(size, 1));
  long long blocked = 0;
  for (const int k : {16, 48}) {
    const SplitTable opt = opt_split_table(tp.t_hold, tp.t_end, k);
    for (const analysis::Placement& p : analysis::sample_placements(1997 + k, 64, k, 2)) {
      SCOPED_TRACE("k " + std::to_string(k) + " source " + std::to_string(p.source));
      const MulticastTree tree = build_chain_split_tree(
          make_chain(p.source, p.dests, ChainOrder::kAsGiven), opt);
      blocked += expect_workload_engine_identical(*topo, [&](Simulator& sim) {
        return std::vector<rt::McastResult>{rtm.run(sim, tree, size)};
      });
    }
  }
  EXPECT_GT(blocked, 0) << "no contention exercised";
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

// --- arbiter activity segments ------------------------------------------

/// A `window`-slot stream of `alg`'s tree (each receive posts the
/// receiver's sends, as the stream runtime's fast path does) under seeded
/// unicast cross traffic.  Delivered cross messages post follow-ups at
/// now() while worms are live, and odd seeds take a link down and up
/// under the stream: admitted and per-hop worms share routers, heads meet,
/// and the event engine materializes mid-flight.  `ports` is the
/// runtime's send engines per node.
void segment_traffic(Simulator& sim, const MulticastTree& tree, int ports, int window,
                     unsigned seed) {
  constexpr int kSlots = 6;
  constexpr Bytes kPayload = 64;
  constexpr int kCross = 1 << 20;  // tags from here on: cross traffic
  rt::RuntimeConfig rcfg;
  rcfg.send_engines = ports;
  const rt::MulticastRuntime rtm(rcfg);
  const int n_sends = static_cast<int>(tree.sends.size());
  const auto engines = static_cast<std::size_t>(ports);
  std::vector<Time> ops(static_cast<std::size_t>(tree.num_nodes()) * engines, 0);
  auto activate = [&](int slot, int pos, Time at) {
    (void)rtm.post_sends(sim, tree, pos, kPayload, at,
                         std::span<Time>(&ops[static_cast<std::size_t>(pos) * engines],
                                         engines),
                         slot * n_sends);
  };
  std::vector<int> missing(kSlots, tree.num_nodes() - 1);
  int injected = 0;
  int frontier = 0;
  auto inject = [&](Time at) {
    while (injected < kSlots && injected - frontier < window)
      activate(injected++, tree.chain.source_pos, at);
  };
  const Topology& topo = sim.topology();
  std::mt19937 rng(seed);
  const int nodes = topo.num_nodes();
  std::uniform_int_distribution<int> node(0, nodes - 1);
  std::uniform_int_distribution<int> flits(1, 24);
  int cross = 0;
  auto post_cross = [&](Time ready) {
    const NodeId src = node(rng);
    NodeId dst = node(rng);
    if (dst == src) dst = (dst + 1) % nodes;
    Message m = mk(src, dst, flits(rng), ready);
    m.tag = kCross + cross++;
    sim.post(m);
  };
  if (seed % 2 == 1) {
    std::uniform_int_distribution<int> router(0, topo.num_routers() - 1);
    std::uniform_int_distribution<int> port(0, topo.radix() - 1);
    std::uniform_int_distribution<Time> when(20, 600);
    int r = router(rng);
    int p = port(rng);
    while (!topo.link(r, p).valid()) {
      r = router(rng);
      p = port(rng);
    }
    const Time down = when(rng);
    FaultPlan plan;
    plan.link_events.push_back(FaultPlan::LinkEvent{down, r, p, false});
    plan.link_events.push_back(FaultPlan::LinkEvent{down + 80, r, p, true});
    sim.set_fault_plan(plan);
  }
  sim.set_delivery_handler([&](const Message& m) {
    if (m.tag >= kCross) {
      if (cross < 48) post_cross(sim.now());
      return;
    }
    const int slot = m.tag / n_sends;
    activate(slot, tree.sends[static_cast<std::size_t>(m.tag % n_sends)].receiver_pos,
             sim.now());
    if (--missing[static_cast<std::size_t>(slot)] > 0) return;
    while (frontier < injected && missing[static_cast<std::size_t>(frontier)] == 0)
      ++frontier;
    inject(sim.now());
  });
  std::uniform_int_distribution<Time> ready(0, 1500);
  for (int i = 0; i < 24; ++i) post_cross(ready(rng));
  inject(0);
  sim.run_until_idle();
  sim.set_delivery_handler(nullptr);
}

/// Engine counters summed over a sweep.
struct SegmentSweep {
  long long admitted = 0;
  long long per_hop = 0;  ///< worms that took the per-hop path
  long long materialized[kMaterializationKinds] = {};
};

/// Runs every (alg, router_delay, window, seed) case on `topo` under both
/// engines, observed and not; counts the unobserved runs, where worms are
/// admitted whole.
void sweep_segments(SegmentSweep& sum, const Topology& topo, int ports,
                    const MeshShape* shape, int group) {
  const bool mesh = shape != nullptr;
  rt::RuntimeConfig rcfg;
  rcfg.send_engines = ports;
  const rt::MulticastRuntime rtm(rcfg);
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(64, 1));
  for (const McastAlgorithm alg :
       mesh ? std::vector<McastAlgorithm>{McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}
            : std::vector<McastAlgorithm>{McastAlgorithm::kOptMin, McastAlgorithm::kUMin}) {
    for (const Time delay : {Time{1}, Time{2}, Time{3}}) {
      for (const int window : {1, 8}) {
        for (unsigned seed = 1; seed <= 4; ++seed) {
          SCOPED_TRACE(::testing::Message()
                       << algorithm_name(alg) << " ports " << ports << " delay " << delay
                       << " window " << window << " seed " << seed);
          const auto p = analysis::sample_placements(seed, topo.num_nodes(), group, 1)[0];
          const MulticastTree tree = build_multicast(alg, p.source, p.dests, tp, shape);
          SimConfig cfg;
          cfg.router_delay = delay;
          const auto drive = [&](Simulator& sim) {
            segment_traffic(sim, tree, ports, window, seed);
          };
          // Observed, every worm takes the per-hop path and more heads meet.
          (void)run_both(topo, cfg, drive);
          const RunCapture evt = run_both_unobserved(topo, cfg, drive);
          sum.admitted += evt.admitted;
          sum.per_hop += static_cast<long long>(evt.messages.size()) - evt.admitted;
          for (int k = 0; k < kMaterializationKinds; ++k)
            sum.materialized[k] += evt.materialized[k];
        }
      }
    }
  }
}

void expect_mixed(const SegmentSweep& sum) {
  EXPECT_GT(sum.admitted, 0);
  EXPECT_GT(sum.per_hop, 0);
  EXPECT_GT(sum.materialized[static_cast<int>(Materialization::kContention)], 0);
  EXPECT_GT(sum.materialized[static_cast<int>(Materialization::kFaultEvent)], 0);
}

TEST(EngineEquiv, ArbiterSegmentsMesh8) {
  SegmentSweep sum;
  for (const int ports : {1, 2}) {
    const mesh::MeshTopology topo(MeshShape::square2d(8), mesh::RouteOrder::kHighestFirst,
                                  ports);
    sweep_segments(sum, topo, ports, &topo.shape(), 12);
  }
  expect_mixed(sum);
}

TEST(EngineEquiv, ArbiterSegmentsMesh16) {
  SegmentSweep sum;
  for (const int ports : {1, 2}) {
    const mesh::MeshTopology topo(MeshShape::square2d(16), mesh::RouteOrder::kHighestFirst,
                                  ports);
    sweep_segments(sum, topo, ports, &topo.shape(), 16);
  }
  expect_mixed(sum);
}

TEST(EngineEquiv, ArbiterSegmentsBmin64) {
  // The BMIN attaches one NI port per node.
  SegmentSweep sum;
  const auto topo = bmin::make_bmin(64);
  sweep_segments(sum, *topo, 1, nullptr, 12);
  expect_mixed(sum);
}

TEST(EngineEquiv, ArbiterSegmentsTouchThenATie) {
  // Two 8-flit worms 0 -> 3 from one NI, both admitted: with router_delay
  // 1 the second one's activity at each row-0 router starts the cycle the
  // first one's ends, so the two segments touch.  A 1-flit worm 1 -> 3
  // pulled at 9 meets the second head at router 1 at cycle 10, both for
  // the east channel, and the cycle engine settles the tie from router
  // 1's rotating start, which must count the first worm's 8 cycles there.
  const auto topo = mesh::make_mesh2d(4);
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    const RunCapture evt = run_both(
        *topo, SimConfig{},
        [](Simulator& sim) {
          sim.post(mk(0, 3, 8));
          sim.post(mk(0, 3, 8));
          sim.post(mk(1, 3, 1, 9));
          sim.run_until_idle();
        },
        false, observe);
    EXPECT_EQ(evt.admitted, observe ? 0 : 2);
    EXPECT_EQ(evt.materializations(Materialization::kContention), 1);
  }
}

TEST(EngineEquiv, ArbiterSegmentsRunningSegmentWaits) {
  // router_delay 2.  Worm 5 -> 11 is still crossing routers 9 and 10 when
  // worm 1 -> 11 is admitted at cycle 16 and posts its own, later
  // activity there.  A collision materializes at 17, so those two
  // routers' rotating starts must count the first worm's cycles before
  // 17 only; counting its segments whole changes the replayed deliveries.
  const auto topo = mesh::make_mesh2d(4);
  SimConfig cfg;
  cfg.router_delay = 2;
  const RunCapture evt = run_both_unobserved(*topo, cfg, [](Simulator& sim) {
    sim.post(mk(10, 11, 28, 21));
    sim.post(mk(5, 11, 5, 9));
    sim.post(mk(3, 11, 10, 11));
    sim.post(mk(1, 11, 21, 16));
    sim.post(mk(13, 2, 1, 17));
    sim.run_until_idle();
  });
  EXPECT_EQ(evt.admitted, 2);
  EXPECT_EQ(evt.materializations(Materialization::kContention), 1);
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

/// Checks a single run_until_idle() — cycle engine, and event engine
/// handing over to it — against the stepped reference; returns the
/// cycle engine's run so callers can insist the leaps ran.
RunCapture leap_exact(const Topology& topo, SimConfig cfg,
                      const std::function<void(Simulator&, const Drain&)>& drive,
                      const Drain& whole = run_whole) {
  const RunCapture ref = capture(topo, cfg, EngineKind::kCycle,
                                 [&](Simulator& sim) { drive(sim, run_stepwise); });
  EXPECT_EQ(ref.leaps + ref.worm_leaps, 0);
  RunCapture cycle;
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    SCOPED_TRACE(engine == EngineKind::kCycle ? "cycle" : "event");
    RunCapture got = capture(topo, cfg, engine, [&](Simulator& sim) { drive(sim, whole); });
    expect_equivalent(ref, got);
    if (engine == EngineKind::kCycle) cycle = std::move(got);
  }
  return cycle;
}

/// leap_exact's cycle-engine leaped cycles.
long long expect_leap_exact(const Topology& topo, SimConfig cfg,
                            const std::function<void(Simulator&, const Drain&)>& drive,
                            const Drain& whole = run_whole) {
  return leap_exact(topo, cfg, drive, whole).leaped_cycles;
}

/// MulticastRuntime::run's schedule — posts, t_hold spacing per send
/// engine, receive-triggered activation — with the simulator drained by
/// `drain` instead of one run_until_idle().
/// A positive `flits` overrides every message's wire length.
void drive_tree(Simulator& sim, const Drain& drain, const MulticastTree& tree,
                Bytes payload, int engines, int flits = 0) {
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
      m.flits = flits > 0 ? flits : rtm.wire_flits(payload, interval);
      m.ready_time = ops[e] + mp.t_send(rtm.wire_bytes(payload, interval));
      m.tag = idx;
      sim.post(m);
      ops[e] += mp.t_hold(rtm.wire_bytes(payload, interval));
      e = (e + 1) % ops.size();
    }
  };
  sim.set_delivery_handler([&](const Message& m) {
    if (m.tag < 0) return;  // cross traffic posted beside the tree
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
  // worms, so leaps skip cycles of their waits and must charge each one.
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


// --- per-worm leap vs the one-cycle reference ---------------------------

/// leap_exact, insisting that per-worm leaps ran; returns the cycle run.
RunCapture expect_worm_leaps(const Topology& topo, SimConfig cfg,
                             const std::function<void(Simulator&, const Drain&)>& drive,
                             const Drain& whole = run_whole) {
  RunCapture got = leap_exact(topo, cfg, drive, whole);
  EXPECT_GT(got.worm_leaps, 0);
  EXPECT_GT(got.worm_leaped_hops, 0);
  return got;
}

TEST(EngineWormLeap, OptTreeMesh16Group256) {
  // The paper's contended op: an architecture-blind tree over all 256
  // nodes of the 16x16 mesh at 4 KB.  Most hops belong to worms whose
  // head already ejects.
  const auto topo = mesh::make_mesh2d(16);
  const MulticastTree tree = opt_tree(256, 256, 1997, 4096);
  const RunCapture got = expect_worm_leaps(
      *topo, SimConfig{},
      [&](Simulator& sim, const Drain& d) { drive_tree(sim, d, tree, 4096, 1); });
  EXPECT_GT(got.stats.channel_conflicts, 0);
  EXPECT_GT(got.worm_leaped_hops * 2, got.stats.flit_hops);
}

TEST(EngineWormLeap, OptTreeBmin128At64K) {
  const auto topo = bmin::make_bmin(128, bmin::UpPolicy::kAdaptive);
  const MulticastTree tree = opt_tree(128, 64, 9, 65536);
  const RunCapture got = expect_worm_leaps(
      *topo, SimConfig{},
      [&](Simulator& sim, const Drain& d) { drive_tree(sim, d, tree, 65536, 1); });
  EXPECT_GT(got.worm_leaped_hops * 2, got.stats.flit_hops);
}

TEST(EngineWormLeap, RouterDelayAndBufferDepthGrid) {
  // A streaming FIFO holds between router_delay and capacity - 1 flits.
  const auto topo = mesh::make_mesh2d(16);
  const MulticastTree tree = opt_tree(256, 32, 5, 8192);
  for (const Time delay : {Time{1}, Time{2}, Time{3}}) {
    for (const int capacity : {2, 4, 7}) {
      SCOPED_TRACE(::testing::Message() << "delay " << delay << " capacity " << capacity);
      SimConfig cfg;
      cfg.router_delay = delay;
      cfg.fifo_capacity = capacity;
      expect_worm_leaps(*topo, cfg, [&](Simulator& sim, const Drain& d) {
        drive_tree(sim, d, tree, 8192, 1);
      });
    }
  }
}

TEST(EngineWormLeap, TwoPortNi) {
  // A leaping engine stays in its NI's injection sweep, skipped, while
  // the NI's other engine pulls and injects.
  mesh::MeshTopology topo(MeshShape::square2d(16), mesh::RouteOrder::kHighestFirst, 2);
  const MulticastTree tree = opt_tree(256, 32, 13, 16384);
  expect_worm_leaps(topo, SimConfig{}, [&](Simulator& sim, const Drain& d) {
    drive_tree(sim, d, tree, 16384, 2);
  });
}

/// Message 0 is a 3000-flit worm 0 -> 63 across the 8x8 mesh (up the
/// column of node 0, then along the top row), streaming alone from cycle
/// ~20: it leaps until `plan`'s first event.
RunCapture lone_worm(const FaultPlan& plan, const std::function<void(Simulator&)>& more = {}) {
  const auto topo = mesh::make_mesh2d(8);
  return expect_worm_leaps(*topo, SimConfig{}, [&](Simulator& sim, const Drain& d) {
    sim.set_fault_plan(plan);
    sim.post(mk(0, 63, 3000));
    if (more) more(sim);
    d(sim);
  });
}

TEST(EngineWormLeap, NodeKillOfALeapingWormsSource) {
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{900, 0});
  const RunCapture got = lone_worm(plan);
  EXPECT_EQ(got.messages[0].dropped, 900);
  EXPECT_EQ(got.messages[0].drop_reason, DropReason::kSenderDead);
  // 15 FIFOs on the path, leaping from shortly after the head ejects.
  EXPECT_GT(got.worm_leaped_hops, 15 * 800);
}

TEST(EngineWormLeap, NodeKillOfALeapingWormsDestination) {
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{900, 63});
  const RunCapture got = lone_worm(plan);
  EXPECT_EQ(got.messages[0].dropped, 900);
  EXPECT_EQ(got.messages[0].drop_reason, DropReason::kNodeDead);
  EXPECT_GT(got.worm_leaped_hops, 15 * 800);
}

TEST(EngineWormLeap, LinkCutOnALeapingWormsPath) {
  // Router 8's port 3 is the worm's second hop up the column; the link
  // heals later, and the worm's resend-free run simply ends.
  FaultPlan plan;
  plan.link_events.push_back(FaultPlan::LinkEvent{900, 8, 3, false});
  plan.link_events.push_back(FaultPlan::LinkEvent{1400, 8, 3, true});
  const RunCapture got = lone_worm(plan, [](Simulator& sim) {
    sim.post(mk(1, 62, 2000, 1000));  // leaps after the cut, across the heal
  });
  EXPECT_EQ(got.messages[0].dropped, 900);
  EXPECT_EQ(got.messages[0].drop_reason, DropReason::kLinkDown);
  EXPECT_GE(got.messages[1].delivered, 0);
  EXPECT_GT(got.worm_leaps, 1);
}

TEST(EngineWormLeap, DropsDuringALeap) {
  // Rate drops hit the heads of short cross messages while the long worm
  // leaps; purging them must not disturb its parked path.  No event is
  // planned, so nothing bounds the leap but the worm's tail.
  FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.seed = 1;  // the long worm's head survives its 14 links
  const RunCapture got = lone_worm(plan, [](Simulator& sim) {
    for (int i = 0; i < 40; ++i)
      sim.post(mk(2 + i % 5, 40 + i % 20, 24, 100 + 60 * i));
  });
  EXPECT_GE(got.messages[0].delivered, 0);
  EXPECT_GT(got.stats.messages_dropped, 0);
  EXPECT_GT(got.worm_leaped_hops, 15 * 2000);
}

TEST(EngineWormLeap, HorizonInsideALeap) {
  // Both worms leap at cycle 1234: the cut returns them to flit state
  // with the reference's microstate, and they leap again after it.
  const auto topo = mesh::make_mesh2d(8);
  const auto drive = [](Simulator& sim, const Drain& d) {
    sim.post(mk(0, 63, 3000));
    sim.post(mk(7, 56, 2000, 40));
    d(sim);
  };
  // Per engine (cycle, then event): the report and digests at the cut.
  std::vector<std::string> stall_at_cut;
  std::vector<std::uint64_t> digest_at_cut;
  std::vector<long long> worm_leaps_at_cut;
  const auto cut = [&](Simulator& sim) {
    sim.run_until_idle(1234);
    EXPECT_EQ(sim.now(), 1234);
    worm_leaps_at_cut.push_back(sim.worm_leaps());
    stall_at_cut.push_back(sim.stall_report().to_string());
    digest_at_cut.push_back(sim.microstate_digest(stall_at_cut.size() == 1));
    sim.run_until_idle(kLeapTestHorizon);
  };
  const RunCapture got = expect_worm_leaps(*topo, SimConfig{}, drive, cut);
  ASSERT_EQ(stall_at_cut.size(), 2U);
  EXPECT_EQ(worm_leaps_at_cut[0], 2);
  EXPECT_GT(got.worm_leaps, 2);
  Simulator ref(*topo);
  ref.post(mk(0, 63, 3000));
  ref.post(mk(7, 56, 2000, 40));
  while (ref.now() < 1234) ref.run_until_idle(ref.now() + 1);
  const std::string stall = ref.stall_report().to_string();
  EXPECT_EQ(stall, stall_at_cut[0]);
  EXPECT_EQ(stall, stall_at_cut[1]);
  EXPECT_EQ(ref.microstate_digest(), digest_at_cut[0]);
  EXPECT_EQ(ref.microstate_digest(false), digest_at_cut[1]);
}

TEST(EngineWormLeap, ObservedRunTraceBytes) {
  // The per-worm leap calls no observer: a leaping worm reserves,
  // releases and delivers nothing until its tail is injected.
  const auto topo = mesh::make_mesh2d(16);
  const MulticastTree tree = opt_tree(256, 64, 21, 16384);
  const auto drive = [&](Simulator& sim, const Drain& d) {
    drive_tree(sim, d, tree, 16384, 1);
  };
  const auto bytes = [](const RunCapture& c) {
    std::ostringstream os;
    obs::write_binary_trace(os, c.events, 0);
    return os.str();
  };
  const RunCapture ref =
      capture(*topo, SimConfig{}, EngineKind::kCycle,
              [&](Simulator& sim) { drive(sim, run_stepwise); });
  for (const EngineKind engine : {EngineKind::kCycle, EngineKind::kEvent}) {
    const RunCapture got =
        capture(*topo, SimConfig{}, engine, [&](Simulator& sim) { drive(sim, run_whole); });
    EXPECT_EQ(bytes(ref), bytes(got));
    EXPECT_GT(got.worm_leaps, 0);
  }
}

TEST(EngineWormLeap, LowerNiInjectsAfterALeapingWormsEjection) {
  // Worms 40 -> 47 (row 5) and 8 -> 15 (row 1) stream and leap.  The
  // worm from node 0 climbs column 0, turns east at router 40 and blocks
  // behind the first, filling its six FIFOs flit by flit: its last
  // injection sets the run's in-flight peak while both others leap.  In
  // that cycle the reference ejects one flit of each leaping worm in the
  // transfer sweep, then injects node 0's flit, node 8's and node 40's.
  // The 8 -> 15 worm is delivered long before the blocked worm moves
  // again, so no later cycle reaches that peak.
  const auto topo = mesh::make_mesh2d(8);
  const RunCapture got =
      expect_worm_leaps(*topo, SimConfig{}, [](Simulator& sim, const Drain& d) {
        sim.post(mk(40, 47, 3000));
        sim.post(mk(0, 47, 300, 100));
        sim.post(mk(8, 15, 600));
        d(sim);
      });
  EXPECT_GT(got.stats.max_inflight_flits, 30);
  EXPECT_GT(got.messages[1].block_cycles, 1000);
  EXPECT_LT(got.messages[2].delivered, got.messages[0].delivered);
}

// --- microstate oracle ---------------------------------------------------

/// One horizon's microstate: the clock and the digests with and without
/// pop stamps.
struct Microstate {
  Time now = 0;
  std::uint64_t full = 0;
  std::uint64_t flits = 0;
  bool operator==(const Microstate&) const = default;
};

/// Digests the flit-level microstate at `points` horizons spread over the
/// run `drive` makes, three ways: the stepwise cycle reference, one
/// cycle-engine run cut at every horizon (both leaps on), and a fresh
/// event-engine run per horizon, materialized by stall_report().  Returns
/// the cut cycle run's per-worm leaps.
long long expect_same_microstates(const Topology& topo, SimConfig cfg,
                                  const std::function<void(Simulator&, const Drain&)>& drive,
                                  int points = 12) {
  Time span = 0;
  {
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      run_whole(s);
      span = s.now();
    });
  }
  std::vector<Time> horizons;
  for (int i = 1; i <= points; ++i) horizons.push_back(span * i / (points + 1) + 7 * i);
  const auto take = [](const Simulator& s, bool pops) {
    return Microstate{s.now(), pops ? s.microstate_digest() : 0, s.microstate_digest(false)};
  };

  std::vector<Microstate> ref;
  {
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      std::size_t next = 0;
      while (!s.idle()) {
        for (; next < horizons.size() && s.now() >= horizons[next]; ++next)
          ref.push_back(take(s, true));
        s.run_until_idle(s.now() + 1);
      }
    });
  }
  std::vector<Microstate> cut;
  long long worm_leaps = 0;
  {
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      for (const Time h : horizons) {
        s.run_until_idle(h);
        if (s.idle()) break;
        cut.push_back(take(s, true));
      }
      run_whole(s);
      worm_leaps = s.worm_leaps();
    });
  }
  EXPECT_EQ(ref, cut);
  cfg.engine = EngineKind::kEvent;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "event engine at horizon " << horizons[i]);
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      s.run_until_idle(horizons[i]);
      (void)s.stall_report();
      Microstate want = ref[i];
      want.full = 0;
      EXPECT_EQ(take(s, false), want);
    });
  }
  return worm_leaps;
}

TEST(EngineEquiv, MicrostateOptTreeMesh16) {
  const auto topo = mesh::make_mesh2d(16);
  const MulticastTree tree = opt_tree(256, 256, 1997, 4096);
  EXPECT_GT(expect_same_microstates(*topo, SimConfig{},
                                    [&](Simulator& sim, const Drain& d) {
                                      drive_tree(sim, d, tree, 4096, 1);
                                    }),
            0);
}

TEST(EngineEquiv, MicrostateOptTreeBmin128) {
  const auto topo = bmin::make_bmin(128, bmin::UpPolicy::kAdaptive);
  const MulticastTree tree = opt_tree(128, 64, 9, 16384);
  EXPECT_GT(expect_same_microstates(*topo, SimConfig{},
                                    [&](Simulator& sim, const Drain& d) {
                                      drive_tree(sim, d, tree, 16384, 1);
                                    }),
            0);
}

TEST(EngineEquiv, MicrostateFaultRun) {
  // FaultsInsideSteadySpans' plan: a node kill, a link cut and its heal
  // inside steady spans, and rate drops on short messages.
  const auto topo = mesh::make_mesh2d(8);
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{900, 56});
  plan.link_events.push_back(FaultPlan::LinkEvent{1500, 9, 1, false});
  plan.link_events.push_back(FaultPlan::LinkEvent{2100, 9, 1, true});
  plan.drop_rate = 0.05;
  plan.seed = 3;
  EXPECT_GT(expect_same_microstates(*topo, SimConfig{},
                                    [&](Simulator& sim, const Drain& d) {
                                      sim.set_fault_plan(plan);
                                      sim.post(mk(0, 63, 3000));
                                      sim.post(mk(7, 56, 2500));
                                      sim.post(mk(8, 15, 2500));
                                      for (int i = 0; i < 12; ++i)
                                        sim.post(mk(16 + i, 47 - i, 30, 200 * i + 150));
                                      d(sim);
                                    }),
            0);
}

TEST(EngineEquiv, MicrostateRandomMesh4) {
  // Small random scenarios, where ties after a hand-off show whether the
  // event engine rebuilt every arbiter's rotating priority.
  const auto topo = mesh::make_mesh2d(4);
  for (unsigned seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    SimConfig cfg;
    cfg.router_delay = 1 + seed % 2;
    expect_same_microstates(*topo, cfg, [&](Simulator& sim, const Drain& d) {
      std::mt19937 rng(seed);
      const int count = 6 + static_cast<int>(rng() % 20);
      for (int i = 0; i < count; ++i) {
        const NodeId src = static_cast<NodeId>(rng() % 16);
        NodeId dst = static_cast<NodeId>(rng() % 16);
        if (dst == src) dst = (dst + 1) % 16;
        sim.post(mk(src, dst, 1 + static_cast<int>(rng() % 60),
                    static_cast<Time>(rng() % 200)));
      }
      d(sim);
    }, 8);
  }
}

// --- pinned microstate sequences ---------------------------------------

/// FNV-1a over a sequence of clocks and microstate digests.
struct DigestChain {
  std::uint64_t h = 14695981039346656037ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(const Simulator& s) {
    add(static_cast<std::uint64_t>(s.now()));
    add(s.microstate_digest());
  }
};

/// The cycle engine's microstate after every single step, and at
/// `points` cut horizons of one run with both leaps on.
struct MicrostateSequence {
  std::uint64_t stepped = 0;
  std::uint64_t cut = 0;
};

MicrostateSequence microstate_sequence(
    const Topology& topo, SimConfig cfg,
    const std::function<void(Simulator&, const Drain&)>& drive, int points = 12) {
  Time span = 0;
  {
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      run_whole(s);
      span = s.now();
    });
  }
  MicrostateSequence seq;
  DigestChain stepped;
  {
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      while (!s.idle()) {
        s.run_until_idle(s.now() + 1);
        stepped.add(s);
      }
    });
  }
  seq.stepped = stepped.h;
  DigestChain cut;
  {
    Simulator sim(topo, cfg);
    drive(sim, [&](Simulator& s) {
      for (int i = 1; i <= points; ++i) {
        s.run_until_idle(span * i / (points + 1) + 7 * i);
        if (s.idle()) break;
        cut.add(s);
      }
      run_whole(s);
      cut.add(s);
    });
  }
  seq.cut = cut.h;
  return seq;
}

TEST(EngineEquiv, PinnedMicrostateSequences) {
  // Every router's rotating arbiter start, port tables, FIFO contents and
  // stamps, and every NI, after each cycle of contended runs: recorded
  // from the eagerly bumped, fully swept cycle engine, so any later
  // engine must reproduce them step for step.
  struct Case {
    const char* name;
    std::function<MicrostateSequence()> run;
    std::uint64_t stepped;
    std::uint64_t cut;
  };
  const auto tree_case = [](const Topology& topo, SimConfig cfg, const MulticastTree& tree,
                            Bytes payload, int engines, int flits = 0) {
    return microstate_sequence(topo, cfg, [&](Simulator& sim, const Drain& d) {
      drive_tree(sim, d, tree, payload, engines, flits);
      EXPECT_GT(sim.stats().channel_conflicts, 0);
    });
  };
  const auto mesh16 = mesh::make_mesh2d(16);
  const auto mesh8 = mesh::make_mesh2d(8);
  const auto bmin128 = bmin::make_bmin(128, bmin::UpPolicy::kAdaptive);
  const mesh::MeshTopology two_port(MeshShape::square2d(8), mesh::RouteOrder::kHighestFirst,
                                    2);
  SimConfig delay2;
  delay2.router_delay = 2;
  SimConfig delay3;
  delay3.router_delay = 3;
  // MicrostateFaultRun's plan, plus three worms that climb columns 2, 4
  // and 5 and block behind the 0 -> 63 worm on the top row (their
  // upstream hops stand still): a link cut under the first one's standing
  // hops, a kill of the second one's destination, and a kill of the third
  // one's source.
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{900, 56});
  plan.node_events.push_back(FaultPlan::NodeEvent{700, 5});
  plan.node_events.push_back(FaultPlan::NodeEvent{800, 61});
  plan.link_events.push_back(FaultPlan::LinkEvent{1500, 9, 1, false});
  plan.link_events.push_back(FaultPlan::LinkEvent{2100, 9, 1, true});
  plan.link_events.push_back(FaultPlan::LinkEvent{600, 18, 3, false});
  plan.drop_rate = 0.05;
  plan.seed = 3;
  const std::vector<Case> cases = {
      {"mesh16 opt-tree k256 4KB",
       [&] { return tree_case(*mesh16, SimConfig{}, opt_tree(256, 256, 1997, 4096), 4096, 1); },
       0x9c42af1e27d81ae8ULL, 0x47504c048b736319ULL},
      {"bmin128 adaptive opt-tree",
       [&] { return tree_case(*bmin128, SimConfig{}, opt_tree(128, 64, 9, 16384), 16384, 1); },
       0x1b5fab640bb40d9ULL, 0x2c7d06d4d7d6fad9ULL},
      {"mesh8 router_delay 2",
       [&] { return tree_case(*mesh8, delay2, opt_tree(64, 64, 3, 4096), 4096, 1); },
       0x314447d178408fcbULL, 0x8085019f2b9e94d2ULL},
      {"mesh8 router_delay 3",
       [&] { return tree_case(*mesh8, delay3, opt_tree(64, 64, 3, 4096), 4096, 1); },
       0x1e9d07938d2e460bULL, 0xe13b8d5d8e4be86ULL},
      {"mesh8 two-port NI",
       [&] { return tree_case(two_port, SimConfig{}, opt_tree(64, 64, 13, 8192), 8192, 2); },
       0x613d621c8b7bcfe2ULL, 0xfb062d3b508f71d8ULL},
      {"mesh8 single-flit multicast behind blocked heads",
       [&] {
         const MulticastTree tree = opt_tree(64, 64, 17, 0);
         return microstate_sequence(*mesh8, SimConfig{}, [&](Simulator& sim, const Drain& d) {
           // Long worms hold every row's channels, both ways, while the
           // tree's one-flit sends cross them.
           for (int row = 0; row < 8; ++row) {
             sim.post(mk(8 * row, 8 * row + 7, 3000, 10 * row));
             sim.post(mk(8 * row + 7, 8 * row, 3000, 10 * row));
           }
           drive_tree(sim, d, tree, 0, 1, 1);
           // One-flit sends queue behind the blocked ones from their NI.
           int held_up = 0;
           for (const Message& m : sim.messages().all())
             held_up += m.flits == 1 && m.delivered - m.inject_start > 100 ? 1 : 0;
           EXPECT_GT(held_up, 5);
         });
       },
       0x6e9044584512e3a7ULL, 0x7361e4716f18b6efULL},
      {"mesh8 faults under standing worms",
       [&] {
         return microstate_sequence(*mesh8, SimConfig{}, [&](Simulator& sim, const Drain& d) {
           sim.set_fault_plan(plan);
           sim.post(mk(0, 63, 3000));
           sim.post(mk(7, 56, 2500));
           sim.post(mk(8, 15, 2500));
           sim.post(mk(2, 61, 300, 100));
           sim.post(mk(4, 61, 300, 100));
           sim.post(mk(5, 62, 300, 100));
           for (int i = 0; i < 12; ++i) sim.post(mk(16 + i, 47 - i, 30, 200 * i + 150));
           d(sim);
           const auto& m = sim.messages();
           EXPECT_EQ(m.at(3).dropped, 600);
           EXPECT_EQ(m.at(3).drop_reason, DropReason::kLinkDown);
           EXPECT_EQ(m.at(4).drop_reason, DropReason::kNodeDead);
           EXPECT_EQ(m.at(5).dropped, 700);
           EXPECT_EQ(m.at(5).drop_reason, DropReason::kSenderDead);
           for (const MsgId id : {3, 4, 5}) EXPECT_GT(m.at(id).block_cycles, 400) << id;
         });
       },
       0x951b2e9bc4dfdb1aULL, 0xd87a1f18a1576bfULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const MicrostateSequence got = c.run();
    EXPECT_EQ(got.stepped, c.stepped) << std::hex << "0x" << got.stepped;
    EXPECT_EQ(got.cut, c.cut) << std::hex << "0x" << got.cut;
  }
}

TEST(EngineEquiv, PurgeAheadOfAStandingWorm) {
  // Worm 3 -> 27 holds router 27's ejection channel.  The one-flit
  // message 24 -> 27 waits for it at router 27's west input, and worm
  // 25 -> 31 runs along row 3 into the same FIFO behind it: its hops
  // back up and stand behind the one-flit head.  Node 27 dies at 500, so
  // that head is purged, not granted; the purge must return the standing
  // hops to the transfer sweep, or the worm behind never moves again.
  const auto topo = mesh::make_mesh2d(8);
  FaultPlan plan;
  plan.node_events.push_back(FaultPlan::NodeEvent{500, 27});
  SimConfig cfg;
  cfg.watchdog_cycles = 5000;
  const auto drive = [&](Simulator& sim, const Drain& d) {
    sim.set_fault_plan(plan);
    sim.post(mk(3, 27, 3000));
    sim.post(mk(24, 27, 1, 50));
    sim.post(mk(25, 31, 400, 60));
    d(sim);
  };
  {
    // A wedged worm trips the watchdog in one whole run; the stepwise
    // reference below restarts its stall count at every step.
    Simulator sim(*topo, cfg);
    ASSERT_NO_THROW(drive(sim, run_whole));
    ASSERT_EQ(sim.run_status(), RunStatus::kCompleted);
  }
  const RunCapture got = leap_exact(*topo, cfg, drive);
  ASSERT_EQ(got.messages.size(), 3U);
  EXPECT_EQ(got.messages[1].dropped, 500);
  EXPECT_EQ(got.messages[1].drop_reason, DropReason::kNodeDead);
  EXPECT_GT(got.messages[2].delivered, 500);
}

}  // namespace
}  // namespace pcm::sim
