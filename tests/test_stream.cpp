// Streaming multicast runtime tests (DESIGN.md §6.6).
//
//   * equivalence anchor: a fault-free window-1 stream executes each slot
//     cycle-for-cycle identically to a chain of MulticastRuntime::run()
//     calls, each started at the previous slot's commit time;
//   * pipelining: widening the window strictly improves stream makespan
//     while the occupancy invariant (<= window_size) holds;
//   * robustness acceptance: a mid-stream node kill recovers via an epoch
//     bump — every surviving receiver ends with a gap-free delivered
//     prefix of the whole stream, stale-epoch acks are rejected, and the
//     stream never wedges;
//   * the stream auditor passes on seeded chaos-stream scenarios, catches
//     a deliberately injected stale-epoch ack, refuses a wrapped recorder,
//     and the chaos sweep is bit-identical at any thread fan-out.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "analysis/sampling.hpp"
#include "mesh/mesh_topology.hpp"
#include "recorded_stream.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "verify/chaos.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm {
namespace {

rt::StreamConfig base_config(const MeshShape* shape, int window, int slots,
                             Bytes bytes = 1024) {
  rt::StreamConfig cfg;
  cfg.window_size = window;
  cfg.slots = slots;
  cfg.bytes = bytes;
  cfg.alg = McastAlgorithm::kOptMesh;
  cfg.shape = shape;
  return cfg;
}

// --- fault-free fast path -------------------------------------------------

TEST(StreamRuntime, Window1MatchesSequentialRunsCycleForCycle) {
  // The acceptance anchor: stop-and-wait streaming is *defined* as N
  // back-to-back one-shot multicasts.  Every per-receiver completion time
  // and every commit time must match a chain of run() calls exactly.
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(21, 64, 12, 1)[0];
  const int slots = 6;
  const Bytes bytes = 2048;

  rt::StreamConfig cfg = base_config(&topo->shape(), 1, slots, bytes);
  cfg.record_slot_times = true;
  sim::Simulator stream_sim(*topo);
  const rt::StreamResult sr = srt.run(stream_sim, p.source, p.dests, cfg);
  ASSERT_EQ(sr.committed, slots);
  ASSERT_TRUE(sr.complete);
  EXPECT_EQ(sr.max_window_occupancy, 1);

  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(bytes, 1));
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                             p.dests, tp, &topo->shape());
  sim::Simulator seq_sim(*topo);
  Time start = 0;
  for (int s = 0; s < slots; ++s) {
    const rt::McastResult r = rtm.run(seq_sim, tree, bytes, start);
    const Time commit = start + r.latency;
    EXPECT_EQ(sr.commit_time[static_cast<std::size_t>(s)], commit)
        << "slot " << s;
    for (int pos = 0; pos < tree.num_nodes(); ++pos) {
      if (pos == tree.chain.source_pos) continue;
      EXPECT_EQ(sr.slot_recv[static_cast<std::size_t>(s)]
                            [static_cast<std::size_t>(pos)],
                r.recv_complete[static_cast<std::size_t>(pos)])
          << "slot " << s << " position " << pos;
    }
    start = commit;
  }
  EXPECT_EQ(sr.makespan, start);
  // Same flit traffic, cycle for cycle, on both simulators.
  EXPECT_EQ(stream_sim.stats().flit_hops, seq_sim.stats().flit_hops);
  EXPECT_EQ(sr.channel_conflicts, 0);
}

TEST(StreamRuntime, PipeliningImprovesThroughput) {
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(23, 64, 16, 1)[0];
  const int slots = 32;
  std::vector<Time> makespan;
  for (const int window : {1, 4, 8}) {
    sim::Simulator sim(*topo);
    const rt::StreamResult r =
        srt.run(sim, p.source, p.dests, base_config(&topo->shape(), window, slots));
    EXPECT_TRUE(r.complete);
    EXPECT_EQ(r.committed, slots);
    makespan.push_back(r.makespan);
  }
  // Widening the window strictly beats stop-and-wait; past the point
  // where the source's t_hold rate saturates, it can only tie.
  EXPECT_LT(makespan[1], makespan[0]) << "window 4 must pipeline";
  EXPECT_LE(makespan[2], makespan[1]);
}

TEST(StreamRuntime, WindowOccupancyIsBoundedAndAuditClean) {
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(29, 64, 10, 1)[0];
  sim::Simulator sim(*topo);
  const RecordedStream run = run_recorded(srt, sim, p.source, p.dests,
                                          base_config(&topo->shape(), 4, 20));
  const rt::StreamResult& r = run.res;
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.max_window_occupancy, 1) << "the pipeline must actually fill";
  EXPECT_LE(r.max_window_occupancy, 4);
  EXPECT_NO_THROW(run.audit());
}

TEST(StreamRuntime, BadConfigsAreRejected) {
  const auto topo = mesh::make_mesh2d(4);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(3, 16, 4, 1)[0];
  sim::Simulator sim(*topo);
  rt::StreamConfig cfg = base_config(&topo->shape(), 1, 1);
  cfg.window_size = 0;
  EXPECT_THROW(srt.run(sim, p.source, p.dests, cfg), std::invalid_argument);
  cfg = base_config(&topo->shape(), 1, 0);
  EXPECT_THROW(srt.run(sim, p.source, p.dests, cfg), std::invalid_argument);
  cfg = base_config(&topo->shape(), 1, 1);
  EXPECT_THROW(srt.run(sim, p.source, std::span<const NodeId>{}, cfg),
               std::invalid_argument);
  // The reliable stream's retry policy is checked where run_reliable's is.
  cfg.reliable = true;
  for (const auto& edit : std::vector<std::function<void(rt::FtConfig&)>>{
           [](rt::FtConfig& ft) { ft.max_retries = -1; },
           [](rt::FtConfig& ft) { ft.max_retries = 41; },
           [](rt::FtConfig& ft) { ft.timeout_scale = 0.5; },
           [](rt::FtConfig& ft) { ft.timeout_slack = -1; }}) {
    cfg.ft = rt::FtConfig{};
    edit(cfg.ft);
    EXPECT_THROW(srt.run(sim, p.source, p.dests, cfg), std::invalid_argument);
  }
  cfg = base_config(&topo->shape(), 1, 1);
  // A fault plan without the reliable protocol would silently lose slots;
  // the runtime refuses up front.
  sim::FaultPlan plan;
  plan.drop_rate = 0.01;
  plan.seed = 1;
  sim.set_fault_plan(plan);
  EXPECT_THROW(srt.run(sim, p.source, p.dests, cfg), std::logic_error);
}

// --- reliable path: epoch-based recovery ----------------------------------

TEST(StreamRuntime, MidStreamKillRecoversViaEpochBump) {
  // One interior destination fail-stops mid-stream.  The protocol must
  //   * declare it dead and bump the epoch exactly once,
  //   * re-split the chain over the survivors and replay unacked slots,
  //   * finish the stream with every survivor holding a gap-free prefix
  //     of *all* slots (commit is defined over survivors),
  //   * keep the trace audit-clean, stale acks included.
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(31, 64, 10, 1)[0];
  const int slots = 24;

  rt::StreamConfig cfg = base_config(&topo->shape(), 4, slots, 512);
  cfg.reliable = true;

  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(512, 1));
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                             p.dests, tp, &topo->shape());
  // Kill a forwarding (interior) destination so its subtree is orphaned
  // mid-pipeline, a few slots into the stream.
  NodeId victim = kInvalidNode;
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos || tree.out[static_cast<std::size_t>(pos)].empty())
      continue;
    victim = tree.node(pos);
    break;
  }
  ASSERT_NE(victim, kInvalidNode);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({4 * model_latency(tree, tp), victim});
  sim.set_fault_plan(plan);

  const RecordedStream run = run_recorded(srt, sim, p.source, p.dests, cfg);
  const rt::StreamResult& r = run.res;
  EXPECT_EQ(r.epoch, 1) << "exactly one reconfiguration";
  ASSERT_EQ(r.dead_nodes.size(), 1u);
  EXPECT_EQ(r.dead_nodes[0], victim);
  EXPECT_EQ(r.committed, slots) << "the survivor frontier must drain";
  EXPECT_FALSE(r.complete) << "the dead receiver is missing slots";
  EXPECT_LT(r.delivered_fraction, 1.0);
  EXPECT_GT(r.retries, 0);
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (tree.node(pos) == victim) continue;
    EXPECT_EQ(r.delivered_prefix[static_cast<std::size_t>(pos)], slots)
        << "survivor position " << pos << " must hold a gap-free prefix";
  }
  EXPECT_NO_THROW(run.audit());
}

TEST(StreamRuntime, DropStormStreamIsAbsorbedByRetries) {
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(37, 64, 8, 1)[0];
  rt::StreamConfig cfg = base_config(&topo->shape(), 2, 12, 256);
  cfg.reliable = true;
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.drop_rate = 0.02;
  plan.seed = 17;
  sim.set_fault_plan(plan);
  const RecordedStream run = run_recorded(srt, sim, p.source, p.dests, cfg);
  EXPECT_TRUE(run.res.complete);
  EXPECT_EQ(run.res.epoch, 0);
  EXPECT_GT(run.res.retries, 0);
  EXPECT_NO_THROW(run.audit());

  // The same run recorded into a ring smaller than the run wraps; the
  // audit refuses it rather than replay a trace missing its start.
  obs::FlightRecorder ring(obs::RecorderConfig{64});
  cfg.recorder = &ring;
  sim::Simulator sim2(*topo);
  sim2.set_fault_plan(plan);
  const rt::StreamResult r2 = srt.run(sim2, p.source, p.dests, cfg);
  ASSERT_GT(ring.events_dropped(), 0u);
  EXPECT_THROW(verify::InvariantAuditor::audit_stream(r2, ring.snapshot(),
                                                      ring.events_dropped()),
               std::invalid_argument);
}

// --- the stream auditor ---------------------------------------------------

TEST(StreamAuditor, CatchesInjectedStaleEpochAck) {
  // Replay the mid-stream-kill trace, but doctor one post-reconfiguration
  // delivery to claim it came from the dead epoch: exactly the bug the
  // stale-ack rejection exists to prevent.  audit_stream must flag it.
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const auto p = analysis::sample_placements(31, 64, 10, 1)[0];
  rt::StreamConfig cfg = base_config(&topo->shape(), 4, 24, 512);
  cfg.reliable = true;
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(512, 1));
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                             p.dests, tp, &topo->shape());
  NodeId victim = kInvalidNode;
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos || tree.out[static_cast<std::size_t>(pos)].empty())
      continue;
    victim = tree.node(pos);
    break;
  }
  ASSERT_NE(victim, kInvalidNode);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({4 * model_latency(tree, tp), victim});
  sim.set_fault_plan(plan);
  RecordedStream run = run_recorded(srt, sim, p.source, p.dests, cfg);
  ASSERT_EQ(run.res.epoch, 1);
  ASSERT_NO_THROW(run.audit());

  bool doctored = false;
  bool seen_epoch = false;
  for (obs::TraceEvent& ev : run.events) {
    if (ev.event_kind() == obs::EventKind::kEpochBump) seen_epoch = true;
    // kSlotDeliver: a = slot, b = epoch, c = receiver position.
    if (seen_epoch && ev.event_kind() == obs::EventKind::kSlotDeliver &&
        ev.b == 1) {
      ev.b = 0;  // an old-epoch delivery that advanced new-epoch state
      doctored = true;
      break;
    }
  }
  ASSERT_TRUE(doctored) << "the kill must leave post-epoch deliveries to doctor";
  try {
    run.audit();
    FAIL() << "the stale-epoch ack must be caught";
  } catch (const verify::InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), verify::Invariant::kStreamEpoch) << v.what();
  }
}

TEST(StreamChaos, SeededScenariosAuditClean) {
  // Forty seeded streaming scenarios (mid-stream kills, drops, corruption,
  // every window shape) must execute audit-clean end to end.
  for (int i = 0; i < 40; ++i) {
    const verify::ChaosScenario s = verify::make_stream_scenario(1234, i);
    ASSERT_GT(s.stream_len, 0);
    const verify::ScenarioOutcome out = verify::run_scenario(s);
    EXPECT_FALSE(out.violated)
        << "scenario " << i << ": " << out.violation << "\n"
        << verify::repro_command(s);
  }
}

TEST(StreamChaos, SweepIsBitIdenticalAtAnyJobCount) {
  verify::ChaosConfig cfg;
  cfg.scenarios = 24;
  cfg.seed = 99;
  cfg.streaming = true;
  cfg.max_minimized = 0;
  cfg.jobs = 1;
  const verify::ChaosReport serial = verify::run_chaos(cfg);
  cfg.jobs = 4;
  const verify::ChaosReport fanned = verify::run_chaos(cfg);
  EXPECT_EQ(serial.violations, fanned.violations);
  EXPECT_EQ(serial.watchdogs, fanned.watchdogs);
  EXPECT_EQ(serial.retries, fanned.retries);
  EXPECT_EQ(serial.epochs, fanned.epochs);
  EXPECT_EQ(serial.stale_acks, fanned.stale_acks);
  EXPECT_EQ(serial.dropped, fanned.dropped);
  EXPECT_DOUBLE_EQ(serial.mean_delivered, fanned.mean_delivered);
  EXPECT_EQ(serial.violating_indices, fanned.violating_indices);
}

TEST(StreamChaos, ReproCommandNamesStreamFlags) {
  const verify::ChaosScenario s = verify::make_stream_scenario(7, 0);
  const std::string cmd = verify::repro_command(s);
  EXPECT_NE(cmd.find("--stream"), std::string::npos) << cmd;
  EXPECT_NE(cmd.find("--window"), std::string::npos) << cmd;
}

}  // namespace
}  // namespace pcm
