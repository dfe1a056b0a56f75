// Group membership, source failover, and partition healing (DESIGN.md §6.7).
//
//   * detector ladder: a fail-stopped member walks alive -> suspect ->
//     crashed; a partitioned member walks alive -> suspect -> unreachable
//     and reports healed once the cut lifts; plurality adjudication is
//     deterministic;
//   * failover acceptance: a mid-stream source fail-stop on the 16x16
//     mesh completes via deterministic succession with every survivor's
//     prefix intact, bit-identically across repeated runs, and the
//     successor is the survivor with the highest delivered prefix (ties
//     to the lowest id), not simply the lowest id;
//   * healing acceptance: a partition that outlives the confirm ladder
//     evicts the minority receivers, and the heal re-admits every one of
//     them at the current epoch with a full catch-up;
//   * a sub-threshold blip is absorbed by the retry ladder alone: no
//     suspicion confirm, no eviction, no epoch bump;
//   * the stream auditor rejects forged traces: split-brain injections,
//     failover prefix regressions, rejoin prefix discontinuities, and
//     rejoins of crashed (non-partitioned) members.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/sampling.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/membership.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "verify/chaos.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm {
namespace {

using Kind = rt::StreamEvent::Kind;
using MKind = rt::MembershipEvent::Kind;

std::vector<NodeId> lower_half(int n) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n / 2; ++v) out.push_back(v);
  return out;
}

std::vector<NodeId> upper_half(int n) {
  std::vector<NodeId> out;
  for (NodeId v = n / 2; v < n; ++v) out.push_back(v);
  return out;
}

rt::StreamConfig membership_config(const MeshShape* shape, int window,
                                   int slots, Time heartbeat, Bytes bytes) {
  rt::StreamConfig cfg;
  cfg.window_size = window;
  cfg.slots = slots;
  cfg.bytes = bytes;
  cfg.alg = McastAlgorithm::kOptMesh;
  cfg.shape = shape;
  cfg.reliable = true;
  cfg.record_trace = true;
  cfg.membership.heartbeat_period = heartbeat;
  return cfg;
}

// --- MembershipService: the detector ladder -------------------------------

TEST(MembershipService, FailStopWalksSuspectThenCrashed) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({50, 5});
  sim.set_fault_plan(plan);
  sim.advance_idle_to(60);

  rt::MembershipService svc(sim, {0, 5, 10},
                            {.heartbeat_period = 100, .suspect_after = 2,
                             .confirm_after = 4});
  // Miss 1: below the suspicion threshold, silent.
  EXPECT_TRUE(svc.sweep(0).empty());
  EXPECT_EQ(svc.state(1), rt::MemberState::kAlive);
  // Miss 2: suspect.
  auto events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kSuspect);
  EXPECT_EQ(events[0].member, 1);
  EXPECT_EQ(svc.state(1), rt::MemberState::kSuspect);
  // Miss 3: still suspect, no repeat event.
  EXPECT_TRUE(svc.sweep(0).empty());
  // Miss 4: confirmed.  Node 5 is still round-trip reachable over live
  // channels, so only a fail-stop explains the silence: crashed.
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kCrashed);
  EXPECT_EQ(svc.state(1), rt::MemberState::kCrashed);
  // The verdict is permanent; the healthy member never left alive.
  EXPECT_TRUE(svc.sweep(0).empty());
  EXPECT_EQ(svc.state(2), rt::MemberState::kAlive);
}

TEST(MembershipService, PartitionWalksSuspectUnreachableThenHealed) {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 50, 950));
  sim.advance_idle_to(60);

  // Observer 0 and member 5 share the lower half; member 10 is cut off.
  rt::MembershipService svc(sim, {0, 5, 10},
                            {.heartbeat_period = 100, .suspect_after = 2,
                             .confirm_after = 4});
  EXPECT_TRUE(svc.sweep(0).empty());
  auto events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kSuspect);
  EXPECT_EQ(events[0].member, 2);
  EXPECT_TRUE(svc.sweep(0).empty());
  // Confirm: every route to node 10 crosses the cut, so the verdict is
  // unreachable (rejoinable), not crashed.
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kUnreachable);
  EXPECT_EQ(svc.state(2), rt::MemberState::kUnreachable);
  // Plurality: the lower half holds 2 of the 3 up members.
  EXPECT_EQ(svc.plurality_members(), (std::vector<int>{0, 1}));

  // Heal the cut: the member answers again, repeatedly, until readmitted.
  sim.advance_idle_to(1000);
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kHealed);
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kHealed);
  svc.readmit(2);
  EXPECT_EQ(svc.state(2), rt::MemberState::kAlive);
  EXPECT_TRUE(svc.sweep(0).empty());
}

TEST(MembershipService, SuspicionClearsWhenTheLeaseRenews) {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  sim::Simulator sim(*topo);
  // A blip two sweeps long: suspicion fires but never confirms.
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 50, 250));
  sim.advance_idle_to(60);
  rt::MembershipService svc(sim, {0, 10},
                            {.heartbeat_period = 100, .suspect_after = 2,
                             .confirm_after = 4});
  EXPECT_TRUE(svc.sweep(0).empty());
  auto events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kSuspect);
  sim.advance_idle_to(300);
  events = svc.sweep(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, MKind::kClear);
  EXPECT_EQ(svc.state(1), rt::MemberState::kAlive);
}

// --- failover acceptance (ISSUE: 16x16 mesh, mid-stream source kill) ------

rt::StreamResult run_source_kill(Time heartbeat, bool failover,
                                 const sim::Topology& topo,
                                 const analysis::Placement& p, int slots) {
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg = membership_config(
      &static_cast<const mesh::MeshTopology&>(topo).shape(), 8, slots,
      heartbeat, 256);
  cfg.failover = failover;
  sim::Simulator sim(topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({6000, p.source});
  sim.set_fault_plan(plan);
  return srt.run(sim, p.source, p.dests, cfg);
}

TEST(StreamFailover, MidStreamSourceKillCompletesViaSuccession) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const int slots = 32;
  const rt::StreamResult r = run_source_kill(600, true, *topo, p, slots);

  EXPECT_EQ(r.failovers, 1) << "exactly one succession";
  EXPECT_GE(r.epoch, 1);
  EXPECT_EQ(r.committed, slots) << "the survivor frontier must drain";
  ASSERT_EQ(r.dead_nodes.size(), 1u);
  EXPECT_EQ(r.dead_nodes[0], p.source);
  // Every surviving position ends with the complete stream.
  for (std::size_t pos = 0; pos < r.delivered_prefix.size(); ++pos) {
    if (r.delivered_prefix[pos] != slots) {
      EXPECT_EQ(r.delivered_prefix[pos], 0)
          << "pos " << pos << " is neither the dead source nor a survivor "
          << "with the full stream";
    }
  }
  EXPECT_TRUE(r.complete) << "commit is defined over surviving receivers";
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r));

  // The trace must witness the succession: a kFailover event whose
  // successor prefix covers the committed frontier at that instant.
  const auto it = std::find_if(
      r.trace.begin(), r.trace.end(),
      [](const rt::StreamEvent& ev) { return ev.kind == Kind::kFailover; });
  ASSERT_NE(it, r.trace.end());
  EXPECT_EQ(it->epoch, 1);

  // Determinism: the identical scenario replays bit-identically.
  const rt::StreamResult r2 = run_source_kill(600, true, *topo, p, slots);
  EXPECT_EQ(r.makespan, r2.makespan);
  EXPECT_EQ(r.trace.size(), r2.trace.size());
  EXPECT_EQ(r.retries, r2.retries);
  EXPECT_EQ(r.delivered_prefix, r2.delivered_prefix);
}

TEST(StreamFailover, WithoutFailoverTheDeadSourceEndsTheStream) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const rt::StreamResult r = run_source_kill(600, false, *topo, p, 32);
  EXPECT_EQ(r.failovers, 0);
  EXPECT_LT(r.committed, 32) << "no succession: the stream halts";
  EXPECT_FALSE(r.complete);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r));
}

// Succession rule: the plurality member with the highest delivered prefix
// at the failover instant takes over, ties to the lowest node id — not
// simply the lowest surviving id.  In this scenario (no partition, so
// every survivor is in the plurality) the two rules disagree: the
// lowest-id survivor has the shorter prefix.
TEST(StreamFailover, SuccessorHasTheHighestPrefixNotTheLowestId) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(6, topo->num_nodes(), 12, 1)[0];
  const int slots = 32;
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg =
      membership_config(&static_cast<const mesh::MeshTopology&>(*topo).shape(),
                        8, slots, 600, 256);
  cfg.failover = true;
  std::vector<NodeId> chain;  // original chain: position -> node id
  cfg.on_reconfigure = [&](const MulticastTree& t) {
    if (chain.empty()) chain = t.chain.nodes;
  };
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({8000, p.source});
  sim.set_fault_plan(plan);
  const rt::StreamResult r = srt.run(sim, p.source, p.dests, cfg);
  ASSERT_EQ(r.failovers, 1);

  // Replay the trace up to the failover: per-position delivered slots.
  std::vector<std::vector<char>> got(chain.size(),
                                     std::vector<char>(slots, 0));
  const rt::StreamEvent* failover = nullptr;
  for (const rt::StreamEvent& ev : r.trace) {
    if (ev.kind == Kind::kFailover) {
      failover = &ev;
      break;
    }
    if (ev.kind == Kind::kDeliver)
      got[static_cast<std::size_t>(ev.pos)][static_cast<std::size_t>(ev.slot)] = 1;
  }
  ASSERT_NE(failover, nullptr);
  auto prefix = [&](std::size_t pos) {
    int n = 0;
    while (n < slots && got[pos][static_cast<std::size_t>(n)]) ++n;
    return n;
  };
  std::size_t best = chain.size(), lowest = chain.size();
  for (std::size_t pos = 0; pos < chain.size(); ++pos) {
    if (chain[pos] == p.source) continue;
    if (best == chain.size() || prefix(pos) > prefix(best) ||
        (prefix(pos) == prefix(best) && chain[pos] < chain[best]))
      best = pos;
    if (lowest == chain.size() || chain[pos] < chain[lowest]) lowest = pos;
  }
  EXPECT_EQ(failover->pos, static_cast<int>(best));
  EXPECT_EQ(failover->slot, prefix(best));
  EXPECT_LT(prefix(lowest), prefix(best))
      << "the scenario must separate the two rules";
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r));
}

// --- partition healing acceptance -----------------------------------------

TEST(StreamRejoin, PartitionThenHealReadmitsEveryEvictedReceiver) {
  // Source and the plurality stay in the lower half; three receivers are
  // cut off long enough for the confirm ladder, then the cut heals.  The
  // stream must evict them as unreachable, keep streaming to the
  // survivors, re-admit every one of them on heal, and end complete.
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const NodeId source = 0;
  const std::vector<NodeId> dests = {1, 2, 5, 9, 10, 14};

  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 48, 400, 256);
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 3000, 9000));

  const rt::StreamResult r = srt.run(sim, source, dests, cfg);
  EXPECT_EQ(r.rejoins, 3) << "all three cut-off receivers must re-admit";
  EXPECT_TRUE(r.unreachable_nodes.empty())
      << "nobody is still unreachable at the end";
  EXPECT_TRUE(r.dead_nodes.empty());
  EXPECT_EQ(r.committed, 48);
  EXPECT_TRUE(r.complete) << "delta catch-up must backfill the missed slots";
  EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r));

  // Eviction then readmission, in that order, for each healed receiver.
  int partitions = 0, rejoins = 0;
  for (const rt::StreamEvent& ev : r.trace) {
    if (ev.kind == Kind::kPartition) ++partitions;
    if (ev.kind == Kind::kRejoin) ++rejoins;
  }
  EXPECT_EQ(partitions, 3);
  EXPECT_EQ(rejoins, 3);
}

// --- satellite: sub-threshold blips are not failures ----------------------

TEST(StreamMembership, LinkBlipIsAbsorbedByRetriesWithoutEviction) {
  // The cut lasts one heartbeat period — under suspect_after * period —
  // so the detector may suspect but never confirms: no eviction, no
  // epoch bump, no death, and the retry ladder backfills anything the
  // blip dropped or delayed.
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  const NodeId source = 0;
  const std::vector<NodeId> dests = {2, 5, 9, 14};

  std::vector<Time> makespans;
  for (int rep = 0; rep < 2; ++rep) {
    rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 24, 800, 256);
    cfg.failover = true;
    cfg.rejoin = true;
    sim::Simulator sim(*topo);
    sim.set_fault_plan(
        sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 1500, 2300));
    const rt::StreamResult r = srt.run(sim, source, dests, cfg);
    EXPECT_EQ(r.epoch, 0) << "a blip must not reconfigure the group";
    EXPECT_EQ(r.failovers, 0);
    EXPECT_EQ(r.rejoins, 0);
    EXPECT_TRUE(r.dead_nodes.empty());
    EXPECT_TRUE(r.unreachable_nodes.empty());
    EXPECT_EQ(r.committed, 24);
    EXPECT_TRUE(r.complete);
    EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r));
    makespans.push_back(r.makespan);
  }
  EXPECT_EQ(makespans[0], makespans[1]) << "the blip run must be deterministic";
}

// --- forged traces must be rejected ---------------------------------------

rt::StreamResult failover_trace() {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  return run_source_kill(600, true, *topo, p, 32);
}

template <typename Doctor>
void expect_audit_rejects(rt::StreamResult r, verify::Invariant want,
                          Doctor&& doctor) {
  ASSERT_NO_THROW(verify::InvariantAuditor::audit_stream(r));
  ASSERT_TRUE(doctor(r)) << "the trace lacks the event to doctor";
  try {
    verify::InvariantAuditor::audit_stream(r);
    FAIL() << "the forged trace must be caught";
  } catch (const verify::InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), want) << v.what();
  }
}

TEST(StreamAuditor, CatchesInjectionFromTheDeposedSource) {
  // After succession, an inject attributed to the old source is split
  // brain: two active sources in one epoch.
  expect_audit_rejects(
      failover_trace(), verify::Invariant::kStreamEpoch,
      [](rt::StreamResult& r) {
        int old_producer = -1;
        bool failed_over = false;
        for (rt::StreamEvent& ev : r.trace) {
          if (ev.kind == Kind::kInject && old_producer < 0)
            old_producer = ev.pos;
          if (ev.kind == Kind::kFailover) failed_over = true;
          if (failed_over && ev.kind == Kind::kInject) {
            ev.pos = old_producer;
            return true;
          }
        }
        return false;
      });
}

TEST(StreamAuditor, CatchesFailoverPrefixRegression) {
  // A successor claiming less than the committed frontier would roll
  // back slots the group already acknowledged.
  expect_audit_rejects(failover_trace(), verify::Invariant::kStreamGap,
                       [](rt::StreamResult& r) {
                         for (rt::StreamEvent& ev : r.trace)
                           if (ev.kind == Kind::kFailover) {
                             ev.slot = 0;
                             return true;
                           }
                         return false;
                       });
}

rt::StreamResult rejoin_trace() {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 48, 400, 256);
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 3000, 9000));
  return srt.run(sim, 0, std::vector<NodeId>{1, 2, 5, 9, 10, 14}, cfg);
}

TEST(StreamAuditor, CatchesRejoinPrefixDiscontinuity) {
  // A rejoiner must resume exactly at its delivered prefix; claiming one
  // slot more would leave a hole no catch-up ever fills.
  expect_audit_rejects(rejoin_trace(), verify::Invariant::kStreamGap,
                       [](rt::StreamResult& r) {
                         for (rt::StreamEvent& ev : r.trace)
                           if (ev.kind == Kind::kRejoin) {
                             ++ev.slot;
                             return true;
                           }
                         return false;
                       });
}

TEST(StreamAuditor, CatchesRejoinOfACrashedMember) {
  // Flip one eviction from kPartition (unreachable, rejoinable) to
  // kEpoch (crashed): the later rejoin of that position must be rejected
  // — crashed members never come back.
  expect_audit_rejects(
      rejoin_trace(), verify::Invariant::kStreamEpoch,
      [](rt::StreamResult& r) {
        for (rt::StreamEvent& doomed : r.trace)
          if (doomed.kind == Kind::kPartition) {
            for (const rt::StreamEvent& ev : r.trace)
              if (ev.kind == Kind::kRejoin && ev.pos == doomed.pos) {
                doomed.kind = Kind::kEpoch;
                return true;
              }
          }
        return false;
      });
}

// --- chaos coverage --------------------------------------------------------

TEST(StreamChaos, GeneratorExercisesFailoverAndRejoin) {
  // The streaming scenario families must actually produce membership
  // scenarios (source kills under failover, partitions under rejoin) and
  // every one must execute audit-clean.
  int failovers = 0, rejoins = 0;
  for (int i = 0; i < 60; ++i) {
    const verify::ChaosScenario s = verify::make_stream_scenario(11, i);
    const verify::ScenarioOutcome out = verify::run_scenario(s);
    EXPECT_FALSE(out.violated)
        << "scenario " << i << ": " << out.violation << "\n"
        << verify::repro_command(s);
    failovers += out.failovers;
    rejoins += out.rejoins;
  }
  EXPECT_GT(failovers, 0) << "no scenario exercised source succession";
  EXPECT_GT(rejoins, 0) << "no scenario exercised partition healing";
}

TEST(StreamChaos, ReproCommandNamesMembershipFlags) {
  for (int i = 0; i < 200; ++i) {
    const verify::ChaosScenario s = verify::make_stream_scenario(11, i);
    if (s.heartbeat <= 0 || !s.failover || !s.rejoin) continue;
    const std::string cmd = verify::repro_command(s);
    EXPECT_NE(cmd.find("--heartbeat"), std::string::npos) << cmd;
    EXPECT_NE(cmd.find("--failover"), std::string::npos) << cmd;
    EXPECT_NE(cmd.find("--rejoin"), std::string::npos) << cmd;
    return;
  }
  FAIL() << "no generated scenario enables heartbeat+failover+rejoin";
}

}  // namespace
}  // namespace pcm
