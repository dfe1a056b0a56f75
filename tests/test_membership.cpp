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
//     rejoins of crashed (non-partitioned) members;
//   * the cached component labeling answers every reachability and
//     plurality query exactly as forward/backward walks would, across
//     seeded link failures and heals on a mesh and a BMIN, and
//     Simulator::liveness_version() moves on link events only;
//   * a golden run pins the reliable wait loop's retransmission order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/recorder.hpp"
#include "recorded_stream.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/membership.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"
#include "verify/chaos.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm {
namespace {

using EK = obs::EventKind;
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

// --- reachability labeling vs. the two-walk oracle -------------------------

// The reference the component labeling replaced: for each query, a forward
// and a backward breadth-first walk over live channels from one router.
// Two members are round-trip reachable when each walk reaches the other's
// router and both ejection channels are live.
class ReachOracle {
 public:
  ReachOracle(const sim::Simulator& sim, std::vector<NodeId> members)
      : sim_(sim), topo_(sim.topology()), members_(std::move(members)) {
    const int routers = topo_.num_routers();
    rev_.assign(static_cast<std::size_t>(routers), {});
    eject_.assign(members_.size(), -1);
    for (int r = 0; r < routers; ++r) {
      for (int q = 0; q < topo_.radix(); ++q) {
        const sim::ChannelId c = topo_.channel_id(r, q);
        const sim::PortRef dst = topo_.link(r, q);
        if (dst.valid()) rev_[static_cast<std::size_t>(dst.router)].push_back(c);
        for (std::size_t m = 0; m < members_.size(); ++m)
          if (topo_.ejector(r, q) == members_[m] && eject_[m] < 0) eject_[m] = c;
      }
    }
    for (const NodeId v : members_) router_.push_back(topo_.node_attach(v).router);
  }

  /// Entry b: is member b round-trip reachable from member a?
  [[nodiscard]] std::vector<char> round_trip_from(int a) const {
    std::vector<char> fwd, bwd;
    walks(router_[static_cast<std::size_t>(a)], fwd, bwd);
    std::vector<char> out(members_.size(), 0);
    for (std::size_t b = 0; b < members_.size(); ++b) {
      const std::size_t rb = static_cast<std::size_t>(router_[b]);
      out[b] = static_cast<int>(b) == a
                   ? eject_live(a)
                   : fwd[rb] && bwd[rb] && eject_live(a) &&
                         eject_live(static_cast<int>(b));
    }
    return out;
  }

  // Largest set of up members grouped by round-trip reachability from the
  // lowest unlabeled member; ties to the lowest node id.  Every member is
  // unadjudicated here (the service under test never sweeps).
  [[nodiscard]] std::vector<int> plurality() const {
    const std::size_t n = members_.size();
    std::vector<int> label(n, -1);
    std::vector<std::vector<int>> comps;
    for (std::size_t m = 0; m < n; ++m) {
      if (sim_.node_failed(members_[m]) || label[m] != -1) continue;
      comps.emplace_back();
      const std::vector<char> reach = round_trip_from(static_cast<int>(m));
      for (std::size_t m2 = m; m2 < n; ++m2) {
        if (sim_.node_failed(members_[m2]) || label[m2] != -1) continue;
        if (m2 != m && !reach[m2]) continue;
        label[m2] = static_cast<int>(comps.size()) - 1;
        comps.back().push_back(static_cast<int>(m2));
      }
    }
    auto low = [&](const std::vector<int>& comp) {
      NodeId v = members_[static_cast<std::size_t>(comp.front())];
      for (const int m : comp) v = std::min(v, members_[static_cast<std::size_t>(m)]);
      return v;
    };
    const std::vector<int>* best = nullptr;
    for (const std::vector<int>& c : comps) {
      if (best == nullptr || c.size() > best->size() ||
          (c.size() == best->size() && low(c) < low(*best)))
        best = &c;
    }
    return best == nullptr ? std::vector<int>{} : *best;
  }

 private:
  [[nodiscard]] bool eject_live(int m) const {
    return sim_.channel_live(eject_[static_cast<std::size_t>(m)]);
  }

  void walks(int from, std::vector<char>& fwd, std::vector<char>& bwd) const {
    const std::size_t routers = static_cast<std::size_t>(topo_.num_routers());
    fwd.assign(routers, 0);
    bwd.assign(routers, 0);
    std::vector<int> queue{from};
    fwd[static_cast<std::size_t>(from)] = 1;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const int r = queue[h];
      for (int q = 0; q < topo_.radix(); ++q) {
        const sim::PortRef dst = topo_.link(r, q);
        if (!sim_.channel_live(topo_.channel_id(r, q)) || !dst.valid() ||
            fwd[static_cast<std::size_t>(dst.router)])
          continue;
        fwd[static_cast<std::size_t>(dst.router)] = 1;
        queue.push_back(dst.router);
      }
    }
    queue.assign(1, from);
    bwd[static_cast<std::size_t>(from)] = 1;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      for (const sim::ChannelId c : rev_[static_cast<std::size_t>(queue[h])]) {
        const int src = c / topo_.radix();
        if (!sim_.channel_live(c) || bwd[static_cast<std::size_t>(src)]) continue;
        bwd[static_cast<std::size_t>(src)] = 1;
        queue.push_back(src);
      }
    }
  }

  const sim::Simulator& sim_;
  const sim::Topology& topo_;
  std::vector<NodeId> members_;
  std::vector<int> router_;
  std::vector<sim::ChannelId> eject_;
  std::vector<std::vector<sim::ChannelId>> rev_;
};

// Channels a random fault may take down: router-to-router links and
// ejection channels.
std::vector<sim::ChannelId> fault_candidates(const sim::Topology& topo) {
  std::vector<sim::ChannelId> out;
  for (int r = 0; r < topo.num_routers(); ++r)
    for (int q = 0; q < topo.radix(); ++q)
      if (topo.link(r, q).valid() || topo.ejector(r, q) != kInvalidNode)
        out.push_back(topo.channel_id(r, q));
  return out;
}

// Seeded rounds of random link-down sets, each healed link by link, on one
// simulator and one MembershipService: the cached labeling must follow
// every change in both directions and agree with the oracle at each step.
void expect_labeling_matches_oracle(const sim::Topology& topo,
                                    std::uint64_t seed) {
  std::vector<NodeId> members;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) members.push_back(v);
  const std::vector<sim::ChannelId> candidates = fault_candidates(topo);
  std::mt19937_64 rng(seed);
  sim::FaultPlan plan;
  std::vector<Time> steps;
  for (int round = 0; round < 8; ++round) {
    const Time down = 1000 * (round + 1);
    std::vector<sim::ChannelId> cut = candidates;
    std::shuffle(cut.begin(), cut.end(), rng);
    cut.resize(1 + rng() % (round < 4 ? 6 : candidates.size() / 4));
    // Plus every link out of (even rounds) or into (odd rounds) one
    // member's router, so each round separates routers in one direction.
    const int victim =
        topo.node_attach(static_cast<NodeId>(rng() % members.size())).router;
    for (const sim::ChannelId c : candidates) {
      const sim::PortRef dst = topo.link(c / topo.radix(), c % topo.radix());
      if (dst.valid() && (round % 2 == 0 ? c / topo.radix() : dst.router) == victim)
        cut.push_back(c);
    }
    std::sort(cut.begin(), cut.end());
    cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
    steps.push_back(down);
    for (const sim::ChannelId c : cut) {
      const int r = c / topo.radix(), q = c % topo.radix();
      const Time up = down + 100 * static_cast<Time>(1 + rng() % 4);
      plan.link_events.push_back({down, r, q, false});
      plan.link_events.push_back({up, r, q, true});
      steps.push_back(up);
    }
  }
  std::sort(steps.begin(), steps.end());
  steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
  sim::Simulator sim(topo);
  sim.set_fault_plan(plan);

  const ReachOracle oracle(sim, members);
  const rt::MembershipService svc(sim, members, {.heartbeat_period = 100});
  const int n = static_cast<int>(members.size());
  // Steps where two members with live ejection channels are apart: only
  // the router labeling (not the ejection checks) can get these right.
  int split_steps = 0;
  for (const Time t : steps) {
    const std::uint64_t before = sim.liveness_version();
    sim.advance_idle_to(t);
    ASSERT_GT(sim.liveness_version(), before) << "link events at cycle " << t;
    std::vector<std::vector<char>> want;
    for (int a = 0; a < n; ++a) want.push_back(oracle.round_trip_from(a));
    bool split = false;
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = 0; b < members.size(); ++b) {
        split = split || (want[a][a] && want[b][b] && !want[a][b]);
        ASSERT_EQ(svc.round_trip_reachable(members[a], members[b]),
                  want[a][b] != 0)
            << "cycle " << t << ": members " << a << " -> " << b;
      }
    }
    ASSERT_EQ(svc.plurality_members(), oracle.plurality()) << "cycle " << t;
    split_steps += split;
  }
  EXPECT_GE(split_steps, 8) << "a round's cut failed to separate routers";
  EXPECT_LT(split_steps, static_cast<int>(steps.size()))
      << "the links never all came back";
}

TEST(MembershipLabeling, MatchesTwoWalkOracleOnMesh) {
  const auto topo = mesh::make_mesh2d(8);
  expect_labeling_matches_oracle(*topo, 1997);
}

TEST(MembershipLabeling, MatchesTwoWalkOracleOnBmin) {
  const auto topo = bmin::make_bmin(64);
  expect_labeling_matches_oracle(*topo, 1997);
}

TEST(MembershipLabeling, LivenessVersionMovesOnLinkEventsOnly) {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  sim::Simulator sim(*topo);
  const std::uint64_t fresh = sim.liveness_version();
  sim::FaultPlan plan =
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 300, 400);
  plan.link_events.push_back({100, 0, 0, false});
  plan.node_events.push_back({200, 5});
  sim.set_fault_plan(plan);
  std::uint64_t v = sim.liveness_version();
  EXPECT_GT(v, fresh) << "installing a plan must invalidate cached labels";
  sim.advance_idle_to(100);  // link down
  EXPECT_GT(sim.liveness_version(), v);
  v = sim.liveness_version();
  sim.advance_idle_to(200);  // node death: channel_live() is unaffected
  EXPECT_TRUE(sim.node_failed(5));
  EXPECT_EQ(sim.liveness_version(), v);
  sim.advance_idle_to(300);  // cut
  EXPECT_GT(sim.liveness_version(), v);
  v = sim.liveness_version();
  sim.advance_idle_to(350);  // nothing due
  EXPECT_EQ(sim.liveness_version(), v);
  sim.advance_idle_to(400);  // heal
  EXPECT_GT(sim.liveness_version(), v);
}

// --- failover acceptance (16x16 mesh, mid-stream source kill) -------------

RecordedStream run_source_kill(Time heartbeat, bool failover,
                               const sim::Topology& topo,
                               const analysis::Placement& p, int slots,
                               std::vector<sim::FaultPlan::NodeEvent> more = {}) {
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg = membership_config(
      &static_cast<const mesh::MeshTopology&>(topo).shape(), 8, slots,
      heartbeat, 256);
  cfg.failover = failover;
  sim::Simulator sim(topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({6000, p.source});
  plan.node_events.insert(plan.node_events.end(), more.begin(), more.end());
  sim.set_fault_plan(plan);
  return run_recorded(srt, sim, p.source, p.dests, cfg);
}

TEST(StreamFailover, MidStreamSourceKillCompletesViaSuccession) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const int slots = 32;
  const RecordedStream run = run_source_kill(600, true, *topo, p, slots);
  const rt::StreamResult& r = run.res;

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
  EXPECT_NO_THROW(run.audit());

  // The trace must witness the succession: a kFailover event (a = new
  // epoch) whose successor prefix covers the committed frontier.
  const auto it = std::find_if(
      run.events.begin(), run.events.end(),
      [](const obs::TraceEvent& ev) { return ev.event_kind() == EK::kFailover; });
  ASSERT_NE(it, run.events.end());
  EXPECT_EQ(it->a, 1);

  // Determinism: the identical scenario replays bit-identically.
  const RecordedStream run2 = run_source_kill(600, true, *topo, p, slots);
  EXPECT_EQ(r.makespan, run2.res.makespan);
  EXPECT_EQ(run.events, run2.events);
  EXPECT_EQ(r.retries, run2.res.retries);
  EXPECT_EQ(r.delivered_prefix, run2.res.delivered_prefix);
}

TEST(StreamFailover, DeposedSuccessorIsNotAGap) {
  // The first successor dies as well and a second succession deposes it.
  // Its full prefix was regenerated at its election, not delivered, so the
  // auditor must not read the difference to its replayed deliveries as a
  // gap once it no longer produces.
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const RecordedStream run =
      run_source_kill(600, true, *topo, p, 32, {{8200, p.dests[8]}});
  EXPECT_EQ(run.res.failovers, 2);
  EXPECT_EQ(run.res.epoch, 2);
  EXPECT_EQ(run.res.committed, 32);
  EXPECT_NO_THROW(run.audit());
}

TEST(StreamFailover, WithoutFailoverTheDeadSourceEndsTheStream) {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  const RecordedStream run = run_source_kill(600, false, *topo, p, 32);
  EXPECT_EQ(run.res.failovers, 0);
  EXPECT_LT(run.res.committed, 32) << "no succession: the stream halts";
  EXPECT_FALSE(run.res.complete);
  EXPECT_NO_THROW(run.audit());
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
  const RecordedStream run = run_recorded(srt, sim, p.source, p.dests, cfg);
  ASSERT_EQ(run.res.failovers, 1);

  // Replay the trace up to the failover: per-position delivered slots
  // (kSlotDeliver: a = slot, c = position).
  std::vector<std::vector<char>> got(chain.size(),
                                     std::vector<char>(slots, 0));
  const obs::TraceEvent* failover = nullptr;
  for (const obs::TraceEvent& ev : run.events) {
    if (ev.event_kind() == EK::kFailover) {
      failover = &ev;
      break;
    }
    if (ev.event_kind() == EK::kSlotDeliver)
      got[static_cast<std::size_t>(ev.c)][static_cast<std::size_t>(ev.a)] = 1;
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
  // kFailover: b = successor position, c = its committed prefix.
  EXPECT_EQ(failover->b, static_cast<int>(best));
  EXPECT_EQ(failover->c, prefix(best));
  EXPECT_LT(prefix(lowest), prefix(best))
      << "the scenario must separate the two rules";
  EXPECT_NO_THROW(run.audit());
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

  const RecordedStream run = run_recorded(srt, sim, source, dests, cfg);
  const rt::StreamResult& r = run.res;
  EXPECT_EQ(r.rejoins, 3) << "all three cut-off receivers must re-admit";
  EXPECT_TRUE(r.unreachable_nodes.empty())
      << "nobody is still unreachable at the end";
  EXPECT_TRUE(r.dead_nodes.empty());
  EXPECT_EQ(r.committed, 48);
  EXPECT_TRUE(r.complete) << "delta catch-up must backfill the missed slots";
  EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
  EXPECT_NO_THROW(run.audit());

  // Eviction then readmission, in that order, for each healed receiver
  // (a partition eviction is a kEpochBump with c = 1).
  int partitions = 0, rejoins = 0;
  for (const obs::TraceEvent& ev : run.events) {
    if (ev.event_kind() == EK::kEpochBump && ev.c == 1) ++partitions;
    if (ev.event_kind() == EK::kRejoin) ++rejoins;
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
    const RecordedStream run = run_recorded(srt, sim, source, dests, cfg);
    const rt::StreamResult& r = run.res;
    EXPECT_EQ(r.epoch, 0) << "a blip must not reconfigure the group";
    EXPECT_EQ(r.failovers, 0);
    EXPECT_EQ(r.rejoins, 0);
    EXPECT_TRUE(r.dead_nodes.empty());
    EXPECT_TRUE(r.unreachable_nodes.empty());
    EXPECT_EQ(r.committed, 24);
    EXPECT_TRUE(r.complete);
    EXPECT_NO_THROW(run.audit());
    makespans.push_back(r.makespan);
  }
  EXPECT_EQ(makespans[0], makespans[1]) << "the blip run must be deterministic";
}

// --- forged traces must be rejected ---------------------------------------

RecordedStream failover_trace() {
  const auto topo = mesh::make_mesh2d(16);
  const auto p = analysis::sample_placements(41, topo->num_nodes(), 12, 1)[0];
  return run_source_kill(600, true, *topo, p, 32);
}

template <typename Doctor>
void expect_audit_rejects(RecordedStream run, verify::Invariant want,
                          Doctor&& doctor) {
  ASSERT_NO_THROW(run.audit());
  ASSERT_TRUE(doctor(run.events)) << "the trace lacks the event to doctor";
  try {
    run.audit();
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
      [](std::vector<obs::TraceEvent>& events) {
        // kSlotInject: c = the injecting (acting source) position.
        int old_producer = -1;
        bool failed_over = false;
        for (obs::TraceEvent& ev : events) {
          if (ev.event_kind() == EK::kSlotInject && old_producer < 0)
            old_producer = ev.c;
          if (ev.event_kind() == EK::kFailover) failed_over = true;
          if (failed_over && ev.event_kind() == EK::kSlotInject) {
            ev.c = old_producer;
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
                       [](std::vector<obs::TraceEvent>& events) {
                         for (obs::TraceEvent& ev : events)
                           if (ev.event_kind() == EK::kFailover) {
                             ev.c = 0;  // the successor's prefix
                             return true;
                           }
                         return false;
                       });
}

RecordedStream rejoin_trace() {
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 48, 400, 256);
  cfg.rejoin = true;
  sim::Simulator sim(*topo);
  sim.set_fault_plan(
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 3000, 9000));
  return run_recorded(srt, sim, 0, std::vector<NodeId>{1, 2, 5, 9, 10, 14},
                      cfg);
}

TEST(StreamAuditor, CatchesRejoinPrefixDiscontinuity) {
  // A rejoiner must resume exactly at its delivered prefix; claiming one
  // slot more would leave a hole no catch-up ever fills.
  expect_audit_rejects(rejoin_trace(), verify::Invariant::kStreamGap,
                       [](std::vector<obs::TraceEvent>& events) {
                         for (obs::TraceEvent& ev : events)
                           if (ev.event_kind() == EK::kRejoin) {
                             ++ev.c;  // the rejoiner's delivered prefix
                             return true;
                           }
                         return false;
                       });
}

TEST(StreamAuditor, CatchesRejoinOfACrashedMember) {
  // Flip one eviction from unreachable (rejoinable, kEpochBump c = 1) to
  // crashed (c = 0): the later rejoin of that position must be rejected
  // — crashed members never come back.
  expect_audit_rejects(
      rejoin_trace(), verify::Invariant::kStreamEpoch,
      [](std::vector<obs::TraceEvent>& events) {
        for (obs::TraceEvent& doomed : events)
          if (doomed.event_kind() == EK::kEpochBump && doomed.c == 1) {
            for (const obs::TraceEvent& ev : events)
              if (ev.event_kind() == EK::kRejoin && ev.b == doomed.b) {
                doomed.c = 0;
                return true;
              }
          }
        return false;
      });
}

// --- membership sweeps in the replay ---------------------------------------

TEST(StreamAuditor, FailoverSweepVerdictsAfterTheSourceConfirmAreNotApplied) {
  // Three receivers are cut off and evicted as unreachable; the cut heals
  // but rejoin is off, so every later sweep repeats their kHealed
  // verdicts.  The source dies at 12000: the sweep that confirms it
  // fails over and never applies the verdicts recorded after the confirm.
  // A sweep that confirms its own observer adjudicates nobody else, so
  // only heal-watch verdicts can follow the confirm, and every raw
  // kSuspect of this run is applied.
  const auto topo = mesh::make_mesh2d(4);
  const int n = topo->num_nodes();
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg = membership_config(&topo->shape(), 4, 48, 400, 256);
  cfg.failover = true;
  sim::Simulator sim(*topo);
  sim::FaultPlan plan =
      sim::FaultPlan::partition(*topo, lower_half(n), upper_half(n), 3000, 9000);
  plan.node_events.push_back({12000, 0});
  sim.set_fault_plan(plan);
  const RecordedStream run = run_recorded(
      srt, sim, 0, std::vector<NodeId>{1, 2, 5, 9, 10, 14}, cfg);
  ASSERT_EQ(run.res.failovers, 1);
  EXPECT_NO_THROW(run.audit());

  // Locate the failover sweep: its kHeartbeat, the source's confirm, and
  // the verdicts recorded after it.
  std::size_t confirm = 0, sweep_end = 0;
  int raw_suspects = 0;
  for (std::size_t i = 0; i < run.events.size(); ++i) {
    const obs::TraceEvent& ev = run.events[i];
    if (ev.event_kind() == EK::kSuspect) ++raw_suspects;
    if (ev.event_kind() == EK::kHeartbeat) sweep_end = i + 1 + ev.b;
    if (ev.event_kind() == EK::kConfirmCrashed && ev.b == 0) {  // b = node
      confirm = i;
      break;
    }
  }
  ASSERT_GT(confirm, 0u);
  ASSERT_GT(sweep_end, confirm + 1) << "verdicts must follow the confirm";
  for (std::size_t i = confirm + 1; i < sweep_end; ++i)
    EXPECT_EQ(run.events[i].event_kind(), EK::kHealed);
  for (std::size_t i = confirm + 1; i < run.events.size(); ++i)
    raw_suspects += run.events[i].event_kind() == EK::kSuspect;
  EXPECT_EQ(run.res.suspects, raw_suspects);

  // A verdict after the confirm is never applied: forging it into a
  // suspicion of an evicted (dead) position passes; the same forgery
  // before the confirm is applied and caught.
  const int evicted = run.events[confirm + 1].a;
  RecordedStream late = run;
  late.events[confirm + 1].kind = static_cast<std::uint16_t>(EK::kSuspect);
  EXPECT_NO_THROW(late.audit());
  RecordedStream early = run;
  std::swap(early.events[confirm], early.events[confirm + 1]);
  early.events[confirm].kind = static_cast<std::uint16_t>(EK::kSuspect);
  early.events[confirm].a = evicted;
  try {
    early.audit();
    ADD_FAILURE() << "a suspicion of an evicted position must be caught";
  } catch (const verify::InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), verify::Invariant::kResultConsistency) << v.what();
  }

  // Dropping one applied kSuspect breaks the suspect count.
  expect_audit_rejects(run, verify::Invariant::kResultConsistency,
                       [](std::vector<obs::TraceEvent>& events) {
                         for (auto it = events.begin(); it != events.end(); ++it)
                           if (it->event_kind() == EK::kSuspect) {
                             events.erase(it);
                             return true;
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

// --- golden: the reliable wait loop's retransmission order ----------------

TEST(StreamGolden, ReliableLoopKeepsItsRetransmissionOrder) {
  // Heavy drops, a receiver kill, two receivers cut off and healed, and a
  // source kill, under the lease detector with failover and rejoin: every
  // path of the reliable wait loop runs (batched retries, subtree
  // repairs, all three epoch transitions, stale acks).  The constants pin
  // the exact order in which the loop retransmits and repairs: visiting
  // the open records in any other order changes the hash, the retry
  // count and the commit times.
  const auto topo = mesh::make_mesh2d(8);
  const int n = topo->num_nodes();
  const auto p = analysis::sample_placements(13, n, 16, 1)[0];
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const rt::StreamRuntime srt(rtm);
  rt::StreamConfig cfg = membership_config(&topo->shape(), 8, 48, 800, 256);
  cfg.failover = true;
  cfg.rejoin = true;
  obs::FlightRecorder rec(obs::RecorderConfig{std::size_t{1} << 16});
  cfg.recorder = &rec;
  const std::vector<NodeId> cut_off = {p.dests[0], p.dests[1]};
  std::vector<NodeId> rest;
  for (NodeId v = 0; v < n; ++v)
    if (std::find(cut_off.begin(), cut_off.end(), v) == cut_off.end())
      rest.push_back(v);
  sim::FaultPlan plan = sim::FaultPlan::partition(*topo, rest, cut_off, 9000, 16000);
  plan.drop_rate = 2e-2;
  plan.seed = 5;
  plan.node_events.push_back({4000, p.dests[3]});
  plan.node_events.push_back({30000, p.source});
  sim::Simulator sim(*topo);
  sim.set_fault_plan(plan);
  const rt::StreamResult r = srt.run(sim, p.source, p.dests, cfg);
  ASSERT_EQ(rec.events_dropped(), 0u);
  EXPECT_NO_THROW(verify::InvariantAuditor::audit_stream(r, rec.snapshot(),
                                                         rec.events_dropped()));

  const std::vector<Time> commit_time = {
       34051,  35654,  36842,  55383,  55383,  55383,  55383,  56225,
       56225,  56225,  56225,  58093,  60200,  80827,  80827,  80827,
       80827,  80827,  80827,  80827,  80827, 101764, 101764, 101764,
      101764, 101764, 101764, 101764, 101764, 119381, 121329, 121329,
      121329, 121329, 122249, 122249, 122249, 126966, 126966, 127651,
      129758, 131865, 133972, 137846, 138267, 146192, 146192, 146192};
  std::vector<int> prefix(16, 48);
  prefix[6] = 2;  // the receiver killed at cycle 4000
  EXPECT_EQ(r.commit_time, commit_time);
  EXPECT_EQ(r.retries, 36);
  EXPECT_EQ(r.stale_acks, 44);
  EXPECT_EQ(r.epoch, 6);
  EXPECT_EQ(r.failovers, 1);
  EXPECT_EQ(r.rejoins, 2);
  EXPECT_EQ(r.delivered_prefix, prefix);
  EXPECT_EQ(send_attempt_hash(rec), 0xe273e9676d5ff63cULL);
}

}  // namespace
}  // namespace pcm
