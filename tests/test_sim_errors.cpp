// Failure-path tests for the simulator: watchdog deadlock detection and
// defensive errors against broken topologies.  Uses purpose-built stub
// topologies, which also documents the minimal Topology contract.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "mesh/mesh_topology.hpp"
#include "sim/simulator.hpp"

namespace pcm::sim {
namespace {

// Two routers in a ring; traffic circulates and never ejects.  A message
// longer than the ring's total buffering wedges on its own wormhole
// reservation — the canonical routing-cycle deadlock.
class RingTopology final : public Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 2; }
  [[nodiscard]] int radix() const override { return 2; }  // 0: ring, 1: local
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] PortRef link(int router, int out_port) const override {
    if (out_port != 0) return {};
    return PortRef{1 - router, 0};  // ring channel lands on the peer's port 0
  }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{static_cast<int>(n), 1};
  }
  [[nodiscard]] NodeId ejector(int, int) const override {
    return kInvalidNode;  // nothing ever leaves: guaranteed wedge
  }
  void route(int, int, NodeId, NodeId, std::vector<int>& candidates) const override {
    candidates.push_back(0);  // always chase the ring
  }
};

// Routes everything to an unwired port.
class BrokenLinkTopology final : public Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 1; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] PortRef link(int, int) const override { return {}; }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{0, static_cast<int>(n)};
  }
  [[nodiscard]] NodeId ejector(int, int) const override { return kInvalidNode; }
  void route(int, int, NodeId, NodeId, std::vector<int>& candidates) const override {
    candidates.push_back(0);
  }
};

// Returns no route candidates at all.
class NoRouteTopology final : public Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 1; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] PortRef link(int, int) const override { return {}; }
  [[nodiscard]] PortRef node_attach(NodeId n) const override {
    return PortRef{0, static_cast<int>(n)};
  }
  [[nodiscard]] NodeId ejector(int, int) const override { return kInvalidNode; }
  void route(int, int, NodeId, NodeId, std::vector<int>&) const override {}
};

Message mk(NodeId src, NodeId dst, int flits) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.flits = flits;
  m.ready_time = 0;
  return m;
}

TEST(SimErrors, WatchdogDetectsWormholeWedge) {
  RingTopology topo;
  SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 200;  // keep the test fast
  Simulator sim(topo, cfg);
  sim.post(mk(0, 1, 32));  // longer than total ring buffering
  try {
    sim.run_until_idle();
    FAIL() << "expected watchdog to fire";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos);
    // The stall dump names the wedged channel state.
    EXPECT_NE(what.find("occ="), std::string::npos);
  }
}

TEST(SimErrors, UnwiredChannelIsALogicError) {
  BrokenLinkTopology topo;
  Simulator sim(topo);
  sim.post(mk(0, 1, 2));
  EXPECT_THROW(sim.run_until_idle(), std::logic_error);
}

TEST(SimErrors, EmptyRouteIsALogicError) {
  NoRouteTopology topo;
  Simulator sim(topo);
  sim.post(mk(0, 1, 2));
  EXPECT_THROW(sim.run_until_idle(), std::logic_error);
}

TEST(SimErrors, CheckTopologyFlagsBrokenStubs) {
  // trace_path-based validation catches both defects without a simulation.
  EXPECT_NE(check_topology(BrokenLinkTopology{}, /*exhaustive=*/true), "");
  EXPECT_NE(check_topology(NoRouteTopology{}, /*exhaustive=*/true), "");
  EXPECT_NE(check_topology(RingTopology{}, /*exhaustive=*/true), "");  // loops
}

TEST(SimErrors, BaseWalkStopsShortWithoutThrowing) {
  // The base append_path is the event engine's admission path where a
  // topology has no closed form: a routing defect ends the walk with
  // "not ejected" (the worm keeps the per-hop path), and trace_path names
  // the defect for check_topology and the lint.
  const auto expect_what = [](const Topology& topo, const std::string& want) {
    try {
      (void)trace_path(topo, 0, 1);
      ADD_FAILURE() << "expected trace_path to throw " << want;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  };
  std::vector<ChannelId> path;
  EXPECT_FALSE(RingTopology{}.append_path(0, 1, path));  // the hop limit
  EXPECT_EQ(path.size(), std::size_t{4 * 2 + 8 + 1});
  expect_what(RingTopology{}, "trace_path: routing loop from 0 to 1");
  path.clear();
  EXPECT_FALSE(NoRouteTopology{}.append_path(0, 1, path));
  EXPECT_TRUE(path.empty());
  expect_what(NoRouteTopology{}, "trace_path: no route at r0.p0");
  EXPECT_FALSE(BrokenLinkTopology{}.append_path(0, 1, path));
  EXPECT_EQ(path, std::vector<ChannelId>{0});  // the unwired channel itself
  expect_what(BrokenLinkTopology{}, "trace_path: routed onto unwired channel r0.p0");
  // A self-send routes nowhere and is no defect.
  path.clear();
  EXPECT_TRUE(RingTopology{}.append_path(1, 1, path));
  EXPECT_TRUE(path.empty());
}

TEST(SimErrors, MaxCyclesBoundsTheRun) {
  // A healthy network asked to stop early returns at the bound.
  const auto topo = mesh::make_mesh2d(4);
  Simulator sim(*topo);
  sim.post(mk(0, 15, 1000));
  const Time end = sim.run_until_idle(/*max_cycles=*/50);
  EXPECT_GE(end, 50);
  EXPECT_LT(end, 60);
  EXPECT_EQ(sim.stats().messages_delivered, 0);
}

}  // namespace
}  // namespace pcm::sim
