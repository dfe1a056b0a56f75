// Simulators on one topology share its lazily built wiring tables
// (Topology::wiring()).  Threads that build simulators on a fresh topology
// race on the first build; each must still compute exactly what a serial
// run computes.  CI also runs this binary under ThreadSanitizer.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

namespace pcm {
namespace {

constexpr int kThreads = 4;

/// Everything a multicast run computes that the threads compare.
struct Outcome {
  Time latency = 0;
  std::vector<Time> recv_complete;
  long long flit_hops = 0;
  long long conflicts = 0;
  Time cycles = 0;
  bool operator==(const Outcome&) const = default;
};

Outcome run_once(const sim::Topology& topo, const MulticastTree& tree,
                 sim::EngineKind engine) {
  sim::SimConfig cfg;
  cfg.engine = engine;
  sim::Simulator sim(topo, cfg);
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const rt::McastResult r = rtm.run(sim, tree, 1024);
  return {r.latency, r.recv_complete, sim.stats().flit_hops,
          sim.stats().channel_conflicts, sim.stats().cycles};
}

/// Runs `tree` on a fresh topology from kThreads threads released
/// together, so their first wiring() calls overlap, and compares each
/// thread's outcome with a serial run on another fresh topology.
template <class MakeTopo>
void expect_threads_match_serial(MakeTopo make_topo, McastAlgorithm alg,
                                 const MeshShape* shape) {
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(1024, 1));
  const auto probe = make_topo();
  const analysis::Placement p =
      analysis::sample_placements(7, probe->num_nodes(), 48, 1).front();
  const MulticastTree tree = build_multicast(alg, p.source, p.dests, tp, shape);

  for (const sim::EngineKind engine : {sim::EngineKind::kCycle, sim::EngineKind::kEvent}) {
    const Outcome serial = run_once(*make_topo(), tree, engine);
    const auto shared = make_topo();  // wiring not built yet
    std::vector<Outcome> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        got[static_cast<std::size_t>(i)] = run_once(*shared, tree, engine);
      });
    }
    for (std::thread& t : threads) t.join();
    for (int i = 0; i < kThreads; ++i)
      EXPECT_EQ(got[static_cast<std::size_t>(i)], serial) << "thread " << i;
  }
}

TEST(SharedWiring, ConcurrentSimulatorsOnAFreshMeshMatchTheSerialRun) {
  const MeshShape shape = mesh::make_mesh2d(16)->shape();
  // OPT-Tree contends on the mesh, so the cycle engine's stepping and the
  // event engine's hand-off both read the shared tables.
  for (const McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kOptTree})
    expect_threads_match_serial([] { return mesh::make_mesh2d(16); }, alg, &shape);
}

TEST(SharedWiring, ConcurrentSimulatorsOnAFreshBminMatchTheSerialRun) {
  expect_threads_match_serial([] { return bmin::make_bmin(128); },
                              McastAlgorithm::kOptMin, nullptr);
}

}  // namespace
}  // namespace pcm
