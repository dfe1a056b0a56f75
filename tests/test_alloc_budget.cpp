// Allocation budget of the simulator: a counting global operator new pins
// Simulator construction to the same small number of heap allocations on
// every topology size, and a contention-free OPT-Mesh run to a small
// constant number per posted message.  The parameterized model is tuned
// by evaluating thousands of small multicasts, each on a fresh Simulator,
// so set-up that grew with the network would dominate the sweep.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/pooled_vectors.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<long long> g_allocations{0};
}  // namespace

// The other throwing and nothrow forms forward to this one in the
// standard library, so it sees every unaligned allocation.
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Out of line: inlined into a delete-expression, GCC would pair the free()
// with the new-expression and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*n*/) noexcept {
  std::free(p);
}

namespace pcm {
namespace {

/// Heap allocations made while `f` runs.
template <class F>
long long allocations_in(F&& f) {
  const long long before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocBudget, SimulatorConstructionIsConstantAcrossTopologies) {
  std::vector<std::unique_ptr<sim::Topology>> topos;
  topos.push_back(mesh::make_mesh2d(16));
  topos.push_back(mesh::make_mesh2d(32));
  topos.push_back(bmin::make_bmin(64));
  topos.push_back(bmin::make_bmin(128));
  long long first = -1;
  for (const auto& topo : topos) {
    // The shared wiring is built once per topology, not per simulator.
    (void)topo->wiring();
    for (const sim::EngineKind engine : {sim::EngineKind::kCycle, sim::EngineKind::kEvent}) {
      sim::SimConfig cfg;
      cfg.engine = engine;
      const long long n = allocations_in([&] { sim::Simulator s(*topo, cfg); });
      EXPECT_LE(n, 20) << topo->num_routers() << " routers";
      if (first < 0) first = n;
      EXPECT_EQ(n, first) << topo->num_routers() << " routers";
    }
  }
}

TEST(AllocBudget, WiringIsBuiltOnceAndShared) {
  const auto topo = mesh::make_mesh2d(16);
  const sim::Wiring* w = &topo->wiring();
  EXPECT_EQ(allocations_in([&] { EXPECT_EQ(&topo->wiring(), w); }), 0);
  EXPECT_EQ(w->link.size(), static_cast<std::size_t>(topo->num_channels()));
  EXPECT_EQ(w->attach.size(), static_cast<std::size_t>(topo->num_nodes()));
}

TEST(AllocBudget, PooledVectorsKeepListsApartAndReuseTheirBuffer) {
  sim::PooledVectors<int> pool;
  // Interleaved pushes make every list outgrow its segment while the
  // others sit next to it, and freed segments get reused.
  auto fill = [&pool] {
    pool.reset(3);
    for (int i = 0; i < 40; ++i)
      for (std::size_t l = 0; l < 3; ++l) pool.push_back(l, static_cast<int>(l) * 1000 + i);
    pool.insert(1, 0, -1);
    pool.insert(1, 20, -2);
    pool.erase_front(2, 5);
    pool.truncate(0, 10);
  };
  fill();
  std::vector<int> want0(10), want1, want2;
  for (int i = 0; i < 10; ++i) want0[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < 40; ++i) want1.push_back(1000 + i);
  want1.insert(want1.begin(), -1);
  want1.insert(want1.begin() + 20, -2);
  for (int i = 5; i < 40; ++i) want2.push_back(2000 + i);
  const auto as_vector = [&pool](std::size_t l) {
    const std::span<int> v = pool.view(l);
    return std::vector<int>(v.begin(), v.end());
  };
  EXPECT_EQ(as_vector(0), want0);
  EXPECT_EQ(as_vector(1), want1);
  EXPECT_EQ(as_vector(2), want2);
  // reset() keeps the buffer: the same fill again allocates nothing.
  EXPECT_EQ(allocations_in(fill), 0);
  EXPECT_EQ(as_vector(1), want1);
}

/// Runs an OPT-Mesh multicast the way MulticastRuntime::run does (each
/// receiver issues its sends when it finishes receiving), from a delivery
/// handler that allocates nothing itself, so every allocation counted
/// during run_until_idle() is the simulator's.  Returns {allocations,
/// messages}.
std::pair<long long, int> opt_mesh_run(sim::EngineKind engine, int k, Bytes payload) {
  const auto topo = mesh::make_mesh2d(16);
  rt::RuntimeConfig rcfg;
  const rt::MulticastRuntime rtm(rcfg);
  const MachineParams& mp = rcfg.machine;
  const TwoParam tp = mp.two_param(rtm.wire_bytes(payload, 1));
  const analysis::Placement p = analysis::sample_placements(1997, 256, k, 1).front();
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, &topo->shape());

  sim::SimConfig cfg;
  cfg.engine = engine;
  sim::Simulator sim(*topo, cfg);
  int messages = 0;
  auto activate = [&](int pos, Time at) {
    Time next = at;
    for (const int idx : tree.out[static_cast<std::size_t>(pos)]) {
      const SendEvent& ev = tree.sends[static_cast<std::size_t>(idx)];
      const int interval = ev.sub_hi - ev.sub_lo + 1;
      const Bytes wire = rtm.wire_bytes(payload, interval);
      sim::Message m;
      m.src = tree.node(ev.sender_pos);
      m.dst = tree.node(ev.receiver_pos);
      m.flits = rtm.wire_flits(payload, interval);
      m.ready_time = next + mp.t_send(wire);
      m.tag = idx;
      sim.post(m);
      ++messages;
      next += mp.t_hold(wire);
    }
  };
  sim.set_delivery_handler([&](const sim::Message& m) {
    const SendEvent& ev = tree.sends[static_cast<std::size_t>(m.tag)];
    activate(ev.receiver_pos,
             m.delivered + mp.t_recv(rtm.wire_bytes(payload, ev.sub_hi - ev.sub_lo + 1)));
  });
  activate(tree.chain.source_pos, 0);
  const long long n = allocations_in([&] { sim.run_until_idle(); });
  EXPECT_EQ(sim.stats().channel_conflicts, 0) << "the run must be contention-free";
  EXPECT_EQ(sim.stats().messages_delivered, messages);
  return {n, messages};
}

TEST(AllocBudget, ContentionFreeRunAllocatesAConstantPerMessage) {
  for (const sim::EngineKind engine : {sim::EngineKind::kCycle, sim::EngineKind::kEvent}) {
    for (const Bytes payload : {Bytes{64}, Bytes{4096}}) {
      // A one-message run carries the fixed cost (the event engine and
      // its per-router and per-channel tables); every further message
      // may add at most three allocations, on any network size.  (They
      // are amortized: NI queues on first use, geometric regrowth of the
      // message table, calendar, worm slots and pools.)
      const auto [fixed, one] = opt_mesh_run(engine, 2, payload);
      ASSERT_EQ(one, 1);
      EXPECT_LE(fixed, 64);
      for (const int k : {32, 128}) {
        const auto [n, messages] = opt_mesh_run(engine, k, payload);
        ASSERT_EQ(messages, k - 1);
        EXPECT_LE(n - fixed, 3 * (messages - 1))
            << (engine == sim::EngineKind::kEvent ? "event" : "cycle")
            << " engine, k=" << k << ", " << payload << " B";
      }
    }
  }
}

}  // namespace
}  // namespace pcm
