// E9 — Engineering microbenchmarks (google-benchmark): costs of the
// building blocks — the O(k) DP, tree expansion, chain sorting, path
// tracing, simulator set-up and raw throughput, and the static analyzer's
// tree certification and forest admission.
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"

namespace {

using namespace pcm;

void BM_OptSplitTable(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(opt_split_table(400, 1500, k));
  state.SetComplexityN(k);
}
BENCHMARK(BM_OptSplitTable)->Range(16, 1 << 14)->Complexity(benchmark::oN);

void BM_OptSplitTableExhaustive(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(opt_split_table_exhaustive(400, 1500, k));
  state.SetComplexityN(k);
}
BENCHMARK(BM_OptSplitTableExhaustive)->Range(16, 1 << 10)->Complexity(benchmark::oNSquared);

void BM_BuildChainSplitTree(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const SplitTable table = opt_split_table(400, 1500, k);
  Chain chain;
  chain.nodes.resize(k);
  std::iota(chain.nodes.begin(), chain.nodes.end(), 0);
  chain.source_pos = k / 2;
  for (auto _ : state)
    benchmark::DoNotOptimize(build_chain_split_tree(chain, table));
}
BENCHMARK(BM_BuildChainSplitTree)->Range(16, 1 << 12);

void BM_DimensionOrderedChain(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const MeshShape shape = MeshShape::square2d(64);  // 4096 nodes
  analysis::Rng rng(7);
  const analysis::Placement p =
      analysis::sample_placement(rng, shape.num_nodes(), k);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        make_chain(p.source, p.dests, ChainOrder::kDimensionOrdered, &shape));
}
BENCHMARK(BM_DimensionOrderedChain)->Range(16, 1 << 12);

void BM_TracePathMesh(benchmark::State& state) {
  const auto topo = mesh::make_mesh2d(16);
  NodeId d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::trace_path(*topo, 0, d));
    d = (d % 255) + 1;
  }
}
BENCHMARK(BM_TracePathMesh);

void BM_TracePathBmin(benchmark::State& state) {
  const auto topo = bmin::make_bmin(128);
  NodeId d = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::trace_path(*topo, 0, d));
    d = (d % 127) + 1;
  }
}
BENCHMARK(BM_TracePathBmin);

// Simulator set-up alone: the per-op fixed cost of a sweep of small
// multicasts.  The topology's shared wiring is built before timing starts.
void BM_SimulatorConstruct(benchmark::State& state) {
  std::unique_ptr<sim::Topology> topo;
  switch (state.range(0)) {
    case 0: topo = mesh::make_mesh2d(16); state.SetLabel("mesh:16"); break;
    case 1: topo = mesh::make_mesh2d(64); state.SetLabel("mesh:64"); break;
    default: topo = bmin::make_bmin(128); state.SetLabel("bmin:128"); break;
  }
  (void)topo->wiring();
  sim::SimConfig cfg;
  cfg.engine = sim::EngineKind::kEvent;
  for (auto _ : state) {
    sim::Simulator sim(*topo, cfg);
    benchmark::DoNotOptimize(&sim);
  }
}
BENCHMARK(BM_SimulatorConstruct)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);

void BM_SimulatorMulticast(benchmark::State& state) {
  // Full 32-node 4 KB OPT-mesh multicast on the 16x16 mesh; reports
  // simulated cycles per wall second.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(3, 256, 32, 1);
  long long cycles = 0;
  for (auto _ : state) {
    sim::Simulator sim(*topo);
    const auto res = rtm.run_algorithm(sim, McastAlgorithm::kOptMesh,
                                       placements[0].source, placements[0].dests,
                                       4096, &topo->shape());
    benchmark::DoNotOptimize(res.latency);
    cycles += sim.stats().cycles;
  }
  state.counters["sim_cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorMulticast)->Unit(benchmark::kMillisecond);

void BM_SimulatorSaturatedMesh(benchmark::State& state) {
  // Raw engine throughput under load: every node of the 16x16 mesh posts
  // a 64-flit unicast to the diagonally opposite node, all ready at cycle
  // 0, so routers stay busy and arbitration contends heavily.  No runtime
  // layer — this isolates the simulator hot path and reports flit-channel
  // traversals per wall second.
  const auto topo = mesh::make_mesh2d(16);
  const int n = topo->num_nodes();
  long long hops = 0;
  for (auto _ : state) {
    sim::Simulator sim(*topo);
    for (NodeId s = 0; s < n; ++s) {
      sim::Message m;
      m.src = s;
      m.dst = (n - 1) - s;
      m.flits = 64;
      m.ready_time = 0;
      sim.post(m);
    }
    sim.run_until_idle();
    benchmark::DoNotOptimize(sim.stats().cycles);
    hops += sim.stats().flit_hops;
  }
  state.counters["flit_hops/s"] = benchmark::Counter(
      static_cast<double>(hops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorSaturatedMesh)->Unit(benchmark::kMillisecond);

void BM_SimulatorContendedMulticast(benchmark::State& state) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(3, 256, 32, 1);
  for (auto _ : state) {
    sim::Simulator sim(*topo);
    benchmark::DoNotOptimize(
        rtm.run_algorithm(sim, McastAlgorithm::kOptTree, placements[0].source,
                          placements[0].dests, 4096, &topo->shape())
            .latency);
  }
}
BENCHMARK(BM_SimulatorContendedMulticast)->Unit(benchmark::kMillisecond);

// lint_tree on the 64x64 mesh (OPT-Mesh, range 0 = 0) or the 4096-port
// BMIN (OPT-Min, range 0 = 1) at k = range 1: one placement, 4 KiB.
void BM_LintTree(benchmark::State& state) {
  const bool bmin_fabric = state.range(0) != 0;
  const int k = static_cast<int>(state.range(1));
  const std::unique_ptr<sim::Topology> topo =
      bmin_fabric ? std::unique_ptr<sim::Topology>(bmin::make_bmin(4096))
                  : std::unique_ptr<sim::Topology>(mesh::make_mesh2d(64));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const Bytes bytes = 4096;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(bytes, 1));
  const auto p = analysis::sample_placements(11, 4096, k, 1)[0];
  const auto* grid = dynamic_cast<const mesh::MeshTopology*>(topo.get());
  const MulticastTree tree = build_multicast(
      bmin_fabric ? McastAlgorithm::kOptMin : McastAlgorithm::kOptMesh, p.source,
      p.dests, tp, grid != nullptr ? &grid->shape() : nullptr);
  lint::LintOptions opts;
  opts.keep_schedule = false;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        lint::lint_tree(tree, *topo, cfg, sim::SimConfig{}, bytes, opts).makespan);
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(tree.sends.size()));
}
BENCHMARK(BM_LintTree)
    ->ArgsProduct({{0, 1}, {64, 256, 1024}})
    ->ArgNames({"bmin", "k"})
    ->Unit(benchmark::kMicrosecond);

// Admission of 64 OPT-Mesh groups of 16 on the 32x32 mesh, each at its
// earliest_clean_offset, then lint_forest over the admitted forest.
void BM_LintForestAdmission(benchmark::State& state) {
  const auto topo = mesh::make_mesh2d(32);
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const sim::SimConfig sim_cfg;
  const Bytes bytes = 4096;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(bytes, 1));
  const auto groups = analysis::sample_placements(13, topo->num_nodes(), 16, 64);
  std::vector<lint::ForestMember> members;
  members.reserve(groups.size());
  for (const auto& p : groups)
    members.push_back({build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests,
                                       tp, &topo->shape()),
                       bytes, 0});
  lint::ForestOptions opts;
  opts.keep_schedules = false;
  for (auto _ : state) {
    lint::ChannelReservations reserved;
    for (lint::ForestMember& m : members) {
      m.start = lint::earliest_clean_offset(m.tree, *topo, cfg, sim_cfg, bytes,
                                            reserved);
      reserved.add(lint::lint_schedule(m.tree, *topo, cfg, sim_cfg, bytes, m.start));
    }
    benchmark::DoNotOptimize(
        lint::lint_forest(members, *topo, cfg, sim_cfg, opts).makespan);
  }
}
BENCHMARK(BM_LintForestAdmission)->Unit(benchmark::kMillisecond);

}  // namespace
