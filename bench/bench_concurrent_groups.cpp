// E11 — Beyond the paper: concurrent multicast groups.
//
// The paper's theorems cover one multicast at a time.  Real collective
// layers run several groups concurrently; this bench measures how much of
// the tuned trees' advantage survives cross-group interference on the
// 16x16 mesh: G simultaneous 16-node multicasts with random (overlapping)
// member sets, 4 KB payloads.
#include <array>

#include "harness/harness.hpp"
#include "mesh/mesh_topology.hpp"

using namespace pcm;
using namespace pcm::harness;

int main(int argc, char** argv) {
  Harness h("bench_concurrent_groups", argc, argv);
  const auto topo = mesh::make_mesh2d(16);
  const MeshShape& shape = topo->shape();
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime rtm(cfg);
  const Bytes size = 4096;
  const int k = 16;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(size, 1));

  h.preamble("E11: concurrent 16-node multicast groups on 16x16 mesh (4 KB)",
             cfg, size, kPaperReps);

  analysis::Table t({"groups", "OPT-Mesh mean", "vs solo", "blk/group", "U-Mesh mean",
                     "vs solo", "blk/group"});
  double solo_opt = 0, solo_u = 0;
  for (int G : {1, 2, 4, 8}) {
    // Two runs per replication (OPT-Mesh, then U-Mesh), each writing its
    // own slot, summed in rep order afterwards, so the output is identical
    // at any --jobs value.
    constexpr std::array<McastAlgorithm, 2> kAlgs{McastAlgorithm::kOptMesh,
                                                  McastAlgorithm::kUMesh};
    std::vector<double> lat(kAlgs.size() * kPaperReps), blk(lat.size());
    h.fan_out().run(
        lat.size(), [&](std::size_t run) { return RunSpec{topo.get(), kAlgs[run % 2]}; },
        [&](std::size_t run, sim::Simulator& sim, obs::FlightRecorder*) {
          // Hierarchical substream: independent per (G, rep), reproducing
          // the same placements for both algorithms regardless of
          // execution order.
          analysis::Rng rng(substream_seed(substream_seed(kSeed, 77 * G), run / 2));
          std::vector<rt::MulticastRuntime::GroupRun> groups;
          for (int g = 0; g < G; ++g) {
            const auto p = analysis::sample_placement(rng, 256, k);
            rt::MulticastRuntime::GroupRun gr;
            gr.tree = build_multicast(kAlgs[run % 2], p.source, p.dests, tp, &shape);
            gr.payload = size;
            groups.push_back(std::move(gr));
          }
          for (const auto& r : rtm.run_concurrent(sim, std::move(groups))) {
            lat[run] += static_cast<double>(r.latency);
            blk[run] += static_cast<double>(r.channel_conflicts);
          }
        });
    std::array<double, 2> lat_sum{}, blk_sum{};
    for (std::size_t run = 0; run < lat.size(); ++run) {
      lat_sum[run % 2] += lat[run];
      blk_sum[run % 2] += blk[run];
    }
    const auto [lat_opt, lat_u] = lat_sum;
    const auto [blk_opt, blk_u] = blk_sum;
    const double n = static_cast<double>(kPaperReps) * G;
    if (G == 1) {
      solo_opt = lat_opt / n;
      solo_u = lat_u / n;
    }
    t.add_row({std::to_string(G), analysis::Table::num(lat_opt / n, 0),
               analysis::Table::num(lat_opt / n / solo_opt, 2) + "x",
               analysis::Table::num(blk_opt / n, 0),
               analysis::Table::num(lat_u / n, 0),
               analysis::Table::num(lat_u / n / solo_u, 2) + "x",
               analysis::Table::num(blk_u / n, 0)});
  }
  h.report(t, "Concurrent groups (per-group mean latency, cycles)",
           "concurrent_groups.csv");

  std::cout << "\nExpectation: contention-freedom is per-group, so blocked "
               "cycles appear as soon as G > 1; OPT-Mesh keeps its lead over "
               "U-Mesh, and the inflation factor grows with G for both.\n";
  return 0;
}
