// E13 — Collectives beyond the paper: reduction (reverse multicast) and
// barrier on the tuned trees.
//
// Dimension-ordered routing is asymmetric (reverse of an XY path is a YX
// path), so Theorem 1 does not transfer to the upward direction; this
// bench quantifies how much contention the reversed trees actually see
// and how reduce/barrier latency compares to the multicast bound.
#include <numeric>

#include "harness/harness.hpp"
#include "bmin/bmin_topology.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/collectives.hpp"

using namespace pcm;
using namespace pcm::harness;

namespace {

void sweep(Harness& h, const sim::Topology& topo, const MeshShape* shape,
           McastAlgorithm alg, const std::string& title, const std::string& csv) {
  rt::RuntimeConfig cfg;
  rt::CollectiveRuntime coll(cfg);
  const Bytes payload = 4096;
  analysis::Table t({"nodes", "multicast", "reduce", "reduce blk", "barrier",
                     "reduce/model"});
  for (int k : {8, 16, 32, 64, 128}) {
    if (k > topo.num_nodes()) break;
    const auto placements =
        analysis::sample_placements(kSeed + k, topo.num_nodes(), k, kPaperReps);
    // Three runs per placement (multicast, reduce, barrier) write indexed
    // slots, summed in placement order, so the output is identical at any
    // --jobs value.
    const std::size_t reps = placements.size();
    std::vector<double> mcast(reps), reduce(reps), blk(reps), barrier(reps), model(reps);
    const TwoParam tp = cfg.machine.two_param(coll.multicast().wire_bytes(payload, 1));
    h.fan_out().run(
        3 * reps, [&](std::size_t) { return RunSpec{&topo, alg}; },
        [&](std::size_t run, sim::Simulator& sim, obs::FlightRecorder*) {
          const std::size_t i = run / 3;
          const auto& p = placements[i];
          const MulticastTree tree = build_multicast(alg, p.source, p.dests, tp, shape);
          if (run % 3 == 0) {
            mcast[i] = static_cast<double>(coll.multicast().run(sim, tree, payload).latency);
          } else if (run % 3 == 1) {
            const rt::ReduceResult r = coll.run_reduce(sim, tree, payload);
            reduce[i] = static_cast<double>(r.latency);
            blk[i] = static_cast<double>(r.channel_conflicts);
            model[i] = static_cast<double>(r.model_latency);
          } else {
            barrier[i] = static_cast<double>(coll.run_barrier(sim, tree, payload).latency);
          }
        });
    const auto sum = [](const std::vector<double>& xs) {
      return std::accumulate(xs.begin(), xs.end(), 0.0);
    };
    const double n = static_cast<double>(reps);
    t.add_row({std::to_string(k), analysis::Table::num(sum(mcast) / n, 0),
               analysis::Table::num(sum(reduce) / n, 0),
               analysis::Table::num(sum(blk) / n, 0),
               analysis::Table::num(sum(barrier) / n, 0),
               analysis::Table::num(sum(reduce) / sum(model), 3)});
  }
  h.report(t, title, csv);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_collectives", argc, argv);
  rt::RuntimeConfig cfg;
  h.preamble("E13: reduction and barrier over tuned trees (4 KB partials)",
             cfg, 4096, kPaperReps);

  const auto mesh_topo = mesh::make_mesh2d(16);
  sweep(h, *mesh_topo, &mesh_topo->shape(), McastAlgorithm::kOptMesh,
        "16x16 mesh, OPT-mesh trees", "collectives_mesh.csv");

  const auto bmin_topo = bmin::make_bmin(128);
  sweep(h, *bmin_topo, nullptr, McastAlgorithm::kOptMin, "128-node BMIN, OPT-min trees",
        "collectives_bmin.csv");

  std::cout << "\nExpectation: reduce tracks the multicast bound but may show "
               "nonzero blocked cycles on the mesh (reversed XY paths are YX "
               "paths, outside Theorem 1); barrier ~ reduce + multicast.\n";
  return 0;
}
