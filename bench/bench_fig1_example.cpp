// E1 — Paper Figure 1: the worked OPT-mesh example.
//
// A 6x6 2-D mesh, one source and 7 destinations, t_hold = 20,
// t_end = 55.  The paper states the OPT-mesh multicast latency is 130
// while the U-mesh (binomial) tree needs 165.  This bench regenerates
// the split table, the tree, both model latencies, and additionally runs
// the same trees on the flit-level simulator with a machine whose
// parameters realize (20, 55).
#include <array>
#include <iostream>

#include "analysis/viz.hpp"
#include "harness/harness.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"

using namespace pcm;

int main(int argc, char** argv) {
  harness::Harness h("bench_fig1_example", argc, argv);
  const TwoParam tp{20, 55};
  std::cout << "E1 / Figure 1: OPT-mesh worked example (6x6 mesh, 8 nodes, "
               "t_hold=20, t_end=55)\n";

  // The optimal split table of Algorithm 2.1.
  const SplitTable opt = opt_split_table(tp.t_hold, tp.t_end, 8);
  analysis::Table dp({"i", "j_i", "t[i]"});
  for (int i = 1; i <= 8; ++i)
    dp.add_row({std::to_string(i), i >= 2 ? std::to_string(opt.j[i]) : "-",
                std::to_string(opt.t[i])});
  h.report(dp, "OPT-tree dynamic program (Algorithm 2.1)");

  // A Figure-1-like placement: source and 7 destinations scattered over
  // the 6x6 mesh (the original coordinates are not machine-readable from
  // the paper; any placement yields the same model latencies).
  const auto topo = mesh::make_mesh2d(6);
  const MeshShape& shape = topo->shape();
  const NodeId src = shape.node_at({3, 1});
  const std::array<NodeId, 7> dests{
      shape.node_at({1, 0}), shape.node_at({4, 0}), shape.node_at({0, 2}),
      shape.node_at({5, 2}), shape.node_at({2, 3}), shape.node_at({1, 5}),
      shape.node_at({4, 5})};

  const MulticastTree opt_tree =
      build_multicast(McastAlgorithm::kOptMesh, src, dests, tp, &shape);
  const MulticastTree u_tree =
      build_multicast(McastAlgorithm::kUMesh, src, dests, tp, &shape);

  std::cout << "\nOPT-mesh tree (dimension-ordered chain + OPT splits, "
               "@model receive times):\n"
            << analysis::tree_ascii(opt_tree, &tp);

  // The flit-level machine, realizing t_hold=20, t_end=55 for a minimal
  // (single-flit) message: t_send=20, t_recv=20, t_net = 13 + 1*1 + 1 = 15
  // at the nominal 1-hop distance.
  rt::RuntimeConfig cfg;
  cfg.machine.send = LinearCost{20, 0};
  cfg.machine.recv = LinearCost{20, 0};
  cfg.machine.net_fixed = 13;
  cfg.machine.router_delay = 1;
  cfg.machine.bytes_per_cycle = 16;
  cfg.machine.nominal_hops = 1;
  cfg.carry_address_list = false;
  cfg.base_header_bytes = 8;
  rt::MulticastRuntime rtm(cfg);

  // pcmlint's exact interval analysis of each tree on that machine.
  analysis::Table t({"tree", "model latency", "paper", "depth", "contention-free"});
  const auto cf = [&](const MulticastTree& tr) {
    const lint::LintReport rep = lint::lint_tree(tr, *topo, cfg, sim::SimConfig{}, 0);
    return rep.contention_free ? "yes" : "NO";
  };
  t.add_row({"OPT-Mesh", std::to_string(model_latency(opt_tree, tp)), "130",
             std::to_string(tree_depth(opt_tree)), cf(opt_tree)});
  t.add_row({"U-Mesh", std::to_string(model_latency(u_tree, tp)), "165",
             std::to_string(tree_depth(u_tree)), cf(u_tree)});
  h.report(t, "Figure 1 latencies (model, cycles)");

  // Flit-level confirmation on the same machine.
  sim::Simulator s1(*topo), s2(*topo);
  const auto r_opt = rtm.run(s1, opt_tree, 0);
  const auto r_u = rtm.run(s2, u_tree, 0);
  analysis::Table st({"tree", "simulated", "model", "conflicts"});
  st.add_row({"OPT-Mesh", std::to_string(r_opt.latency),
              std::to_string(r_opt.model_latency), std::to_string(r_opt.channel_conflicts)});
  st.add_row({"U-Mesh", std::to_string(r_u.latency), std::to_string(r_u.model_latency),
              std::to_string(r_u.channel_conflicts)});
  h.report(st, "Flit-level run of the same trees (cycles)");

  std::cout << "\nExpectation (paper): OPT-mesh 130 vs U-mesh 165; both "
               "contention-free; simulated values track the model up to the "
               "true hop distances.\n";
  return 0;
}
