// E17 — pcmlint throughput: the static schedule analyzer vs the flit
// simulator on the Figure-2 configurations (32-node multicast on the
// 16x16 wormhole mesh, message sizes 0..64k, 16 random placements per
// point).  Both passes consume identical trees; the analyzer must agree
// with the simulator (clean verdict, exact makespan) while never moving
// a flit, and the table reports how much faster that is.
#include <chrono>
#include <vector>

#include "harness/harness.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

using namespace pcm;
using namespace pcm::harness;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_lint", argc, argv);
  const auto topo = mesh::make_mesh2d(16);
  const MeshShape* shape = &topo->shape();
  rt::RuntimeConfig cfg;  // Paragon-class defaults (MachineParams::classic)
  rt::MulticastRuntime rtm(cfg);
  const sim::SimConfig sim_cfg{.engine = h.options().engine};

  h.preamble(
      "E17: static analyzer vs flit simulator, 32-node OPT-Mesh multicast "
      "on 16x16 mesh",
      cfg, 4096, kPaperReps);

  analysis::Table t({"size", "lint ms/sched", "sim ms/sched", "lint sched/s",
                     "speedup", "agree"});
  for (Bytes size = 0; size <= 65536; size += 8192) {
    const auto placements =
        analysis::sample_placements(kSeed, 256, 32, kPaperReps);
    const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(size, 1));
    std::vector<MulticastTree> trees;
    trees.reserve(placements.size());
    for (const analysis::Placement& p : placements)
      trees.push_back(
          build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, shape));

    // Static pass.  One lint is far below clock resolution, so repeat;
    // verdicts and makespans are recorded once.
    lint::LintOptions opts;
    opts.keep_schedule = false;
    std::vector<lint::LintReport> reports;
    reports.reserve(trees.size());
    for (const MulticastTree& tree : trees)
      reports.push_back(lint::lint_tree(tree, *topo, cfg, sim_cfg, size, opts));
    constexpr int kLintRepeat = 32;
    const auto lint_t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kLintRepeat; ++r)
      for (const MulticastTree& tree : trees)
        (void)lint::lint_tree(tree, *topo, cfg, sim_cfg, size, opts);
    const double lint_ms =
        ms_since(lint_t0) / (kLintRepeat * static_cast<double>(trees.size()));

    // Dynamic pass: one fresh simulator per placement, as the benches do.
    std::vector<Time> latencies(trees.size());
    const auto sim_t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < trees.size(); ++i) {
      sim::Simulator sim(*topo, sim_cfg);
      latencies[i] = rtm.run(sim, trees[i], size, 0).latency;
    }
    const double sim_ms = ms_since(sim_t0) / static_cast<double>(trees.size());

    bool agree = true;
    for (std::size_t i = 0; i < trees.size(); ++i)
      agree = agree && reports[i].clean() && reports[i].makespan == latencies[i];

    t.add_row({size_label(size), analysis::Table::num(lint_ms, 4),
               analysis::Table::num(sim_ms, 4),
               analysis::Table::num(1000.0 / lint_ms, 0),
               analysis::Table::num(sim_ms / lint_ms, 1),
               agree ? "yes" : "NO"});
  }
  h.report(t, "E17 (analyzer vs simulator throughput)", "lint_throughput.csv");

  std::cout << "\nExpectation: agree=yes at every size (clean verdict and "
               "exact makespan), with the analyzer's advantage growing with "
               "message size — simulation cost scales with flits moved, "
               "symbolic analysis only with sends and hops.\n";
  return 0;
}
