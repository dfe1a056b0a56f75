// E22 — Static steady-state prediction vs measured streaming throughput.
//
// For every (topology, algorithm, window) cell the static analyzer
// (lint::lint_stream) replays the windowed streaming schedule
// symbolically, detects the steady-state period, and predicts the
// per-slot pipeline interval and sustained slots/kcycle — without
// simulating a flit.  The same cell then runs for real through the
// stream runtime on the identical placements, and the table reports both
// rates side by side with the relative error.
//
// The point is E19's crossover, established statically this time: at
// window 1 the latency-optimal trees (OPT-Mesh / OPT-Min) win, while any
// deeper window is software-bound at the source, where U-Mesh / U-Min's
// shorter send ladder sets the interval — the analyzer proves it via the
// saturated busy bound instead of measuring it.  On fault-free runs the
// static and measured rates agree exactly (the tests pin bit-equal
// commit times); the error column is a drift alarm, not a tolerance.
#include <vector>

#include "bmin/bmin_topology.hpp"
#include "harness/harness.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/stream_runtime.hpp"

using namespace pcm;
using namespace pcm::harness;

namespace {

constexpr Bytes kBytes = 64;
constexpr int kGroup = 16;
constexpr int kReps = 4;
constexpr int kSlots = 8000;
constexpr int kWindows[] = {1, 2, 4};

struct Cell {
  const sim::Topology* topo;
  const MeshShape* shape;
  const char* topo_name;
  McastAlgorithm alg;
  int window;
  int rep;
};

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_lint_stream", argc, argv);
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime rtm(cfg);
  const rt::StreamRuntime srt(rtm);
  h.preamble(
      "E22: static pipeline-interval prediction vs measured throughput",
      cfg, kBytes, kReps);

  const auto mesh_topo = mesh::make_mesh2d(16);
  const bmin::BminTopology bmin_topo(64);
  const auto mesh_placements =
      analysis::sample_placements(kSeed, mesh_topo->num_nodes(), kGroup, kReps);
  const auto bmin_placements =
      analysis::sample_placements(kSeed, bmin_topo.num_nodes(), kGroup, kReps);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(kBytes, 1));

  std::vector<Cell> cells;
  for (const McastAlgorithm alg :
       {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh})
    for (const int w : kWindows)
      for (int rep = 0; rep < kReps; ++rep)
        cells.push_back(
            {mesh_topo.get(), &mesh_topo->shape(), "mesh:16", alg, w, rep});
  for (const McastAlgorithm alg :
       {McastAlgorithm::kOptMin, McastAlgorithm::kUMin})
    for (const int w : kWindows)
      for (int rep = 0; rep < kReps; ++rep)
        cells.push_back({&bmin_topo, nullptr, "bmin:64", alg, w, rep});

  std::vector<lint::StreamLintReport> predicted(cells.size());
  std::vector<rt::StreamResult> measured(cells.size());
  const auto alg_of = [&](std::size_t i) { return cells[i].alg; };
  h.traced_runs(cells.size(), alg_of, [&](std::size_t i, obs::FlightRecorder* trace) {
    const Cell& c = cells[i];
    const analysis::Placement& p = (c.shape != nullptr ? mesh_placements
                                                       : bmin_placements)
        [static_cast<std::size_t>(c.rep)];
    const MulticastTree tree =
        build_multicast(c.alg, p.source, p.dests, tp, c.shape);
    predicted[i] =
        lint::lint_stream(tree, *c.topo, cfg, sim::SimConfig{}, kBytes, kSlots,
                          c.window);
    sim::Simulator sim(*c.topo, h.sim_config());
    sim.set_observer(trace);
    rt::StreamConfig scfg;
    scfg.window_size = c.window;
    scfg.slots = kSlots;
    scfg.bytes = kBytes;
    scfg.alg = c.alg;
    scfg.shape = c.shape;
    scfg.recorder = trace;
    measured[i] = srt.run(sim, p.source, p.dests, scfg);
  });

  analysis::Table t({"topology", "algorithm", "window", "interval",
                     "busy bound", "saturated", "static slots/kcyc",
                     "measured slots/kcyc", "err %", "blocked"});
  for (std::size_t i = 0; i < cells.size(); i += kReps) {
    double stat_rate = 0, meas_rate = 0, interval = 0;
    long long blocked = 0;
    bool saturated = true;
    Time busy = 0;
    for (std::size_t r = i; r < i + kReps; ++r) {
      stat_rate += predicted[r].slots_per_kcycle;
      meas_rate += 1000.0 * static_cast<double>(measured[r].committed) /
                   static_cast<double>(measured[r].makespan);
      interval += predicted[r].interval;
      blocked += measured[r].channel_conflicts;
      saturated = saturated && predicted[r].saturated;
      busy = std::max(busy, predicted[r].busy_bound);
    }
    const double n = kReps;
    const Cell& c = cells[i];
    t.add_row({c.topo_name, std::string(algorithm_name(c.alg)),
               std::to_string(c.window), analysis::Table::num(interval / n, 1),
               std::to_string(busy), saturated ? "yes" : "no",
               analysis::Table::num(stat_rate / n, 3),
               analysis::Table::num(meas_rate / n, 3),
               analysis::Table::num(
                   meas_rate > 0
                       ? 100.0 * (stat_rate - meas_rate) / meas_rate
                       : 0.0,
                   3),
               std::to_string(blocked)});
  }
  h.report(t, "static vs measured streaming throughput", "lint_stream.csv");

  std::cout << "\nExpectation: zero error everywhere — the analyzer replays\n"
               "the fault-free pipeline exactly.  The crossover is visible\n"
               "in both columns: OPT leads at window 1, U-* lead (saturated\n"
               "busy bound) from window 2 on, on the mesh and the BMIN\n"
               "alike.  Statics cost microseconds; the measured column\n"
               "simulates ~10^5 messages per cell.\n";
  return 0;
}
