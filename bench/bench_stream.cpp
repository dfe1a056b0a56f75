// E19 — Sustained streaming multicast throughput (stream runtime).
//
// Streams thousands of back-to-back slots through one contention-free
// tree on the 16x16 mesh (16 nodes, 64 B payloads — >= 10^5 network
// messages per series) and reports the sustained rate: slots and messages
// per kilocycle plus flits per cycle, as the slot-ring window grows from
// stop-and-wait (window 1) to deep pipelining.  OPT-Mesh and U-Mesh run
// on the identical placements, so the series are paired like the paper's
// figures.
//
// The faulty series replays the same sweep with two mid-stream node
// kills plus a 1e-3 drop rate under the reliable protocol, showing what
// epoch-based recovery costs: retransmissions, stale acks, and the
// throughput gap against the fault-free curve.
//
// Every run gets its own Simulator; fault decisions are pure hashes, so
// all tables are bit-identical at any --jobs value.
#include <vector>

#include "harness/harness.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"

using namespace pcm;
using namespace pcm::harness;

namespace {

constexpr Bytes kBytes = 64;
constexpr int kGroup = 16;
constexpr int kReps = 4;
constexpr int kSlotsClean = 8000;   // x (kGroup-1) sends ~ 1.2e5 messages/run
constexpr int kSlotsFaulty = 2000;  // reliable mode tracks every send
constexpr int kWindows[] = {1, 2, 4, 8, 16};
constexpr McastAlgorithm kAlgs[] = {McastAlgorithm::kOptMesh,
                                    McastAlgorithm::kUMesh};

std::vector<std::string> columns() {
  return {"algorithm", "window",      "slots",   "makespan", "slots/kcyc",
          "msgs/kcyc", "flits/cycle", "blocked", "epochs",   "retries",
          "stale",     "delivered"};
}

void add_row(analysis::Table& t, McastAlgorithm alg, int window,
             std::span<const rt::StreamResult> runs) {
  double makespan = 0, slots_rate = 0, msgs_rate = 0, flit_rate = 0;
  long long blocked = 0, epochs = 0, retries = 0, stale = 0;
  double delivered = 0;
  for (const rt::StreamResult& r : runs) {
    const double kcyc = static_cast<double>(r.makespan) / 1000.0;
    makespan += static_cast<double>(r.makespan);
    slots_rate += static_cast<double>(r.committed) / kcyc;
    msgs_rate += static_cast<double>(r.messages) / kcyc;
    flit_rate += static_cast<double>(r.flit_hops) /
                 static_cast<double>(r.sim_cycles > 0 ? r.sim_cycles : 1);
    blocked += r.channel_conflicts;
    epochs += r.epoch;
    retries += r.retries;
    stale += r.stale_acks;
    delivered += r.delivered_fraction;
  }
  const double n = static_cast<double>(runs.size());
  t.add_row({std::string(algorithm_name(alg)), std::to_string(window),
             std::to_string(runs.empty() ? 0 : runs.front().slots),
             analysis::Table::num(makespan / n, 0),
             analysis::Table::num(slots_rate / n, 3),
             analysis::Table::num(msgs_rate / n, 2),
             analysis::Table::num(flit_rate / n, 3), std::to_string(blocked),
             std::to_string(epochs), std::to_string(retries),
             std::to_string(stale), analysis::Table::num(delivered / n, 4)});
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_stream", argc, argv);
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime rtm(cfg);
  const rt::StreamRuntime srt(rtm);
  h.preamble(
      "E19: sustained streaming throughput (16x16 mesh, 16 nodes, 64 B slots)",
      cfg, kBytes, kReps);

  const auto topo = mesh::make_mesh2d(16);
  const MeshShape* shape = &topo->shape();
  const auto placements =
      analysis::sample_placements(kSeed, topo->num_nodes(), kGroup, kReps);

  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(kBytes, 1));
  const Time model = opt_split_table(tp.t_hold, tp.t_end, kGroup).latency(kGroup);

  struct Case {
    McastAlgorithm alg;
    int window;
    int rep;
  };
  std::vector<Case> cases;
  for (const McastAlgorithm alg : kAlgs)
    for (const int w : kWindows)
      for (int rep = 0; rep < kReps; ++rep) cases.push_back({alg, w, rep});

  // One stream per case, fault-free, then under the reliable protocol
  // with 2 mid-stream kills and a 1e-3 drop rate.
  for (const bool faulty : {false, true}) {
    std::vector<rt::StreamResult> runs(cases.size());
    h.fan_out().run(
        cases.size(), [&](std::size_t i) { return RunSpec{topo.get(), cases[i].alg}; },
        [&](std::size_t i, sim::Simulator& sim, obs::FlightRecorder* trace) {
          const Case& c = cases[i];
          const analysis::Placement& p = placements[static_cast<std::size_t>(c.rep)];
          rt::StreamConfig scfg;
          scfg.window_size = c.window;
          scfg.slots = faulty ? kSlotsFaulty : kSlotsClean;
          scfg.bytes = kBytes;
          scfg.alg = c.alg;
          scfg.shape = shape;
          scfg.reliable = faulty;
          scfg.recorder = trace;
          if (faulty) {
            sim::FaultPlan plan;
            // Kills land mid-stream: roughly 1/3 and 2/3 of the way through
            // the model-rate schedule, far enough apart to force two epoch
            // bumps.
            const Time span = model * kSlotsFaulty;
            plan.node_events.push_back({span / 3, p.dests.front()});
            plan.node_events.push_back({2 * span / 3, p.dests.back()});
            plan.drop_rate = 1e-3;
            plan.seed = substream_seed(kSeed ^ 0x57f0u, static_cast<std::uint64_t>(i));
            sim.set_fault_plan(plan);
          }
          runs[i] = srt.run(sim, p.source, p.dests, scfg);
        });
    analysis::Table table(columns());
    for (std::size_t i = 0; i < cases.size(); i += kReps)
      add_row(table, cases[i].alg, cases[i].window, std::span(runs).subspan(i, kReps));
    h.report(table,
             faulty ? "faulty stream throughput (2 kills + drop 1e-3)"
                    : "fault-free stream throughput",
             faulty ? "stream_faulty.csv" : "stream_clean.csv");
  }

  std::cout << "\nExpectation: throughput climbs with the window until the\n"
               "source's per-slot critical path saturates (here already at\n"
               "window 2).  OPT-Mesh wins at window 1 (it minimizes one-shot\n"
               "latency) but pipelined U-Mesh sustains more slots/kcycle:\n"
               "latency-optimal trees are not throughput-optimal.  The faulty\n"
               "sweep pays epoch rebuilds and the retry ladder but keeps\n"
               "every surviving receiver gap-free.\n";
  return 0;
}
