// E20 — Recovery latency and availability under membership faults.
//
// Streams slots through a contention-free tree on the 16x16 mesh and the
// 64-node BMIN while killing one participant a third of the way through
// the model-rate schedule, with lease-based membership, source failover,
// and rejoin enabled.  Three fault positions are swept — an early-chain
// receiver, a mid-chain receiver, and the source itself — against the
// heartbeat cadence, because the detector's confirm ladder (not the
// retransmission path) dominates time-to-recover.
//
// Reported per case:
//   recovery   cycles from the kill to the first slot committed after it
//              (commit frontier stalls while the detector converges, then
//              the epoch replay drains the window)
//   avail      sustained committed slots per kilocycle over the whole run,
//              i.e. throughput including the outage window
//   epochs / failovers / retries  the price of the recovery itself
//
// Every run gets its own Simulator; membership sweeps are deterministic,
// so all tables are bit-identical at any --jobs value.
#include <vector>

#include "bmin/bmin_topology.hpp"
#include "harness/harness.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"

using namespace pcm;
using namespace pcm::harness;

namespace {

constexpr Bytes kBytes = 64;
constexpr int kGroup = 16;
constexpr int kReps = 3;
constexpr int kSlots = 600;
constexpr int kWindow = 8;
constexpr Time kHeartbeats[] = {400, 800, 1600};

enum class Victim { kEarlyReceiver, kMidReceiver, kSource };

const char* victim_name(Victim v) {
  switch (v) {
    case Victim::kEarlyReceiver: return "early-recv";
    case Victim::kMidReceiver: return "mid-recv";
    case Victim::kSource: return "source";
  }
  return "?";
}

NodeId victim_node(Victim v, const analysis::Placement& p) {
  switch (v) {
    case Victim::kEarlyReceiver: return p.dests.front();
    case Victim::kMidReceiver: return p.dests[p.dests.size() / 2];
    case Victim::kSource: return p.source;
  }
  return p.source;
}

/// Cycles from the kill to the first commit at or after it (-1 when the
/// stream never committed another slot — recovery failed).
Time recovery_time(const rt::StreamResult& r, Time t_fault) {
  Time first = -1;
  for (const Time c : r.commit_time)
    if (c >= t_fault && (first < 0 || c < first)) first = c;
  return first < 0 ? -1 : first - t_fault;
}

struct Case {
  Victim victim;
  Time heartbeat;
  int rep;
};

std::vector<std::string> columns() {
  return {"victim",    "heartbeat", "recovery", "avail",   "committed",
          "epochs",    "failovers", "rejoins",  "retries", "delivered"};
}

void add_row(analysis::Table& t, Victim victim, Time hb,
             std::span<const rt::StreamResult> runs, std::span<const Time> rec) {
  double recovery = 0, avail = 0, delivered = 0;
  long long committed = 0, epochs = 0, failovers = 0, rejoins = 0, retries = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const rt::StreamResult& r = runs[i];
    recovery += static_cast<double>(rec[i]);
    avail += static_cast<double>(r.committed) /
             (static_cast<double>(r.makespan) / 1000.0);
    committed += r.committed;
    epochs += r.epoch;
    failovers += r.failovers;
    rejoins += r.rejoins;
    retries += r.retries;
    delivered += r.delivered_fraction;
  }
  const double n = static_cast<double>(runs.size());
  t.add_row({victim_name(victim), std::to_string(hb),
             analysis::Table::num(recovery / n, 0),
             analysis::Table::num(avail / n, 3), std::to_string(committed),
             std::to_string(epochs), std::to_string(failovers),
             std::to_string(rejoins), std::to_string(retries),
             analysis::Table::num(delivered / n, 4)});
}

void sweep(Harness& h, const sim::Topology& topo, const MeshShape* shape,
           McastAlgorithm alg, const rt::StreamRuntime& srt, Time t_fault,
           const std::vector<analysis::Placement>& placements,
           const std::string& title, const std::string& csv) {
  std::vector<Case> cases;
  for (const Victim v :
       {Victim::kEarlyReceiver, Victim::kMidReceiver, Victim::kSource})
    for (const Time hb : kHeartbeats)
      for (int rep = 0; rep < kReps; ++rep) cases.push_back({v, hb, rep});

  std::vector<rt::StreamResult> runs(cases.size());
  std::vector<Time> rec(cases.size());
  h.fan_out().run(
      cases.size(), [&](std::size_t) { return RunSpec{&topo, alg}; },
      [&](std::size_t i, sim::Simulator& sim, obs::FlightRecorder* trace) {
        const Case& c = cases[i];
        const analysis::Placement& p = placements[static_cast<std::size_t>(c.rep)];
        sim::FaultPlan plan;
        plan.node_events.push_back({t_fault, victim_node(c.victim, p)});
        sim.set_fault_plan(plan);
        rt::StreamConfig scfg;
        scfg.window_size = kWindow;
        scfg.slots = kSlots;
        scfg.bytes = kBytes;
        scfg.alg = alg;
        scfg.shape = shape;
        scfg.reliable = true;
        scfg.membership.heartbeat_period = c.heartbeat;
        scfg.failover = true;
        scfg.rejoin = true;
        scfg.recorder = trace;
        runs[i] = srt.run(sim, p.source, p.dests, scfg);
        rec[i] = recovery_time(runs[i], t_fault);
      });

  analysis::Table t(columns());
  for (std::size_t i = 0; i < cases.size(); i += kReps)
    add_row(t, cases[i].victim, cases[i].heartbeat,
            std::span(runs).subspan(i, kReps), std::span(rec).subspan(i, kReps));
  h.report(t, title, csv);
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_recovery", argc, argv);
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime rtm(cfg);
  const rt::StreamRuntime srt(rtm);
  h.preamble(
      "E20: recovery latency vs heartbeat cadence (mid-stream kill, "
      "failover + rejoin on)",
      cfg, kBytes, kReps);

  // The kill lands a third of the way through the model-rate schedule on
  // both fabrics, so detector cadences are compared on equal footing.
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(kBytes, 1));
  const Time model = opt_split_table(tp.t_hold, tp.t_end, kGroup).latency(kGroup);
  const Time t_fault = model * kSlots / 3;

  const auto mesh = mesh::make_mesh2d(16);
  sweep(h, *mesh, &mesh->shape(), McastAlgorithm::kOptMesh, srt, t_fault,
        analysis::sample_placements(kSeed, mesh->num_nodes(), kGroup, kReps),
        "16x16 mesh, OPT-Mesh: recovery vs heartbeat", "recovery_mesh.csv");

  const auto bmin = bmin::make_bmin(64, bmin::UpPolicy::kSourceAddress);
  sweep(h, *bmin, nullptr, McastAlgorithm::kOptMin, srt, t_fault,
        analysis::sample_placements(kSeed ^ 0xb414u, 64, kGroup, kReps),
        "64-node BMIN, OPT-Min: recovery vs heartbeat", "recovery_bmin.csv");

  std::cout << "\nExpectation: for a *source* kill only the failure detector can\n"
               "act (acks stop flowing but nobody retries the source), so\n"
               "time-to-recover scales with the heartbeat period — the confirm\n"
               "ladder is the critical path, not the succession or the window\n"
               "replay, and every surviving slot still commits (delivered 1.0).\n"
               "*Receiver* kills are raced by the ack-deadline retry ladder,\n"
               "which evicts after max_retries regardless of cadence, so their\n"
               "recovery curve is flat-to-non-monotone in the heartbeat: fast\n"
               "detectors win the race (zero retries) without necessarily\n"
               "committing sooner.  Both fabrics behave alike — recovery is a\n"
               "protocol property, not a topology property.\n";
  return 0;
}
