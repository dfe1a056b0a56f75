// E-FT — Fault-degradation curves for the fault-tolerant runtime.
//
// Sweeps fault severity on the 16x16 mesh (OPT-Mesh, 32 nodes, 4 KB) and
// reports how gracefully the ack/timeout/retransmit + tree-repair
// protocol degrades: delivered fraction, retransmissions, repairs, and
// the latency added over the zero-fault baseline.
//
//   * node kills:  n random non-source destinations fail-stop at cycles
//     staggered across the multicast's model latency (mid-flight);
//   * rate faults: per-hop message drop / per-delivery corruption with a
//     seeded substream hash.
//
// Every placement gets its own Simulator and plan; fault decisions are
// pure hashes, so the curves are bit-identical at any --jobs.  With
// --faults SPEC an extra table applies that exact plan to every rep.
#include <functional>
#include <random>

#include "harness/harness.hpp"
#include "mesh/mesh_topology.hpp"
#include "sim/fault.hpp"

using namespace pcm;
using namespace pcm::harness;

namespace {

constexpr Bytes kBytes = 4096;
constexpr int kGroup = 32;

struct Slot {
  double delivered = 1.0;
  Time latency = 0;
  long long retries = 0;
  long long repairs = 0;
  long long dead = 0;
  long long conflicts = 0;
};

void add_row(analysis::Table& t, const std::string& label,
             std::span<const Slot> slots, double baseline_mean) {
  std::vector<double> delivered, latency;
  long long retries = 0, repairs = 0, dead = 0, conflicts = 0;
  for (const Slot& s : slots) {
    delivered.push_back(s.delivered);
    latency.push_back(static_cast<double>(s.latency));
    retries += s.retries;
    repairs += s.repairs;
    dead += s.dead;
    conflicts += s.conflicts;
  }
  const analysis::Stats ls = analysis::summarize(latency);
  t.add_row({label, analysis::Table::num(analysis::summarize(delivered).mean, 4),
             analysis::Table::num(ls.mean, 1),
             analysis::Table::num(baseline_mean < 0 ? 0 : ls.mean - baseline_mean, 1),
             std::to_string(retries), std::to_string(repairs), std::to_string(dead),
             std::to_string(conflicts)});
}

std::vector<std::string> columns() {
  return {"severity", "delivered", "latency", "added",
          "retries",  "repairs",   "dead",    "blocked"};
}

}  // namespace

int main(int argc, char** argv) {
  Harness h("bench_fault_sweep", argc, argv);
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime rtm(cfg);
  h.preamble("E-FT: fault-degradation curves (16x16 mesh, OPT-Mesh, 32 nodes, 4 KB)",
             cfg, kBytes, kPaperReps);

  const auto topo = mesh::make_mesh2d(16);
  const MeshShape* shape = &topo->shape();
  const auto placements =
      analysis::sample_placements(kSeed, topo->num_nodes(), kGroup, kPaperReps);

  // Kill cycles are staggered across the model latency so failures land
  // mid-multicast, not before or after it.
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(kBytes, 1));
  const Time model = opt_split_table(tp.t_hold, tp.t_end, kGroup).latency(kGroup);

  // One reliable OPT-Mesh run per placement under plan_of(i), slots in
  // placement order.
  const auto run_plans = [&](const std::function<sim::FaultPlan(std::size_t)>& plan_of) {
    std::vector<Slot> slots(placements.size());
    h.fan_out().run(
        slots.size(),
        [&](std::size_t) { return RunSpec{topo.get(), McastAlgorithm::kOptMesh}; },
        [&](std::size_t i, sim::Simulator& sim, obs::FlightRecorder*) {
          const analysis::Placement& p = placements[i];
          sim.set_fault_plan(plan_of(i));
          const rt::McastResult r = rtm.run_reliable(
              sim, build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, shape),
              kBytes, rt::FtConfig{});
          slots[i] = Slot{r.delivered_fraction,
                          r.latency,
                          r.retries,
                          r.repairs,
                          static_cast<long long>(r.dead_nodes.size()),
                          r.channel_conflicts};
        });
    return slots;
  };
  auto sweep = [&](std::span<const Slot> slots) {
    std::vector<double> lat;
    for (const Slot& s : slots) lat.push_back(static_cast<double>(s.latency));
    return analysis::summarize(lat).mean;
  };

  // --- node fail-stop sweep ---------------------------------------------
  analysis::Table kills(columns());
  double baseline = -1;
  for (const int n : {0, 1, 2, 4, 8}) {
    const std::vector<Slot> slots = run_plans([&](std::size_t i) {
      const analysis::Placement& p = placements[i];
      std::mt19937_64 rng(substream_seed(kSeed ^ 0xfa17u, i));
      std::vector<NodeId> victims(p.dests.begin(), p.dests.end());
      sim::FaultPlan plan;
      for (int j = 0; j < n; ++j) {
        std::uniform_int_distribution<std::size_t> pick(j, victims.size() - 1);
        std::swap(victims[static_cast<std::size_t>(j)], victims[pick(rng)]);
        const Time at = (j + 1) * model / (n + 1);
        plan.node_events.push_back({at, victims[static_cast<std::size_t>(j)]});
      }
      return plan;
    });
    if (baseline < 0) baseline = sweep(slots);
    add_row(kills, std::to_string(n) + " killed", slots, n == 0 ? -1 : baseline);
  }
  h.report(kills, "node fail-stop mid-multicast", "fault_kills.csv");

  // --- rate-fault sweep --------------------------------------------------
  analysis::Table rates(columns());
  struct RateCase {
    const char* label;
    double drop;
    double corrupt;
  };
  for (const RateCase& rc : {RateCase{"drop 1e-4", 1e-4, 0.0},
                             RateCase{"drop 1e-3", 1e-3, 0.0},
                             RateCase{"drop 1e-2", 1e-2, 0.0},
                             RateCase{"corrupt 1e-3", 0.0, 1e-3},
                             RateCase{"corrupt 1e-2", 0.0, 1e-2}}) {
    const std::vector<Slot> slots = run_plans([&](std::size_t i) {
      sim::FaultPlan plan;
      plan.drop_rate = rc.drop;
      plan.corrupt_rate = rc.corrupt;
      plan.seed = substream_seed(kSeed, i);
      return plan;
    });
    add_row(rates, rc.label, slots, baseline);
  }
  h.report(rates, "rate-based faults (per-hop drop / per-delivery corruption)",
           "fault_rates.csv");

  // --- explicit plan from --faults ---------------------------------------
  if (!h.options().faults.empty()) {
    const sim::FaultPlan plan = sim::FaultPlan::parse(h.options().faults);
    analysis::Table custom(columns());
    add_row(custom, plan.describe(), run_plans([&](std::size_t) { return plan; }),
            baseline);
    h.report(custom, "custom fault plan (--faults)", "fault_custom.csv");
  }

  std::cout << "\nExpectation: delivered fraction degrades as (k-1-n)/k under n\n"
               "kills once retries are exhausted, while survivors keep ~0 blocked\n"
               "cycles (repaired sub-chains stay dimension-ordered); rate faults\n"
               "cost retries and added latency long before they cost coverage.\n";
  return 0;
}
