// E16 — Chaos statistics: audited random fault scenarios.
//
// Runs seeded chaos sweeps of increasing size through the invariant
// auditor and reports the aggregate fault/recovery statistics: violations
// (expected 0 on the shipped builders), watchdog expiries, delivery
// fraction, retry/repair volume, and messages lost to faults.  The sweep
// is bit-identical at any --jobs value, so the table doubles as a
// regression surface for the fault-tolerant runtime.
#include <iostream>

#include "analysis/table.hpp"
#include "harness/harness.hpp"
#include "verify/chaos.hpp"

using namespace pcm;
using namespace pcm::harness;

int main(int argc, char** argv) {
  Harness h("bench_chaos", argc, argv);
  const rt::RuntimeConfig cfg;  // run_scenario uses the same defaults
  h.preamble("E16: audited chaos scenarios (mesh 4/8/16 + BMIN 32/64, random "
             "FaultPlans)",
             cfg, 4096, kPaperReps);

  analysis::Table t({"scenarios", "violations", "watchdogs", "delivered",
                     "retries", "repairs", "dropped"});
  for (const int scenarios : {100, 400, 1000}) {
    verify::ChaosConfig cc;
    cc.scenarios = scenarios;
    cc.seed = kSeed;
    cc.jobs = h.fan_out().jobs();
    cc.max_minimized = 3;
    const verify::ChaosReport rep = verify::run_chaos(cc, &std::cout);
    t.add_row({std::to_string(rep.scenarios), std::to_string(rep.violations),
               std::to_string(rep.watchdogs),
               analysis::Table::num(rep.mean_delivered, 4),
               std::to_string(rep.retries), std::to_string(rep.repairs),
               std::to_string(rep.dropped)});
  }
  h.report(t, "Chaos sweep statistics (seed " + std::to_string(kSeed) + ")",
           "chaos.csv");

  std::cout << "\nExpectation: zero violations and zero watchdogs at every "
               "size; the delivery fraction sits a few percent below 1.0 "
               "(killed destinations are declared dead, dropped messages are "
               "retransmitted), and retries scale roughly linearly with the "
               "scenario count.\n";
  return 0;
}
