// Future-work walkthrough (paper Sec. 6): multicast on a network where no
// contention-free node ordering exists — a unidirectional butterfly MIN —
// and how far *temporal* ordering gets.  Prints the chains, conflict
// scores, and the simulated outcome side by side.
#include <iostream>

#include "analysis/sampling.hpp"
#include "analysis/viz.hpp"
#include "butterfly/butterfly_topology.hpp"
#include "butterfly/temporal_order.hpp"
#include "runtime/mcast_runtime.hpp"

int main() {
  using namespace pcm;

  const auto topo = butterfly::make_butterfly(64);
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime runtime(cfg);
  const Bytes payload = 4096;
  const TwoParam tp = cfg.machine.two_param(runtime.wire_bytes(payload, 1));

  std::cout << "Butterfly example: 24-node multicast on a 64-node "
               "unidirectional MIN\n"
            << "machine: " << describe(cfg.machine, payload) << "\n\n";

  analysis::Rng rng(2026);
  const analysis::Placement p = analysis::sample_placement(rng, 64, 24);
  const SplitTable table = opt_split_table(tp.t_hold, tp.t_end, 24);

  // Lexicographic chain (the BMIN recipe) — no guarantee here.
  const Chain lex = make_chain(p.source, p.dests, ChainOrder::kLexicographic);
  const int lex_score =
      butterfly::temporal_conflict_score(lex, table, *topo, runtime, payload);

  // Temporal tuning: local search over orderings.
  butterfly::TemporalOrderOptions opts;
  opts.budget = 400;
  opts.seed = 7;
  const auto tuned =
      butterfly::temporal_order(p.source, p.dests, *topo, runtime, payload, opts);

  std::cout << "predicted conflicting send pairs: lexicographic=" << lex_score
            << ", temporally tuned=" << tuned.final_conflicts << " ("
            << tuned.moves_accepted << "/" << tuned.moves_tried
            << " moves accepted)\n\n";

  auto simulate = [&](const Chain& chain, const char* name) {
    sim::Simulator sim(*topo);
    const auto res = runtime.run(sim, build_chain_split_tree(chain, table), payload);
    std::cout << name << ": latency " << res.latency << " cycles (model bound "
              << res.model_latency << "), blocked " << res.channel_conflicts
              << " cycles\n";
    return res.latency;
  };
  const Time l1 = simulate(lex, "lexicographic order");
  const Time l2 = simulate(tuned.chain, "temporal order    ");

  std::cout << "\ntuned tree:\n"
            << analysis::tree_ascii(build_chain_split_tree(tuned.chain, table), &tp)
            << "\nReading: the butterfly has exactly one path per node pair, "
               "so some conflicts are structural — ordering can only push "
               "them apart in time (here: "
            << (l1 > l2 ? "successfully" : "already clean") << ").\n";
  return 0;
}
