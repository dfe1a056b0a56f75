// E10 — Section 6 extension: software multicast on a unidirectional
// butterfly MIN, where no contention-free node ordering exists.  Compares
// the untuned OPT tree (caller order), the lexicographic chain, and the
// temporal-ordering heuristic (local search minimizing the send pairs
// whose exact channel holds overlap, as pcmlint finds them), plus the
// binomial baseline.
#include "harness/harness.hpp"
#include "butterfly/butterfly_topology.hpp"
#include "butterfly/temporal_order.hpp"

using namespace pcm;
using namespace pcm::harness;

int main(int argc, char** argv) {
  Harness h("bench_butterfly_temporal", argc, argv);
  const auto topo = butterfly::make_butterfly(64);
  rt::RuntimeConfig cfg;
  rt::MulticastRuntime rtm(cfg);
  const Bytes size = 4096;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(size, 1));

  h.preamble("E10: 4 KB multicast on a 64-node unidirectional butterfly "
             "(no contention-free partition exists)",
             cfg, size, kPaperReps);

  analysis::Table t({"nodes", "Binomial(lex)", "OPT(caller)", "OPT(lex)",
                     "OPT(temporal)", "blk caller", "blk lex", "blk temporal"});
  for (int k : {8, 16, 24, 32, 48, 64}) {
    const auto placements = analysis::sample_placements(kSeed + k, 64, k, kPaperReps);
    const SplitTable opt = opt_split_table(tp.t_hold, tp.t_end, k);
    const SplitTable bin = binomial_split_table(tp.t_hold, tp.t_end, k);

    // Per-placement result slots, summed in placement order below, so the
    // output is identical at any --jobs value.
    struct Slot {
      double bin = 0, caller = 0, lex = 0, temporal = 0;
      double blk_caller = 0, blk_lex = 0, blk_temporal = 0;
    };
    std::vector<Slot> slots(placements.size());
    h.parallel_for(placements.size(), [&](std::size_t i) {
      const auto& p = placements[i];
      Slot& s = slots[i];
      auto run_chain = [&](const Chain& chain, const SplitTable& table,
                           double& lat, double* blk) {
        sim::Simulator sim(*topo);
        const auto res = rtm.run(sim, build_chain_split_tree(chain, table), size);
        lat += static_cast<double>(res.latency);
        if (blk != nullptr) *blk += static_cast<double>(res.channel_conflicts);
      };
      run_chain(make_chain(p.source, p.dests, ChainOrder::kLexicographic), bin,
                s.bin, nullptr);
      run_chain(make_chain(p.source, p.dests, ChainOrder::kAsGiven), opt,
                s.caller, &s.blk_caller);
      run_chain(make_chain(p.source, p.dests, ChainOrder::kLexicographic), opt,
                s.lex, &s.blk_lex);
      butterfly::TemporalOrderOptions opts;
      opts.budget = 250;
      // Independent local-search randomness per placement (RNG substream),
      // identical whether the sweep runs serially or in parallel.
      opts.seed = h.run_seed(i);
      const auto tuned = butterfly::temporal_order(p.source, p.dests, *topo, rtm, size, opts);
      run_chain(tuned.chain, opt, s.temporal, &s.blk_temporal);
    });
    Slot sum;
    for (const Slot& s : slots) {
      sum.bin += s.bin;
      sum.caller += s.caller;
      sum.lex += s.lex;
      sum.temporal += s.temporal;
      sum.blk_caller += s.blk_caller;
      sum.blk_lex += s.blk_lex;
      sum.blk_temporal += s.blk_temporal;
    }
    const double n = static_cast<double>(placements.size());
    t.add_row({std::to_string(k), analysis::Table::num(sum.bin / n, 0),
               analysis::Table::num(sum.caller / n, 0),
               analysis::Table::num(sum.lex / n, 0),
               analysis::Table::num(sum.temporal / n, 0),
               analysis::Table::num(sum.blk_caller / n, 0),
               analysis::Table::num(sum.blk_lex / n, 0),
               analysis::Table::num(sum.blk_temporal / n, 0)});
  }
  h.report(t, "Butterfly, 4 KB latency vs nodes (cycles)", "butterfly_temporal.csv");

  std::cout << "\nExpectation (paper Sec. 6): contention cannot be eliminated "
               "on the butterfly, but temporal ordering cuts blocked cycles "
               "versus naive orderings, narrowing the gap to the model "
               "bound.\n";
  return 0;
}
