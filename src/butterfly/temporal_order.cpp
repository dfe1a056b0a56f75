#include "butterfly/temporal_order.hpp"

#include <algorithm>
#include <climits>

#include "analysis/rng.hpp"
#include "core/opt_tree.hpp"
#include "lint/lint.hpp"

namespace pcm::butterfly {

int temporal_conflict_score(const Chain& chain, const SplitTable& table,
                            const sim::Topology& topo,
                            const rt::MulticastRuntime& rtm, Bytes payload) {
  lint::LintOptions opts;
  opts.max_diagnostics = INT_MAX;
  opts.keep_schedule = false;
  const lint::LintReport report =
      lint::lint_tree(build_chain_split_tree(chain, table), topo, rtm.config(),
                      sim::SimConfig{}, payload, opts);
  return static_cast<int>(
      std::ranges::count(report.diagnostics, lint::DiagKind::kContention,
                         &lint::LintDiagnostic::kind));
}

TemporalOrderResult temporal_order(NodeId source, std::span<const NodeId> dests,
                                   const sim::Topology& topo,
                                   const rt::MulticastRuntime& rtm, Bytes payload,
                                   TemporalOrderOptions opts) {
  TemporalOrderResult res;
  res.chain = make_chain(source, dests, ChainOrder::kLexicographic);
  const int k = res.chain.size();
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  const SplitTable table = opt_split_table(tp.t_hold, tp.t_end, k);

  auto score_of = [&](const Chain& c) {
    return temporal_conflict_score(c, table, topo, rtm, payload);
  };

  int best = score_of(res.chain);
  res.initial_conflicts = best;
  if (k <= 2 || best == 0) {
    res.final_conflicts = best;
    return res;
  }

  analysis::Rng rng(opts.seed);
  Chain candidate = res.chain;
  for (int step = 0; step < opts.budget && best > 0; ++step) {
    ++res.moves_tried;
    candidate = res.chain;
    // Propose: swap two positions, or relocate one node (alternating).
    const int a = static_cast<int>(rng.below(k));
    int b = static_cast<int>(rng.below(k));
    while (b == a) b = static_cast<int>(rng.below(k));
    if (step % 2 == 0) {
      std::swap(candidate.nodes[a], candidate.nodes[b]);
    } else {
      const NodeId moved = candidate.nodes[a];
      candidate.nodes.erase(candidate.nodes.begin() + a);
      candidate.nodes.insert(candidate.nodes.begin() + b, moved);
    }
    // Track the source's position under the permutation.
    const auto it =
        std::find(candidate.nodes.begin(), candidate.nodes.end(), source);
    candidate.source_pos = static_cast<int>(it - candidate.nodes.begin());

    const int s = score_of(candidate);
    if (s < best) {
      best = s;
      res.chain = candidate;
      ++res.moves_accepted;
    }
  }
  res.final_conflicts = best;
  return res;
}

}  // namespace pcm::butterfly
