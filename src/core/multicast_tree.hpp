// Explicit multicast trees produced by the chain-split procedure
// (Algorithms 3.1 / 4.1 of the paper), plus a contention-free model
// evaluator that reproduces the DP's predicted latency exactly.
//
// The runtime executes trees *distributedly* — each message carries the
// chain interval its receiver is responsible for, and the receiver re-runs
// the same split loop — but for analysis it is convenient to expand the
// whole tree at once; `build_chain_split_tree` performs that expansion and
// is, by construction, identical to what the distributed loop computes.
#pragma once

#include <string>
#include <vector>

#include "core/chain.hpp"
#include "core/model.hpp"
#include "core/opt_tree.hpp"
#include "core/types.hpp"

namespace pcm {

/// One unicast message of the software multicast.
struct SendEvent {
  int sender_pos = 0;    ///< chain position of the sender
  int receiver_pos = 0;  ///< chain position of the receiver
  int seq = 0;           ///< 0-based issue index among the sender's sends
  int sub_lo = 0;        ///< receiver's responsibility interval [sub_lo, sub_hi]
  int sub_hi = 0;        ///< (inclusive, chain positions; contains receiver_pos)
};

/// A fully expanded multicast tree over a chain.
struct MulticastTree {
  Chain chain;
  std::vector<SendEvent> sends;        ///< all unicasts, construction order
  std::vector<std::vector<int>> out;   ///< per position: send indices, issue order

  [[nodiscard]] int num_nodes() const { return chain.size(); }
  [[nodiscard]] NodeId node(int pos) const { return chain.at(pos); }
};

/// Expands the chain-split procedure: every node that holds interval
/// [l, r] repeatedly splits it per `table` (j_i for i = r-l+1) and sends
/// to the boundary node of the far part.  Requires table.size() >= chain
/// size.  A chain of size 1 yields an empty tree.
MulticastTree build_chain_split_tree(const Chain& chain, const SplitTable& table);

/// Completion times under the ideal (contention-free, distance-
/// insensitive) parameterized model: sends issued t_hold apart, each
/// delivered t_end after issue.  Returns per-position finish-receive
/// times; the source's entry is its last-operation-issue time.
std::vector<Time> model_finish_times(const MulticastTree& tree, TwoParam tp);

/// max over destinations of model_finish_times (the model multicast
/// latency).  Equals SplitTable::latency(k) when the tree was built from
/// an optimal table.
Time model_latency(const MulticastTree& tree, TwoParam tp);

/// Reduction (gather) completion times under the ideal model, running the
/// tree *in reverse*: leaves start at 0, every edge delivers t_end after
/// its child subtree finishes, and a parent's consecutive child
/// completions are staggered by t_hold in the mirror of the multicast
/// issue order.  By time-reversal symmetry the root's completion equals
/// model_latency() of the forward multicast — a property the tests pin.
std::vector<Time> model_reduce_finish_times(const MulticastTree& tree, TwoParam tp);
Time model_reduce_latency(const MulticastTree& tree, TwoParam tp);

/// Longest root-to-leaf edge count.
int tree_depth(const MulticastTree& tree);

/// Largest number of sends issued by any single node.
int max_fanout(const MulticastTree& tree);

/// Structural sanity: every non-source position is received exactly once,
/// intervals nest properly, and every send crosses its split boundary.
/// Returns an empty string if consistent, else a diagnostic.
std::string check_tree(const MulticastTree& tree);

}  // namespace pcm
