#include "analysis/sampling.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace pcm::analysis {

namespace {

void check_group(int num_nodes, int k) {
  if (k < 2 || k > num_nodes)
    throw std::invalid_argument("sample_placement: need 2 <= k <= num_nodes");
}

// Partial Fisher-Yates over the node id range.  `ids` holds the identity
// permutation on entry and again on return (the swaps are undone in
// reverse), so repeated draws share one buffer instead of rebuilding all
// num_nodes entries per placement.
Placement draw(Rng& rng, std::vector<NodeId>& ids, int k,
               std::vector<int>& picks) {
  const int num_nodes = static_cast<int>(ids.size());
  picks.resize(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(rng.below(num_nodes - i));
    picks[static_cast<std::size_t>(i)] = j;
    std::swap(ids[i], ids[j]);
  }
  Placement p;
  p.source = ids[0];
  p.dests.assign(ids.begin() + 1, ids.begin() + k);
  for (int i = k - 1; i >= 0; --i)
    std::swap(ids[i], ids[picks[static_cast<std::size_t>(i)]]);
  return p;
}

}  // namespace

Placement sample_placement(Rng& rng, int num_nodes, int k) {
  check_group(num_nodes, k);
  std::vector<NodeId> ids(num_nodes);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<int> picks;
  return draw(rng, ids, k, picks);
}

std::vector<Placement> sample_placements(std::uint64_t seed, int num_nodes, int k,
                                         int reps) {
  Rng rng(seed);
  std::vector<Placement> out;
  out.reserve(reps);
  if (reps <= 0) return out;
  check_group(num_nodes, k);
  std::vector<NodeId> ids(num_nodes);
  std::iota(ids.begin(), ids.end(), 0);
  std::vector<int> picks;
  for (int r = 0; r < reps; ++r) out.push_back(draw(rng, ids, k, picks));
  return out;
}

}  // namespace pcm::analysis
