#include "core/chain.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

namespace pcm {
namespace {

void check_distinct(NodeId source, std::span<const NodeId> dests) {
  std::unordered_set<NodeId> seen;
  seen.insert(source);
  for (NodeId d : dests) {
    if (!seen.insert(d).second)
      throw std::invalid_argument("make_chain: duplicate participant or source among destinations");
  }
}

}  // namespace

Chain make_chain(NodeId source, std::span<const NodeId> dests, ChainOrder order,
                 const MeshShape* shape) {
  check_distinct(source, dests);
  Chain c;
  c.nodes.reserve(dests.size() + 1);
  c.nodes.push_back(source);
  c.nodes.insert(c.nodes.end(), dests.begin(), dests.end());

  switch (order) {
    case ChainOrder::kAsGiven:
      c.source_pos = 0;
      return c;
    case ChainOrder::kLexicographic:
      std::sort(c.nodes.begin(), c.nodes.end());
      break;
    case ChainOrder::kDimensionOrdered: {
      if (shape == nullptr)
        throw std::invalid_argument("make_chain: dimension order requires a MeshShape");
      for (NodeId x : c.nodes)
        if (!shape->contains(x))
          throw std::out_of_range("make_chain: node outside the mesh");
      // Inside the mesh <d is numeric order (MeshShape::dim_less).
      std::sort(c.nodes.begin(), c.nodes.end());
      break;
    }
  }
  const auto it = std::find(c.nodes.begin(), c.nodes.end(), source);
  c.source_pos = static_cast<int>(it - c.nodes.begin());
  return c;
}

bool is_dimension_ordered_chain(std::span<const NodeId> nodes, const MeshShape& shape) {
  for (size_t i = 1; i < nodes.size(); ++i)
    if (!shape.dim_less(nodes[i - 1], nodes[i])) return false;
  return true;
}

bool is_lexicographic_chain(std::span<const NodeId> nodes) {
  for (size_t i = 1; i < nodes.size(); ++i)
    if (nodes[i - 1] >= nodes[i]) return false;
  return true;
}

}  // namespace pcm
