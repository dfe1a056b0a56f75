// Visualization helpers: multicast trees as ASCII or Graphviz DOT, and
// channel-utilization heatmaps for 2-D meshes.  Pure string producers —
// callers decide where the output goes.
#pragma once

#include <span>
#include <string>

#include "core/model.hpp"
#include "core/multicast_tree.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/trace_event.hpp"

namespace pcm::analysis {

/// Indented ASCII rendering rooted at the source.  When `tp` is non-null,
/// each node is annotated with its model finish-receive time.
std::string tree_ascii(const MulticastTree& tree, const TwoParam* tp = nullptr);

/// Graphviz DOT with edges labeled by issue sequence number; render with
/// `dot -Tpng`.
std::string tree_dot(const MulticastTree& tree, const std::string& graph_name = "mcast");

/// ASCII heatmap of a 2-D mesh: one cell per router showing the busiest
/// output channel's utilization (0-9 scale) relative to `makespan`.  A
/// channel's busy time is the sum of its kRelease spans (`d`) in `events`,
/// a flight-recorder trace of the run; other event kinds are ignored.
/// Requires a 2-dimensional shape.
std::string mesh_heatmap(const mesh::MeshTopology& topo,
                         std::span<const obs::TraceEvent> events, Time makespan);

}  // namespace pcm::analysis
