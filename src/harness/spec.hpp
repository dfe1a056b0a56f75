// Spec strings shared by every command-line surface: topology specs
// ("mesh:16", "bmin:32:adaptive", ...), algorithm names ("opt-mesh", ...)
// and range-checked integer fields.  Every tool's integer flags parse
// with parse_uint_flag (harness/flags.hpp), and the chaos harness builds its scenario topologies and
// writes its `pcmcast` reproducers with the same functions, so a
// reproducer names exactly the topology and algorithm it ran.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/algorithms.hpp"
#include "sim/topology.hpp"

namespace pcm::harness {

/// Parses a whole-string base-10 integer in [lo, hi]: every integer flag
/// and spec field fails the same way, with a std::invalid_argument
/// naming `flag` and either "expects an integer" or the accepted range.
long long parse_uint_flag(std::string_view flag, std::string_view value,
                          long long lo, long long hi,
                          std::string_view tool = "pcmcast");

/// "opt-mesh" -> kOptMesh etc.; nullopt for unknown names.
std::optional<McastAlgorithm> algorithm_from_name(std::string_view name);

/// The inverse of algorithm_from_name: the lower-case flag spelling of
/// algorithm_name ("OPT-Mesh" -> "opt-mesh").
std::string algorithm_spec_name(McastAlgorithm alg);

/// Topology factory: "mesh:S" (SxS 2-D mesh), "hypercube:Q",
/// "bmin:N[:source|adaptive|dest|random]", "butterfly:N".  Every size is
/// range-checked before it is narrowed to int; unknown kinds and bad
/// parameters throw std::invalid_argument "<tool>: ..." naming the spec.
/// The returned topology owns its shape; use mesh_shape_of to obtain the
/// MeshShape pointer mesh-tuned algorithms need.
std::unique_ptr<sim::Topology> make_topology(const std::string& spec,
                                             std::string_view tool = "pcmcast");

/// The MeshShape of a mesh/hypercube topology, or nullptr.
const MeshShape* mesh_shape_of(const sim::Topology& topo);

}  // namespace pcm::harness
