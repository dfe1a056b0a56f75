#include "harness/spec.hpp"

#include <cctype>
#include <charconv>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "bmin/bmin_topology.hpp"
#include "butterfly/butterfly_topology.hpp"
#include "harness/flags.hpp"
#include "mesh/mesh_topology.hpp"

namespace pcm::harness {

long long parse_uint_flag(std::string_view flag, std::string_view value,
                          long long lo, long long hi, std::string_view tool) {
  long long out = 0;
  const auto [ptr, ec] = std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    throw std::invalid_argument(std::string(tool) + ": " + std::string(flag) +
                                " expects an integer, got '" + std::string(value) + "'");
  if (out < lo || out > hi)
    throw std::invalid_argument(std::string(tool) + ": " + std::string(flag) +
                                " must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got " + std::to_string(out));
  return out;
}

std::optional<McastAlgorithm> algorithm_from_name(std::string_view name) {
  for (const McastAlgorithm a :
       {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh, McastAlgorithm::kOptMin,
        McastAlgorithm::kUMin, McastAlgorithm::kOptTree, McastAlgorithm::kBinomial,
        McastAlgorithm::kSequential})
    if (algorithm_spec_name(a) == name) return a;
  return std::nullopt;
}

std::string algorithm_spec_name(McastAlgorithm alg) {
  std::string name(algorithm_name(alg));
  for (char& c : name) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return name;
}

std::unique_ptr<sim::Topology> make_topology(const std::string& spec,
                                             std::string_view tool) {
  std::vector<std::string> params;
  std::istringstream is(spec);
  for (std::string part; std::getline(is, part, ':');) params.push_back(part);
  if (params.empty()) throw usage_error(tool, "empty topology spec");
  const std::string kind = params.front();
  params.erase(params.begin());
  // Sizes are range-checked as long long and only then narrowed, so a
  // value past 2^31 cannot wrap onto a valid topology.
  auto size_at = [&](std::size_t i, int fallback, long long hi) {
    if (i >= params.size()) return fallback;
    return static_cast<int>(parse_uint_flag("topology '" + spec + "' size",
                                            params[i], 1, hi, tool));
  };
  constexpr long long kMaxInt = std::numeric_limits<int>::max();
  if (kind == "mesh" || kind == "hypercube") {
    const bool square = kind == "mesh";
    const int n = size_at(0, square ? 16 : 7, square ? kMaxInt : 20);
    try {
      return std::make_unique<mesh::MeshTopology>(
          square ? MeshShape::square2d(n) : MeshShape::hypercube(n));
    } catch (const std::invalid_argument& e) {  // past INT_MAX nodes
      throw usage_error(tool, "topology '" + spec + "': " + e.what());
    }
  }
  if (kind == "bmin") {
    const int n = size_at(0, 128, kMaxInt);
    bmin::UpPolicy policy = bmin::UpPolicy::kSourceAddress;
    if (params.size() > 1) {
      if (params[1] == "adaptive") {
        policy = bmin::UpPolicy::kAdaptive;
      } else if (params[1] == "dest") {
        policy = bmin::UpPolicy::kDestAddress;
      } else if (params[1] == "random") {
        policy = bmin::UpPolicy::kRandomHash;
      } else if (params[1] != "source") {
        throw usage_error(tool, "unknown bmin policy '" + params[1] + "'");
      }
    }
    return std::make_unique<bmin::BminTopology>(n, policy);
  }
  if (kind == "butterfly") {
    const int n = size_at(0, 64, kMaxInt);
    return std::make_unique<butterfly::ButterflyTopology>(n);
  }
  throw usage_error(tool, "unknown topology kind '" + kind + "'");
}

const MeshShape* mesh_shape_of(const sim::Topology& topo) {
  const auto* m = dynamic_cast<const mesh::MeshTopology*>(&topo);
  return m != nullptr ? &m->shape() : nullptr;
}

}  // namespace pcm::harness
