// Property tests machine-checking the paper's contention claims:
//
//   Theorem 1: OPT-mesh schedules are contention-free on a wormhole mesh
//              with XY routing (and so are U-mesh schedules).
//   Theorem 2: OPT-min schedules are contention-free on a BMIN with
//              turnaround routing (and so are U-min schedules).
//
// pcmlint's exact interval analysis (lint::lint_tree) and the flit-level
// simulator's conflict counter, run on the same machine, must both find
// every such schedule clean.  The untuned OPT-tree, by contrast, must show
// contention for at least some placements — that gap is the paper's
// motivation — and there too the static verdict must match the dynamic one.
#include <gtest/gtest.h>

#include <string>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"

namespace pcm {
namespace {

rt::RuntimeConfig machine() {
  rt::RuntimeConfig cfg;
  cfg.machine.send = LinearCost{40, 1.25 / 16.0};
  cfg.machine.recv = LinearCost{30, 1.125 / 16.0};
  cfg.machine.net_fixed = 4;
  cfg.machine.router_delay = 1;
  cfg.machine.bytes_per_cycle = 16;
  cfg.machine.nominal_hops = 8;
  return cfg;
}

/// Runs `tree` both ways on one machine — pcmlint statically, the
/// simulator dynamically — and returns whether the simulator blocked a
/// head, after checking the two verdicts agree.
bool contends(const MulticastTree& tree, const sim::Topology& topo,
              const rt::MulticastRuntime& rtm, Bytes payload, const std::string& what) {
  const lint::LintReport report =
      lint::lint_tree(tree, topo, rtm.config(), sim::SimConfig{}, payload);
  sim::Simulator sim(topo);
  const auto res = rtm.run(sim, tree, payload);
  EXPECT_EQ(report.contention_free, res.channel_conflicts == 0)
      << what << ": " << res.channel_conflicts << " blocked cycles vs "
      << report.describe(tree, topo);
  return res.channel_conflicts != 0;
}

struct Scenario {
  int k;
  Bytes payload;
  std::uint64_t seed;
};

class MeshContentionFree : public ::testing::TestWithParam<Scenario> {};

TEST_P(MeshContentionFree, TunedSchedulesHaveZeroConflicts) {
  const auto [k, payload, seed] = GetParam();
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  const auto placements = analysis::sample_placements(seed, 256, k, 4);
  for (const auto& p : placements) {
    for (McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
      const MulticastTree tree =
          build_multicast(alg, p.source, p.dests, tp, &topo->shape());
      EXPECT_FALSE(contends(tree, *topo, rtm, payload,
                            std::string(algorithm_name(alg)) + " k=" + std::to_string(k) +
                                " payload=" + std::to_string(payload)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, MeshContentionFree,
    ::testing::Values(Scenario{4, 256, 11}, Scenario{8, 1024, 12},
                      Scenario{16, 4096, 13}, Scenario{32, 4096, 14},
                      Scenario{32, 16384, 15}, Scenario{64, 1024, 16},
                      Scenario{128, 512, 17}, Scenario{200, 256, 18}),
    [](const ::testing::TestParamInfo<Scenario>& i) {
      return "k" + std::to_string(i.param.k) + "_b" + std::to_string(i.param.payload);
    });

class BminContentionFree : public ::testing::TestWithParam<Scenario> {};

TEST_P(BminContentionFree, TunedSchedulesHaveZeroConflicts) {
  const auto [k, payload, seed] = GetParam();
  const auto topo = bmin::make_bmin(128, bmin::UpPolicy::kSourceAddress);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  const auto placements = analysis::sample_placements(seed, 128, k, 4);
  for (const auto& p : placements) {
    for (McastAlgorithm alg : {McastAlgorithm::kOptMin, McastAlgorithm::kUMin}) {
      const MulticastTree tree = build_multicast(alg, p.source, p.dests, tp);
      EXPECT_FALSE(contends(tree, *topo, rtm, payload,
                            std::string(algorithm_name(alg)) + " k=" + std::to_string(k) +
                                " payload=" + std::to_string(payload)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Placements, BminContentionFree,
    ::testing::Values(Scenario{4, 256, 21}, Scenario{8, 1024, 22},
                      Scenario{16, 4096, 23}, Scenario{32, 4096, 24},
                      Scenario{64, 1024, 25}, Scenario{128, 512, 26}),
    [](const ::testing::TestParamInfo<Scenario>& i) {
      return "k" + std::to_string(i.param.k) + "_b" + std::to_string(i.param.payload);
    });

TEST(UntunedOptTree, ShowsContentionSomewhere) {
  // Sec. 5: "the contention probability also increases which leads to an
  // increasing contention overhead" — with 32 nodes and 4 KB messages on
  // the 16x16 mesh, at least one random placement must exhibit conflicts.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const auto placements = analysis::sample_placements(31, 256, 32, 8);
  long long total_conflicts = 0;
  for (const auto& p : placements) {
    sim::Simulator sim(*topo);
    const auto res = rtm.run_algorithm(sim, McastAlgorithm::kOptTree, p.source,
                                       p.dests, 4096, &topo->shape());
    total_conflicts += res.channel_conflicts;
  }
  EXPECT_GT(total_conflicts, 0);
}

TEST(UntunedOptTree, AnalyticalCheckerAgreesItConflicts) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(4096, 1));
  const auto placements = analysis::sample_placements(31, 256, 32, 8);
  int conflicting = 0;
  for (size_t i = 0; i < placements.size(); ++i) {
    const auto& p = placements[i];
    const MulticastTree tree =
        build_multicast(McastAlgorithm::kOptTree, p.source, p.dests, tp);
    if (contends(tree, *topo, rtm, 4096, "placement " + std::to_string(i))) ++conflicting;
  }
  EXPECT_GT(conflicting, 0);
}

TEST(Hypercube, UCubeAndOptCubeAreContentionFree) {
  // Sec. 6: the technique applies to any network partitionable into
  // contention-free clusters; the hypercube with e-cube routing is the
  // classic case (U-cube).  Our mesh machinery models it directly.
  mesh::MeshTopology topo{MeshShape::hypercube(6)};
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(2048, 1));
  const auto placements = analysis::sample_placements(77, 64, 16, 6);
  for (const auto& p : placements) {
    for (McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
      const MulticastTree tree =
          build_multicast(alg, p.source, p.dests, tp, &topo.shape());
      EXPECT_FALSE(contends(tree, topo, rtm, 2048, std::string(algorithm_name(alg))));
    }
  }
}

TEST(LintDescribe, NamesBothSendsAndTheChannel) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(machine());
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(4096, 1));
  // Deliberately contending: caller-order chain over a zig-zag placement.
  std::vector<NodeId> dests{255, 1, 254, 2, 253, 3, 252, 4};
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptTree, 128, dests, tp);
  const lint::LintReport report =
      lint::lint_tree(tree, *topo, rtm.config(), sim::SimConfig{}, 4096);
  ASSERT_FALSE(report.contention_free);
  ASSERT_FALSE(report.diagnostics.empty());
  const lint::LintDiagnostic& d = report.diagnostics.front();
  ASSERT_EQ(d.kind, lint::DiagKind::kContention);
  const auto named = [&](int send) {
    const SendEvent& ev = tree.sends[static_cast<size_t>(send)];
    return "send#" + std::to_string(send) + " " + std::to_string(tree.node(ev.sender_pos)) +
           "->" + std::to_string(tree.node(ev.receiver_pos));
  };
  const std::string text = report.describe(tree, *topo);
  EXPECT_NE(text.find(named(d.send_a)), std::string::npos) << text;
  EXPECT_NE(text.find(named(d.send_b)), std::string::npos) << text;
  EXPECT_NE(text.find("mesh("), std::string::npos) << text;
}

}  // namespace
}  // namespace pcm
