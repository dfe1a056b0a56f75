// Tests for the static schedule analyzer (src/lint): exact-window
// fidelity against the flit simulator, the golden shuffled-chain
// diagnostics (the same pair --audit catches dynamically), the
// static-vs-simulated equivalence sweep over randomized scenarios, the
// Theorem 1/2 certification matrix, the channel-dependency deadlock
// check, and the CLI exit-code contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/rng.hpp"
#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "cli/options.hpp"
#include "core/chain.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/simulator.hpp"
#include "verify/chaos.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm {
namespace {

using lint::DiagKind;
using lint::LintDiagnostic;
using lint::LintReport;
using lint::SendWindow;

/// Records every channel-level event so lint windows can be checked
/// against the simulator's ground truth, cycle for cycle.
class EventRecorder final : public sim::SimObserver {
 public:
  explicit EventRecorder(int radix) : radix_(radix) {}
  struct Ev {
    sim::ChannelId ch;
    sim::MsgId msg;
    Time t;
  };
  std::vector<Ev> reserves, releases;
  std::vector<Ev> blocked;  ///< ch is the *input* channel here

  void on_reserve(int router, int out_port, sim::MsgId msg, Time t) override {
    reserves.push_back(Ev{router * radix_ + out_port, msg, t});
  }
  void on_release(int router, int out_port, sim::MsgId msg, Time t) override {
    releases.push_back(Ev{router * radix_ + out_port, msg, t});
  }
  void on_blocked(int router, int in_port, sim::MsgId msg, Time t) override {
    blocked.push_back(Ev{router * radix_ + in_port, msg, t});
  }

 private:
  int radix_;
};

MulticastTree tree_for(McastAlgorithm alg, const analysis::Placement& p,
                       const rt::MulticastRuntime& rtm, Bytes payload,
                       const MeshShape* shape, bool shuffled,
                       std::uint64_t seed) {
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(payload, 1));
  if (shuffled) {
    const std::vector<NodeId> dests = verify::shuffle_dests(p.dests, seed);
    const Chain chain = make_chain(p.source, dests, ChainOrder::kAsGiven);
    return build_chain_split_tree(chain, split_table_for(alg, tp, chain.size()));
  }
  return build_multicast(alg, p.source, p.dests, tp, shape);
}

/// Runs the tree on a fresh simulator; returns its conflict count.
long long simulate_conflicts(const sim::Topology& topo, const MulticastTree& tree,
                             const rt::MulticastRuntime& rtm, Bytes payload,
                             Time* latency = nullptr) {
  sim::Simulator sim(topo);
  const rt::McastResult r = rtm.run(sim, tree, payload, 0);
  if (latency != nullptr) *latency = r.latency;
  return r.channel_conflicts;
}

// ---------------------------------------------------------------------------
// Exact-window fidelity: every symbolic field must equal the simulator's.

void expect_schedule_matches_sim(const sim::Topology& topo,
                                 const rt::RuntimeConfig& cfg,
                                 const sim::SimConfig& sim_cfg,
                                 const MulticastTree& tree, Bytes payload) {
  const rt::MulticastRuntime rtm(cfg);
  const std::vector<SendWindow> windows =
      lint::lint_schedule(tree, topo, cfg, sim_cfg, payload, 0);

  sim::Simulator sim(topo, sim_cfg);
  EventRecorder rec(topo.radix());
  sim.set_observer(&rec);
  const rt::McastResult r = rtm.run(sim, tree, payload, 0);
  ASSERT_EQ(r.channel_conflicts, 0) << "fidelity needs an uncontended run";

  // Message-level fields, matched through Message::tag == send index.
  for (const sim::Message& m : sim.messages().all()) {
    ASSERT_GE(m.tag, 0);
    const SendWindow& w = windows.at(static_cast<size_t>(m.tag));
    EXPECT_EQ(m.src, w.src);
    EXPECT_EQ(m.dst, w.dst);
    EXPECT_EQ(m.flits, w.flits);
    EXPECT_EQ(m.ready_time, w.ready) << "send " << m.tag;
    EXPECT_EQ(m.inject_start, w.inject_start) << "send " << m.tag;
    EXPECT_EQ(m.delivered, w.delivered) << "send " << m.tag;
  }

  // Channel-level events: the simulator's reserve/release sequence per
  // message must be exactly (path[i], reserve[i]) and the release must
  // come flits-1 cycles later (the channel frees *after* that cycle, so
  // the hold window is [reserve, reserve + flits)).
  std::map<sim::MsgId, std::vector<EventRecorder::Ev>> by_msg;
  for (const EventRecorder::Ev& e : rec.reserves) by_msg[e.msg].push_back(e);
  for (const sim::Message& m : sim.messages().all()) {
    const SendWindow& w = windows.at(static_cast<size_t>(m.tag));
    const std::vector<EventRecorder::Ev>& evs = by_msg[m.id];
    ASSERT_EQ(evs.size(), w.path.size()) << "send " << m.tag;
    for (size_t i = 0; i < evs.size(); ++i) {
      EXPECT_EQ(evs[i].ch, w.path[i]) << "send " << m.tag << " hop " << i;
      EXPECT_EQ(evs[i].t, w.reserve[i]) << "send " << m.tag << " hop " << i;
    }
  }
  std::map<sim::MsgId, std::vector<EventRecorder::Ev>> rel_by_msg;
  for (const EventRecorder::Ev& e : rec.releases) rel_by_msg[e.msg].push_back(e);
  for (const sim::Message& m : sim.messages().all()) {
    const SendWindow& w = windows.at(static_cast<size_t>(m.tag));
    const std::vector<EventRecorder::Ev>& evs = rel_by_msg[m.id];
    ASSERT_EQ(evs.size(), w.path.size()) << "send " << m.tag;
    for (size_t i = 0; i < evs.size(); ++i) {
      EXPECT_EQ(evs[i].ch, w.path[i]) << "send " << m.tag << " hop " << i;
      EXPECT_EQ(evs[i].t, w.reserve[i] + w.flits - 1)
          << "send " << m.tag << " hop " << i;
    }
  }
  EXPECT_TRUE(rec.blocked.empty());
}

TEST(LintFidelity, OptMeshWindowsMatchSimulator) {
  mesh::MeshTopology topo(MeshShape::square2d(8));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const auto placements = analysis::sample_placements(41, 64, 24, 3);
  for (const analysis::Placement& p : placements) {
    const MulticastTree tree =
        tree_for(McastAlgorithm::kOptMesh, p, rtm, 4096, &topo.shape(), false, 0);
    expect_schedule_matches_sim(topo, cfg, sim::SimConfig{}, tree, 4096);
  }
}

TEST(LintFidelity, OptMinWindowsMatchSimulator) {
  bmin::BminTopology topo(64);
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const auto placements = analysis::sample_placements(42, 64, 20, 3);
  for (const analysis::Placement& p : placements) {
    const MulticastTree tree =
        tree_for(McastAlgorithm::kOptMin, p, rtm, 1024, nullptr, false, 0);
    expect_schedule_matches_sim(topo, cfg, sim::SimConfig{}, tree, 1024);
  }
}

TEST(LintFidelity, HoldsAtHigherRouterDelay) {
  mesh::MeshTopology topo(MeshShape::square2d(6));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  sim::SimConfig sim_cfg;
  sim_cfg.router_delay = 2;  // fifo_capacity 4 >= rd + 1 keeps it bubble-free
  const auto placements = analysis::sample_placements(43, 36, 12, 2);
  for (const analysis::Placement& p : placements) {
    const MulticastTree tree =
        tree_for(McastAlgorithm::kOptMesh, p, rtm, 512, &topo.shape(), false, 0);
    expect_schedule_matches_sim(topo, cfg, sim_cfg, tree, 512);
  }
}

TEST(LintFidelity, OddFlitCountsAndHypercube) {
  mesh::MeshTopology topo(MeshShape::hypercube(4));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const auto placements = analysis::sample_placements(44, 16, 10, 2);
  for (const analysis::Placement& p : placements) {
    for (const Bytes payload : {Bytes{0}, Bytes{100}, Bytes{4097}}) {
      const MulticastTree tree = tree_for(McastAlgorithm::kOptMesh, p, rtm,
                                          payload, &topo.shape(), false, 0);
      expect_schedule_matches_sim(topo, cfg, sim::SimConfig{}, tree, payload);
    }
  }
}

// Two send engines on a single-port NI: with carry_address_list the
// second engine's shorter message is ready before the first engine's, and
// the simulator releases posts in (ready, post order), so the NI takes
// them in that order rather than in the tree's out order.
TEST(LintFidelity, TwoSendEnginesFollowTheNiReleaseOrder) {
  mesh::MeshTopology topo(MeshShape::square2d(8), mesh::RouteOrder::kHighestFirst,
                          1);
  rt::RuntimeConfig cfg;
  cfg.send_engines = 2;
  const rt::MulticastRuntime rtm(cfg);
  int compared = 0;
  for (const analysis::Placement& p : analysis::sample_placements(46, 64, 16, 8)) {
    const MulticastTree tree =
        tree_for(McastAlgorithm::kOptMesh, p, rtm, 1024, &topo.shape(), false, 0);
    Time latency = 0;
    if (simulate_conflicts(topo, tree, rtm, 1024, &latency) != 0) continue;
    expect_schedule_matches_sim(topo, cfg, sim::SimConfig{}, tree, 1024);
    const LintReport rep = lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 1024);
    EXPECT_TRUE(rep.contention_free);
    EXPECT_EQ(rep.makespan, latency);
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

TEST(LintSchedule, RejectsUnanalyzableSimConfigs) {
  mesh::MeshTopology topo(MeshShape::square2d(4));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const auto placements = analysis::sample_placements(45, 16, 4, 1);
  const MulticastTree tree =
      tree_for(McastAlgorithm::kOptMesh, placements[0], rtm, 64, &topo.shape(),
               false, 0);
  sim::SimConfig zero_delay;
  zero_delay.router_delay = 0;
  EXPECT_THROW(lint::lint_schedule(tree, topo, cfg, zero_delay, 64),
               std::invalid_argument);
  sim::SimConfig shallow;
  shallow.router_delay = 4;
  shallow.fifo_capacity = 4;  // < rd + 1: pipeline would bubble
  EXPECT_THROW(lint::lint_schedule(tree, topo, cfg, shallow, 64),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden diagnostics: a shuffled-chain OPT-mesh schedule must be flagged,
// naming the same contention the dynamic run exhibits.

TEST(LintGolden, ShuffledChainOptMeshFlagsTheDynamicPair) {
  mesh::MeshTopology topo(MeshShape::square2d(16));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const std::uint64_t seed = 1997;
  const auto placements = analysis::sample_placements(seed, 256, 16, 1);
  const MulticastTree tree = tree_for(McastAlgorithm::kOptMesh, placements[0],
                                      rtm, 4096, &topo.shape(), true, seed);

  const LintReport rep =
      lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 4096);
  ASSERT_FALSE(rep.contention_free);
  ASSERT_FALSE(rep.diagnostics.empty());
  const LintDiagnostic& first = rep.diagnostics.front();
  ASSERT_EQ(first.kind, DiagKind::kContention);
  EXPECT_LT(first.overlap_begin, first.overlap_end);

  // Dynamic ground truth: the first blocked head the simulator records
  // must be exactly the statically predicted pair, at exactly the
  // predicted first overlap cycle, wanting the predicted channel.
  sim::Simulator sim(topo);
  EventRecorder rec(topo.radix());
  sim.set_observer(&rec);
  const rt::McastResult r = rtm.run(sim, tree, 4096, 0);
  ASSERT_GT(r.channel_conflicts, 0);
  ASSERT_FALSE(rec.blocked.empty());
  const EventRecorder::Ev& b = rec.blocked.front();
  EXPECT_EQ(b.t, first.overlap_begin);
  EXPECT_EQ(sim.messages().at(b.msg).tag, first.send_b);

  // --audit parity: the auditor's contention-freedom violation names a
  // message the static analyzer flagged too.
  sim::Simulator audited(topo);
  verify::AuditConfig acfg;
  acfg.require_contention_free = true;
  verify::InvariantAuditor auditor(audited.topology(), acfg);
  audited.set_observer(&auditor);
  try {
    (void)rtm.run(audited, tree, 4096, 0);
    auditor.finalize(audited);
    FAIL() << "auditor should have objected to the shuffled chain";
  } catch (const verify::InvariantViolation& v) {
    const int flagged_send = audited.messages().at(v.msg()).tag;
    bool statically_flagged = false;
    for (const LintDiagnostic& d : rep.diagnostics)
      if (d.send_a == flagged_send || d.send_b == flagged_send)
        statically_flagged = true;
    EXPECT_TRUE(statically_flagged)
        << "audit flagged send " << flagged_send
        << " which lint did not mention";
  }

  // The rendering names the pair, the channel, and the window.
  const std::string text = rep.describe(tree, topo);
  EXPECT_NE(text.find("contention: send#"), std::string::npos);
  EXPECT_NE(text.find("mesh("), std::string::npos);
  EXPECT_NE(text.find("during ["), std::string::npos);
}

// ---------------------------------------------------------------------------
// Equivalence sweep: on deterministic single-candidate routing the static
// verdict must equal the dynamic one — both directions, so in particular
// zero false negatives — over >= 200 randomized scenarios.

TEST(LintEquivalence, StaticVerdictMatchesSimulatorOn200Scenarios) {
  struct TopoCase {
    std::unique_ptr<sim::Topology> topo;
    const MeshShape* shape;
  };
  std::vector<TopoCase> topos;
  {
    auto m8 = std::make_unique<mesh::MeshTopology>(MeshShape::square2d(8));
    const MeshShape* s8 = &m8->shape();
    topos.push_back(TopoCase{std::move(m8), s8});
    auto m16 = std::make_unique<mesh::MeshTopology>(MeshShape::square2d(16));
    const MeshShape* s16 = &m16->shape();
    topos.push_back(TopoCase{std::move(m16), s16});
    auto hc = std::make_unique<mesh::MeshTopology>(MeshShape::hypercube(5));
    const MeshShape* shc = &hc->shape();
    topos.push_back(TopoCase{std::move(hc), shc});
    topos.push_back(TopoCase{std::make_unique<bmin::BminTopology>(32), nullptr});
    topos.push_back(TopoCase{std::make_unique<bmin::BminTopology>(64), nullptr});
    topos.push_back(TopoCase{
        std::make_unique<bmin::BminTopology>(32, bmin::UpPolicy::kDestAddress),
        nullptr});
    topos.push_back(TopoCase{
        std::make_unique<bmin::BminTopology>(32, bmin::UpPolicy::kRandomHash),
        nullptr});
  }
  const std::vector<McastAlgorithm> mesh_algs = {
      McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh, McastAlgorithm::kOptTree,
      McastAlgorithm::kBinomial, McastAlgorithm::kSequential};
  const std::vector<McastAlgorithm> min_algs = {
      McastAlgorithm::kOptMin, McastAlgorithm::kUMin, McastAlgorithm::kOptTree,
      McastAlgorithm::kBinomial, McastAlgorithm::kSequential};
  const std::vector<Bytes> payloads = {64, 1024, 4096};

  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  analysis::Rng rng(20260806);
  int contended = 0, clean = 0;
  for (int scenario = 0; scenario < 200; ++scenario) {
    const TopoCase& tc = topos[rng.below(topos.size())];
    const auto& algs = tc.shape != nullptr ? mesh_algs : min_algs;
    const McastAlgorithm alg = algs[rng.below(algs.size())];
    const int n = tc.topo->num_nodes();
    const int k = 2 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(std::min(23, n - 1))));
    const Bytes payload = payloads[rng.below(payloads.size())];
    const bool shuffled = rng.below(2) == 1;
    const auto placements =
        analysis::sample_placements(rng.next(), n, k, 1);
    const MulticastTree tree =
        tree_for(alg, placements[0], rtm, payload, tc.shape, shuffled, rng.next());

    const LintReport rep =
        lint::lint_tree(tree, *tc.topo, cfg, sim::SimConfig{}, payload);
    ASSERT_TRUE(rep.structure_ok);
    ASSERT_TRUE(rep.deadlock_free);

    Time latency = 0;
    const long long conflicts =
        simulate_conflicts(*tc.topo, tree, rtm, payload, &latency);
    EXPECT_EQ(rep.contention_free, conflicts == 0)
        << "scenario " << scenario << ": alg " << algorithm_name(alg) << " k="
        << k << " payload=" << payload << (shuffled ? " shuffled" : " sorted")
        << " static=" << (rep.contention_free ? "clean" : "contended")
        << " dynamic conflicts=" << conflicts;
    if (rep.contention_free) {
      // On certified-clean schedules the symbolic makespan is the exact
      // simulated latency.
      EXPECT_EQ(rep.makespan, latency) << "scenario " << scenario;
      ++clean;
    } else {
      ++contended;
    }
  }
  // The sweep must exercise both verdicts to mean anything.
  EXPECT_GT(contended, 10);
  EXPECT_GT(clean, 10);
}

// Multi-NI-port / multi-engine configurations: the analyzer stays sound
// (a clean report still implies a conflict-free run) even though its
// verdict may be conservative.
TEST(LintEquivalence, SoundOnMultiportConfigs) {
  mesh::MeshTopology topo(MeshShape::square2d(8), mesh::RouteOrder::kHighestFirst,
                          2);
  rt::RuntimeConfig cfg;
  cfg.send_engines = 2;
  const rt::MulticastRuntime rtm(cfg);
  const auto placements = analysis::sample_placements(46, 64, 16, 8);
  for (const analysis::Placement& p : placements) {
    const MulticastTree tree =
        tree_for(McastAlgorithm::kOptMesh, p, rtm, 1024, &topo.shape(), false, 0);
    const LintReport rep =
        lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 1024);
    if (rep.contention_free) {
      EXPECT_EQ(simulate_conflicts(topo, tree, rtm, 1024), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Theorem 1/2 certification: the tuned algorithms must come out clean for
// every tested k on the paper's networks.

TEST(LintCertification, OptMeshAndUMeshCleanOn16x16ForAllK) {
  mesh::MeshTopology topo(MeshShape::square2d(16));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  lint::LintOptions opts;
  opts.keep_schedule = false;
  for (const int k : {2, 3, 4, 8, 16, 32, 64, 128, 256}) {
    const auto placements =
        analysis::sample_placements(1000 + static_cast<std::uint64_t>(k), 256, k, 3);
    for (const analysis::Placement& p : placements) {
      for (const McastAlgorithm alg :
           {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh}) {
        const MulticastTree tree =
            tree_for(alg, p, rtm, 4096, &topo.shape(), false, 0);
        const LintReport rep =
            lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 4096, opts);
        EXPECT_TRUE(rep.clean())
            << algorithm_name(alg) << " k=" << k << ": "
            << rep.describe(tree, topo);
      }
    }
  }
}

TEST(LintCertification, OptMinAndUMinCleanOn64NodeBminForAllK) {
  bmin::BminTopology topo(64);
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  lint::LintOptions opts;
  opts.keep_schedule = false;
  for (const int k : {2, 3, 4, 8, 16, 32, 64}) {
    const auto placements =
        analysis::sample_placements(2000 + static_cast<std::uint64_t>(k), 64, k, 3);
    for (const analysis::Placement& p : placements) {
      for (const McastAlgorithm alg :
           {McastAlgorithm::kOptMin, McastAlgorithm::kUMin}) {
        const MulticastTree tree = tree_for(alg, p, rtm, 4096, nullptr, false, 0);
        const LintReport rep =
            lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 4096, opts);
        EXPECT_TRUE(rep.clean())
            << algorithm_name(alg) << " k=" << k << ": "
            << rep.describe(tree, topo);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlock: a unidirectional ring's wrap-around traffic creates a cyclic
// channel dependency, which the lint flags statically and the simulator's
// watchdog confirms dynamically (with concurrently active messages).

/// N routers in a unidirectional ring, one node each.  Out-port 0 chases
/// the ring, out-port 1 is the local ejection channel.
class RingTopology final : public sim::Topology {
 public:
  explicit RingTopology(int n) : n_(n) {}
  [[nodiscard]] int num_routers() const override { return n_; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return n_; }
  [[nodiscard]] sim::PortRef link(int router, int out_port) const override {
    if (out_port != 0) return {};
    return sim::PortRef{(router + 1) % n_, 0};
  }
  [[nodiscard]] sim::PortRef node_attach(NodeId n) const override {
    return sim::PortRef{static_cast<int>(n), 1};
  }
  [[nodiscard]] NodeId ejector(int router, int out_port) const override {
    return out_port == 1 ? router : kInvalidNode;
  }
  void route(int router, int /*in_port*/, NodeId /*src*/, NodeId dst,
             std::vector<int>& candidates) const override {
    candidates.push_back(router == dst ? 1 : 0);
  }

 private:
  int n_;
};

TEST(LintDeadlock, FlagsCyclicChannelWaitOnRing) {
  RingTopology topo(4);
  // Hand-built multicast tree over chain [0, 2, 1, 3] whose three sends
  // (0->2, 2->1, 1->3) jointly traverse every ring channel with a
  // wrap-around (2->1 passes through router 0), closing the dependency
  // cycle c0 -> c1 -> c2 -> c3 -> c0.
  MulticastTree tree;
  tree.chain.nodes = {0, 2, 1, 3};
  tree.chain.source_pos = 0;
  tree.sends = {SendEvent{0, 1, 0, 1, 3}, SendEvent{1, 2, 0, 2, 3},
                SendEvent{2, 3, 0, 3, 3}};
  tree.out = {{0}, {1}, {2}, {}};
  ASSERT_EQ(check_tree(tree), "");

  const rt::RuntimeConfig cfg;
  const LintReport rep = lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 64);
  EXPECT_FALSE(rep.deadlock_free);
  ASSERT_FALSE(rep.diagnostics.empty());
  const LintDiagnostic& d = rep.diagnostics.back();
  ASSERT_EQ(d.kind, DiagKind::kDeadlock);
  // The cycle is exactly the four ring channels (router * 2 + port 0).
  std::vector<sim::ChannelId> cyc = d.cycle;
  std::sort(cyc.begin(), cyc.end());
  EXPECT_EQ(cyc, (std::vector<sim::ChannelId>{0, 2, 4, 6}));
  EXPECT_NE(rep.describe(tree, topo).find("cyclic channel wait"),
            std::string::npos);
}

TEST(LintDeadlock, SimulatorWatchdogConfirmsTheRingCycle) {
  // The dynamic counterpart: four concurrently active wrap-around
  // messages (i -> i+2) realize the cyclic wait the lint predicts, and
  // the watchdog fires.
  RingTopology topo(4);
  sim::SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 300;
  sim::Simulator sim(topo, cfg);
  for (NodeId i = 0; i < 4; ++i) {
    sim::Message m;
    m.src = i;
    m.dst = (i + 2) % 4;
    m.flits = 16;  // long enough to hold the first channel while blocked
    m.ready_time = 0;
    sim.post(m);
  }
  EXPECT_THROW(sim.run_until_idle(), sim::WatchdogError);
}

TEST(LintDeadlock, PaperTopologiesAreAcyclic) {
  // XY and turnaround routing must never produce a channel-dependency
  // cycle — the certification tests assert clean(), but make the
  // deadlock half explicit here on the biggest schedules.
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  mesh::MeshTopology mtopo(MeshShape::square2d(16));
  const auto mp = analysis::sample_placements(47, 256, 256, 1);
  const MulticastTree mtree =
      tree_for(McastAlgorithm::kOptMesh, mp[0], rtm, 4096, &mtopo.shape(), false, 0);
  EXPECT_TRUE(
      lint::lint_tree(mtree, mtopo, cfg, sim::SimConfig{}, 4096).deadlock_free);

  bmin::BminTopology btopo(64);
  const auto bp = analysis::sample_placements(48, 64, 64, 1);
  const MulticastTree btree =
      tree_for(McastAlgorithm::kOptMin, bp[0], rtm, 4096, nullptr, false, 0);
  EXPECT_TRUE(
      lint::lint_tree(btree, btopo, cfg, sim::SimConfig{}, 4096).deadlock_free);
}

// ---------------------------------------------------------------------------
// Structure diagnostics.

TEST(LintStructure, MalformedTreeIsReportedNotTimed) {
  mesh::MeshTopology topo(MeshShape::square2d(4));
  MulticastTree tree;
  tree.chain.nodes = {0, 1, 2};
  tree.chain.source_pos = 0;
  // Position 2 is never received; position 1 is received twice.
  tree.sends = {SendEvent{0, 1, 0, 1, 2}, SendEvent{0, 1, 1, 1, 2}};
  tree.out = {{0, 1}, {}, {}};
  const rt::RuntimeConfig cfg;
  const LintReport rep = lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 64);
  EXPECT_FALSE(rep.structure_ok);
  EXPECT_FALSE(rep.clean());
  ASSERT_EQ(rep.diagnostics.size(), 1u);
  EXPECT_EQ(rep.diagnostics[0].kind, DiagKind::kStructure);
  EXPECT_NE(rep.describe(tree, topo).find("structure:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// CLI: exit-code contract of `pcmcast --lint` / `pcmlint`.

cli::CliOptions lint_options(const std::string& topology,
                             const std::string& algorithm, int nodes, int reps) {
  cli::CliOptions opt;
  opt.topology = topology;
  opt.algorithm = algorithm;
  opt.nodes = nodes;
  opt.reps = reps;
  opt.lint = true;
  return opt;
}

TEST(LintCli, CleanGuaranteedScheduleExitsZero) {
  std::ostringstream os;
  EXPECT_EQ(cli::run_lint_cli(lint_options("mesh:16", "opt-mesh", 32, 4), os), 0);
  EXPECT_NE(os.str().find("pcmlint:"), std::string::npos);
  EXPECT_NE(os.str().find("Thm 1-2"), std::string::npos);
}

TEST(LintCli, ShuffledGuaranteedScheduleExitsThree) {
  cli::CliOptions opt = lint_options("mesh:16", "opt-mesh", 16, 2);
  opt.shuffle_chain = true;
  std::ostringstream os;
  EXPECT_EQ(cli::run_lint_cli(opt, os), 3);
  EXPECT_NE(os.str().find("GUARANTEE VIOLATION"), std::string::npos);
  EXPECT_NE(os.str().find("contention: send#"), std::string::npos);
}

TEST(LintCli, ShuffledUnguaranteedScheduleExitsOne) {
  cli::CliOptions opt = lint_options("mesh:16", "binomial", 64, 8);
  opt.shuffle_chain = true;
  std::ostringstream os;
  const int rc = cli::run_lint_cli(opt, os);
  EXPECT_EQ(rc, 1) << os.str();
}

TEST(LintCli, RunCliRoutesLintFlag) {
  cli::CliOptions opt = lint_options("bmin:64", "opt-min", 16, 2);
  std::ostringstream os;
  EXPECT_EQ(cli::run_cli(opt, os), 0);
  EXPECT_NE(os.str().find("pcmlint:"), std::string::npos);
  EXPECT_NE(os.str().find("static, no flits"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Forest certification (v2): the static shared-timeline verdict must
// equal run_concurrent's, both directions, over >= 200 random forests.

TEST(LintForest, StaticVerdictMatchesConcurrentSimOn200Scenarios) {
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  int clean_count = 0, contended_count = 0;
  for (int i = 0; i < 200; ++i) {
    const verify::ForestScenario s = verify::make_forest_scenario(20260809, i);
    const auto topo = cli::make_topology(s.topology);
    const MeshShape* shape = cli::mesh_shape_of(*topo);
    std::vector<lint::ForestMember> members;
    std::vector<rt::MulticastRuntime::GroupRun> groups;
    for (const verify::ForestScenarioGroup& g : s.groups) {
      const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(g.bytes, 1));
      lint::ForestMember m;
      m.tree = build_multicast(g.alg, g.source, g.dests, tp, shape);
      m.payload = g.bytes;
      m.start = g.start;
      groups.push_back(rt::MulticastRuntime::GroupRun{m.tree, g.bytes, g.start});
      members.push_back(std::move(m));
    }
    const lint::ForestReport rep =
        lint::lint_forest(members, *topo, cfg, sim::SimConfig{});
    ASSERT_TRUE(rep.structure_ok) << "scenario " << i;
    ASSERT_TRUE(rep.deadlock_free) << "scenario " << i;

    sim::Simulator sim(*topo);
    const std::vector<rt::McastResult> results =
        rtm.run_concurrent(sim, std::move(groups));
    long long conflicts = 0;
    for (const rt::McastResult& r : results) conflicts += r.channel_conflicts;
    EXPECT_EQ(rep.contention_free, conflicts == 0)
        << "scenario " << i << " (" << s.topology << ", " << s.groups.size()
        << " trees): static="
        << (rep.contention_free ? "clean" : "contended")
        << " dynamic conflicts=" << conflicts;
    if (rep.contention_free && conflicts == 0) {
      // On certified-clean forests the symbolic per-tree makespans are the
      // exact simulated latencies (latency is measured from each group's
      // own start).
      ASSERT_EQ(rep.tree_makespan.size(), results.size());
      for (size_t t = 0; t < results.size(); ++t)
        EXPECT_EQ(rep.tree_makespan[t] - s.groups[t].start, results[t].latency)
            << "scenario " << i << " tree " << t;
      ++clean_count;
    } else {
      ++contended_count;
    }
  }
  // The sweep must exercise both verdicts to mean anything.
  EXPECT_GT(clean_count, 10);
  EXPECT_GT(contended_count, 10);
}

TEST(LintForest, CrossTreeDiagnosticNamesTheWitness) {
  mesh::MeshTopology topo(MeshShape::square2d(8));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(512, 1));
  std::vector<lint::ForestMember> members(2);
  members[0].tree = build_multicast(McastAlgorithm::kOptMesh, 0,
                                    std::vector<NodeId>{1, 2, 3, 9}, tp,
                                    &topo.shape());
  members[0].payload = 512;
  members[1].tree = build_multicast(McastAlgorithm::kOptMesh, 1,
                                    std::vector<NodeId>{2, 3, 4, 10}, tp,
                                    &topo.shape());
  members[1].payload = 512;

  const lint::ForestReport rep =
      lint::lint_forest(members, topo, cfg, sim::SimConfig{});
  ASSERT_FALSE(rep.contention_free);
  EXPECT_GT(rep.cross_pairs, 0);
  const LintDiagnostic& d = rep.diagnostics.front();
  EXPECT_EQ(d.kind, DiagKind::kContention);
  EXPECT_NE(d.tree_a, d.tree_b);  // the earliest overlap here is cross-tree
  EXPECT_GE(d.send_a, 0);
  EXPECT_GE(d.send_b, 0);
  EXPECT_GE(d.channel, 0);
  EXPECT_LT(d.overlap_begin, d.overlap_end);
  const std::string text = rep.describe(members, topo);
  EXPECT_NE(text.find("cross-tree contention"), std::string::npos);
  EXPECT_NE(text.find("tree#"), std::string::npos);
  EXPECT_NE(text.find("mesh("), std::string::npos);
  EXPECT_NE(text.find("during ["), std::string::npos);

  // Dynamic ground truth: the concurrent run really does block.
  sim::Simulator sim(topo);
  std::vector<rt::MulticastRuntime::GroupRun> groups;
  for (const lint::ForestMember& m : members)
    groups.push_back(rt::MulticastRuntime::GroupRun{m.tree, m.payload, m.start});
  long long conflicts = 0;
  for (const rt::McastResult& r : rtm.run_concurrent(sim, std::move(groups)))
    conflicts += r.channel_conflicts;
  EXPECT_GT(conflicts, 0);
}

TEST(LintForest, SingleMemberAndSingleDestinationEdgeCases) {
  mesh::MeshTopology topo(MeshShape::square2d(8));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(64, 1));
  // A k=2 tree (single destination) through the forest entry point
  // degenerates to lint_tree's verdict and makespan.
  std::vector<lint::ForestMember> members(1);
  members[0].tree =
      build_multicast(McastAlgorithm::kOptMesh, 0, std::vector<NodeId>{9}, tp,
                      &topo.shape());
  members[0].payload = 64;
  const lint::ForestReport rep =
      lint::lint_forest(members, topo, cfg, sim::SimConfig{});
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.trees, 1);
  EXPECT_EQ(rep.sends, 1);
  const LintReport one =
      lint::lint_tree(members[0].tree, topo, cfg, sim::SimConfig{}, 64);
  EXPECT_TRUE(one.clean());
  EXPECT_EQ(rep.makespan, one.makespan);
  ASSERT_EQ(rep.tree_makespan.size(), 1u);
  EXPECT_EQ(rep.tree_makespan[0], one.makespan);
}

TEST(LintForest, RejectsBadInputsAndConfigs) {
  mesh::MeshTopology topo(MeshShape::square2d(4));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(64, 1));
  // The source among its own destinations is rejected at tree build time.
  EXPECT_THROW(
      build_multicast(McastAlgorithm::kOptMesh, 0, std::vector<NodeId>{0, 1}, tp,
                      &topo.shape()),
      std::invalid_argument);
  std::vector<lint::ForestMember> members(1);
  members[0].tree =
      build_multicast(McastAlgorithm::kOptMesh, 0, std::vector<NodeId>{1}, tp,
                      &topo.shape());
  members[0].payload = 64;
  // Negative start offsets are meaningless.
  members[0].start = -1;
  EXPECT_THROW(lint::lint_forest(members, topo, cfg, sim::SimConfig{}),
               std::invalid_argument);
  members[0].start = 0;
  // The timing-model preconditions hold for every v2 entry point.
  sim::SimConfig zero_delay;
  zero_delay.router_delay = 0;
  EXPECT_THROW(lint::lint_forest(members, topo, cfg, zero_delay),
               std::invalid_argument);
  EXPECT_THROW(lint::earliest_clean_offset(members[0].tree, topo, cfg,
                                           zero_delay, 64, {}),
               std::invalid_argument);
  EXPECT_THROW(
      lint::lint_stream(members[0].tree, topo, cfg, zero_delay, 64, 4, 2),
      std::invalid_argument);
  sim::SimConfig shallow;
  shallow.router_delay = 3;
  shallow.fifo_capacity = 3;  // == rd: pipeline would bubble
  EXPECT_THROW(lint::lint_forest(members, topo, cfg, shallow),
               std::invalid_argument);
  shallow.fifo_capacity = 4;  // == rd + 1: analyzable again
  EXPECT_TRUE(lint::lint_forest(members, topo, cfg, shallow).clean());
  // Stream-shape validation.
  EXPECT_THROW(
      lint::lint_stream(members[0].tree, topo, cfg, sim::SimConfig{}, 64, 0, 2),
      std::invalid_argument);
  EXPECT_THROW(
      lint::lint_stream(members[0].tree, topo, cfg, sim::SimConfig{}, 64, 4, 0),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Admission: earliest_clean_offset must return the *minimal* clean shift.

TEST(LintOffset, EarliestCleanOffsetIsMinimalAndExact) {
  mesh::MeshTopology topo(MeshShape::square2d(8));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const Bytes payload = 512;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(payload, 1));
  // Node-disjoint tenants sharing a row channel: 0 -> 3 traverses
  // (1, d0+), which 1 -> 2 also needs.  Rigid shifting is exact here.
  const MulticastTree a =
      build_multicast(McastAlgorithm::kOptMesh, 0, std::vector<NodeId>{3}, tp,
                      &topo.shape());
  const MulticastTree b =
      build_multicast(McastAlgorithm::kOptMesh, 1, std::vector<NodeId>{2}, tp,
                      &topo.shape());

  // No reservations: admit immediately.
  EXPECT_EQ(lint::earliest_clean_offset(b, topo, cfg, sim::SimConfig{}, payload,
                                        {}),
            0);

  lint::ChannelReservations reserved;
  reserved.add(lint::lint_schedule(a, topo, cfg, sim::SimConfig{}, payload, 0));
  const Time delta = lint::earliest_clean_offset(b, topo, cfg, sim::SimConfig{},
                                                 payload, reserved);
  ASSERT_GT(delta, 0) << "the construction must actually collide at offset 0";

  auto forest_at = [&](Time start_b) {
    std::vector<lint::ForestMember> members(2);
    members[0].tree = a;
    members[0].payload = payload;
    members[1].tree = b;
    members[1].payload = payload;
    members[1].start = start_b;
    return lint::lint_forest(members, topo, cfg, sim::SimConfig{});
  };
  // Clean at delta, contended one cycle earlier: delta is minimal.
  EXPECT_TRUE(forest_at(delta).clean());
  EXPECT_FALSE(forest_at(delta - 1).clean());

  // Dynamic confirmation of both sides of the boundary.
  auto conflicts_at = [&](Time start_b) {
    sim::Simulator sim(topo);
    std::vector<rt::MulticastRuntime::GroupRun> groups;
    groups.push_back(rt::MulticastRuntime::GroupRun{a, payload, 0});
    groups.push_back(rt::MulticastRuntime::GroupRun{b, payload, start_b});
    long long total = 0;
    for (const rt::McastResult& r : rtm.run_concurrent(sim, std::move(groups)))
      total += r.channel_conflicts;
    return total;
  };
  EXPECT_EQ(conflicts_at(delta), 0);
  EXPECT_GT(conflicts_at(delta - 1), 0);
}

// ---------------------------------------------------------------------------
// Stream analysis (v2): lint_stream must replay stream_fast bit-exactly.

TEST(LintStream, ExactAgainstStreamRuntime) {
  struct Case {
    std::unique_ptr<sim::Topology> topo;
    const MeshShape* shape;
    std::vector<McastAlgorithm> algs;
  };
  std::vector<Case> cases;
  {
    auto m = std::make_unique<mesh::MeshTopology>(MeshShape::square2d(8));
    const MeshShape* s = &m->shape();
    cases.push_back(Case{std::move(m),
                         s,
                         {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh,
                          McastAlgorithm::kBinomial}});
    cases.push_back(Case{std::make_unique<bmin::BminTopology>(32),
                         nullptr,
                         {McastAlgorithm::kOptMin, McastAlgorithm::kUMin}});
  }
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const rt::StreamRuntime srt(rtm);
  const Bytes payload = 256;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(payload, 1));
  int compared = 0;
  for (const Case& c : cases) {
    const auto placements =
        analysis::sample_placements(77, c.topo->num_nodes(), 8, 1);
    const analysis::Placement& p = placements[0];
    for (const McastAlgorithm alg : c.algs) {
      const MulticastTree tree =
          build_multicast(alg, p.source, p.dests, tp, c.shape);
      for (const int window : {1, 2, 3}) {
        for (const int slots : {1, 7, 40}) {
          const lint::StreamLintReport rep = lint::lint_stream(
              tree, *c.topo, cfg, sim::SimConfig{}, payload, slots, window);
          ASSERT_TRUE(rep.structure_ok);
          sim::Simulator sim(*c.topo);
          rt::StreamConfig scfg;
          scfg.window_size = window;
          scfg.slots = slots;
          scfg.bytes = payload;
          scfg.alg = alg;
          scfg.shape = c.shape;
          const rt::StreamResult res =
              srt.run(sim, p.source, p.dests, scfg, 0);
          EXPECT_EQ(rep.contention_free, res.channel_conflicts == 0)
              << algorithm_name(alg) << " w=" << window << " slots=" << slots;
          EXPECT_EQ(rep.messages, res.messages);
          if (rep.contention_free && res.channel_conflicts == 0) {
            // Certified clean: the symbolic commit times are the
            // simulator's, slot for slot, including the extrapolated tail.
            EXPECT_EQ(rep.makespan, res.makespan)
                << algorithm_name(alg) << " w=" << window
                << " slots=" << slots;
            ASSERT_EQ(rep.commit_time.size(), res.commit_time.size());
            for (size_t sl = 0; sl < res.commit_time.size(); ++sl)
              ASSERT_EQ(rep.commit_time[sl], res.commit_time[sl])
                  << algorithm_name(alg) << " w=" << window << " slots="
                  << slots << " slot " << sl;
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 20);
}

// The stream analysis assumes one send engine per node: with more, a
// later slot's post can be ready before an earlier slot's, so it refuses.
TEST(LintStream, RejectsMultipleSendEngines) {
  mesh::MeshTopology topo(MeshShape::square2d(8));
  rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(256, 1));
  const auto placements = analysis::sample_placements(78, 64, 8, 1);
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, placements[0].source,
                      placements[0].dests, tp, &topo.shape());
  EXPECT_TRUE(
      lint::lint_stream(tree, topo, cfg, sim::SimConfig{}, 256, 8, 2).clean());
  cfg.send_engines = 2;
  try {
    (void)lint::lint_stream(tree, topo, cfg, sim::SimConfig{}, 256, 8, 2);
    ADD_FAILURE() << "send_engines = 2 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("lint_stream: send_engines", 0), 0u)
        << e.what();
  }
}

TEST(LintStream, StaticallyReproducesE19) {
  // E19 (EXPERIMENTS.md): pipelined U-Mesh out-streams OPT-Mesh on the
  // 16x16 mesh at k=16, 64 B — U-Mesh trades one-shot latency for a
  // shorter source busy time (4 sends of ~407 vs 5 of ~406), which is the
  // steady-state interval once the window hides network latency.  The
  // static analyzer must reproduce the measured intervals and makespans
  // without simulating a flit.
  mesh::MeshTopology topo(MeshShape::square2d(16));
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const Bytes payload = 64;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(payload, 1));
  const auto placements = analysis::sample_placements(1997, 256, 16, 4);
  const int slots = 8000;

  double opt_w2 = 0, u_w2 = 0, opt_w1 = 0, u_w1 = 0;
  for (const analysis::Placement& p : placements) {
    const MulticastTree opt_tree =
        build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp,
                        &topo.shape());
    const MulticastTree u_tree = build_multicast(
        McastAlgorithm::kUMesh, p.source, p.dests, tp, &topo.shape());
    const lint::StreamLintReport o2 = lint::lint_stream(
        opt_tree, topo, cfg, sim::SimConfig{}, payload, slots, 2);
    const lint::StreamLintReport u2 = lint::lint_stream(
        u_tree, topo, cfg, sim::SimConfig{}, payload, slots, 2);
    // The steady interval is the source's software busy time: 5 sends for
    // OPT-Mesh (~2032), 4 for U-Mesh (~1626), and the window hides the
    // network, so both streams are software-saturated.
    EXPECT_TRUE(o2.clean());
    EXPECT_TRUE(u2.clean());
    EXPECT_EQ(o2.busy_bound, 2032);
    EXPECT_EQ(u2.busy_bound, 1626);
    EXPECT_TRUE(o2.saturated);
    EXPECT_TRUE(u2.saturated);
    EXPECT_DOUBLE_EQ(o2.interval, 2032.0);
    EXPECT_DOUBLE_EQ(u2.interval, 1626.0);
    EXPECT_GT(u2.slots_per_kcycle, o2.slots_per_kcycle);
    opt_w2 += static_cast<double>(o2.makespan) / 4;
    u_w2 += static_cast<double>(u2.makespan) / 4;
    // Window 1 (stop-and-wait) reverses the ordering: the full round trip
    // is on the critical path and OPT-Mesh's shallower tree wins.
    const lint::StreamLintReport o1 = lint::lint_stream(
        opt_tree, topo, cfg, sim::SimConfig{}, payload, slots, 1);
    const lint::StreamLintReport u1 = lint::lint_stream(
        u_tree, topo, cfg, sim::SimConfig{}, payload, slots, 1);
    EXPECT_GT(o1.slots_per_kcycle, u1.slots_per_kcycle);
    opt_w1 += static_cast<double>(o1.makespan) / 4;
    u_w1 += static_cast<double>(u1.makespan) / 4;
  }
  // The golden mean makespans of bench_stream's fault-free measured runs
  // (fig2 parameters, reps 0-3) — static must land within 1%.
  EXPECT_NEAR(opt_w2, 16256560.0, 16256560.0 * 0.01);
  EXPECT_NEAR(u_w2, 13009280.0, 13009280.0 * 0.01);
  EXPECT_NEAR(opt_w1, 20736000.0, 20736000.0 * 0.01);
  EXPECT_NEAR(u_w1, 23252000.0, 23252000.0 * 0.01);
}

// ---------------------------------------------------------------------------
// CLI: the v2 drivers and their exit-code / JSON-envelope contracts.

TEST(LintCliV2, ForestCleanContendedAndOffsetSearch) {
  cli::CliOptions opt;
  opt.lint = true;
  opt.topology = "mesh:8";
  opt.bytes = 512;
  {
    opt.forest = "0:opt-mesh:0:1,2,3,9;0:opt-mesh:36:37,38,44,45";
    std::ostringstream os;
    EXPECT_EQ(cli::run_lint_cli(opt, os), 0) << os.str();
    EXPECT_NE(os.str().find("clean"), std::string::npos);
  }
  {
    opt.forest = "0:opt-mesh:0:1,2,3,9;0:opt-mesh:1:2,3,4,10";
    std::ostringstream os;
    EXPECT_EQ(cli::run_lint_cli(opt, os), 1) << os.str();
    EXPECT_NE(os.str().find("cross-tree contention"), std::string::npos);
  }
  {
    opt.offset_search = true;
    std::ostringstream os;
    EXPECT_EQ(cli::run_lint_cli(opt, os), 0) << os.str();
    EXPECT_NE(os.str().find("offsets searched"), std::string::npos);
    opt.offset_search = false;
  }
  {
    opt.forest = "0:opt-mesh:0:bogus";
    std::ostringstream os;
    EXPECT_THROW((void)cli::run_lint_cli(opt, os), std::invalid_argument);
  }
}

TEST(LintCliV2, StreamDriverReportsIntervalAndExitCodes) {
  cli::CliOptions opt;
  opt.lint = true;
  opt.topology = "mesh:16";
  opt.nodes = 16;
  opt.bytes = 64;
  opt.stream = 200;
  opt.window = 2;
  opt.reps = 1;
  {
    opt.compare = true;
    std::ostringstream os;
    EXPECT_EQ(cli::run_lint_cli(opt, os), 0) << os.str();
    EXPECT_NE(os.str().find("interval"), std::string::npos);
    EXPECT_NE(os.str().find("OPT-Mesh"), std::string::npos);
    EXPECT_NE(os.str().find("U-Mesh"), std::string::npos);
    opt.compare = false;
  }
}

TEST(LintCliV2, JsonEnvelopeKeysPinned) {
  const std::string path = testing::TempDir() + "/pcmlint_v2_envelope.json";
  auto read_all = [&]() {
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  };
  {
    cli::CliOptions opt;
    opt.lint = true;
    opt.topology = "mesh:8";
    opt.bytes = 512;
    opt.forest = "0:opt-mesh:0:1,2,3,9";
    opt.json = path;
    std::ostringstream os;
    EXPECT_EQ(cli::run_lint_cli(opt, os), 0);
    const std::string j = read_all();
    EXPECT_NE(j.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"engine\": \"static\""), std::string::npos);
    EXPECT_NE(j.find("\"seed\""), std::string::npos);
    EXPECT_NE(j.find("\"jobs\""), std::string::npos);
    EXPECT_NE(j.find("\"mode\": \"forest\""), std::string::npos);
  }
  {
    cli::CliOptions opt;
    opt.lint = true;
    opt.topology = "mesh:8";
    opt.nodes = 8;
    opt.stream = 50;
    opt.window = 2;
    opt.json = path;
    std::ostringstream os;
    EXPECT_EQ(cli::run_lint_cli(opt, os), 0);
    const std::string j = read_all();
    EXPECT_NE(j.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(j.find("\"engine\": \"static\""), std::string::npos);
    EXPECT_NE(j.find("\"mode\": \"stream\""), std::string::npos);
    EXPECT_NE(j.find("\"window\": \"2\""), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(LintCli, ParseRejectsContradictoryModes) {
  using sv = std::string_view;
  {
    const std::vector<sv> args = {"--lint", "--audit"};
    EXPECT_THROW((void)cli::parse_args(args), std::invalid_argument);
  }
  {
    const std::vector<sv> args = {"--lint", "--faults", "node:3@100"};
    EXPECT_THROW((void)cli::parse_args(args), std::invalid_argument);
  }
  {
    const std::vector<sv> args = {"--lint", "--collective", "reduce"};
    EXPECT_THROW((void)cli::parse_args(args), std::invalid_argument);
  }
  {
    const std::vector<sv> args = {"--lint"};
    EXPECT_TRUE(cli::parse_args(args).lint);
  }
}

}  // namespace
}  // namespace pcm
