// Fault injection and fault-tolerant multicast tests.
//
//   * the healthy fast path is guarded: a zero-fault FaultPlan must leave
//     SimStats bit-identical to a no-plan run (pinned against the golden
//     numbers of test_sim_regression.cpp);
//   * fault-injected runs are deterministic at any thread fan-out (every
//     decision is a pure hash of per-simulator state);
//   * the acceptance scenario: killing a non-source destination
//     mid-multicast on the 16x16 mesh, the retry + tree-repair runtime
//     delivers to every survivor, contention-free;
//   * the watchdog produces a forensic report, not a bare string.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <vector>

#include "analysis/rng.hpp"
#include "analysis/sampling.hpp"
#include "harness/thread_pool.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/recorder.hpp"
#include "recorded_stream.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace pcm {
namespace {

sim::Message mk(NodeId src, NodeId dst, int flits, Time ready = 0) {
  sim::Message m;
  m.src = src;
  m.dst = dst;
  m.flits = flits;
  m.ready_time = ready;
  return m;
}

// --- FaultPlan parsing ---------------------------------------------------

TEST(FaultPlan, ParsesFullSpec) {
  const auto plan =
      sim::FaultPlan::parse("link:3,1@100;linkup:3,1@200;node:42@1500;"
                            "drop:0.001;corrupt:0.01;seed:7");
  ASSERT_EQ(plan.link_events.size(), 2u);
  EXPECT_EQ(plan.link_events[0].router, 3);
  EXPECT_EQ(plan.link_events[0].port, 1);
  EXPECT_EQ(plan.link_events[0].cycle, 100);
  EXPECT_FALSE(plan.link_events[0].up);
  EXPECT_TRUE(plan.link_events[1].up);
  ASSERT_EQ(plan.node_events.size(), 1u);
  EXPECT_EQ(plan.node_events[0].node, 42);
  EXPECT_EQ(plan.node_events[0].cycle, 1500);
  EXPECT_DOUBLE_EQ(plan.drop_rate, 0.001);
  EXPECT_DOUBLE_EQ(plan.corrupt_rate, 0.01);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(sim::FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("bogus:1"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("node:5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("node:@5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("link:3@5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("drop:1.5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("drop:-0.1"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("corrupt:x"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("node:1@2;;"), std::invalid_argument);
}

TEST(FaultPlan, SpecRoundTripsExactly) {
  // parse(to_spec()) must reproduce the plan bit-for-bit: event order is
  // preserved, and rates print with shortest-round-trip precision.
  const char* specs[] = {
      "link:3,1@100;linkup:3,1@200;node:42@1500;drop:0.001;corrupt:0.01;seed:7",
      "node:5@10;node:3@2",          // out-of-order events stay as given
      "drop:0.25",
      "corrupt:0.33333333333333331",  // 1/3 needs all 17 digits
      "link:0,1@5",
  };
  for (const char* spec : specs) {
    const auto plan = sim::FaultPlan::parse(spec);
    const std::string round = plan.to_spec();
    EXPECT_TRUE(sim::FaultPlan::parse(round) == plan) << spec << " -> " << round;
  }
  // An awkward machine-generated rate survives the trip.
  sim::FaultPlan plan;
  plan.drop_rate = 0.029975199526285523;
  plan.corrupt_rate = 1.0 / 3.0;
  plan.seed = 5007804489792437195u;
  EXPECT_TRUE(sim::FaultPlan::parse(plan.to_spec()) == plan) << plan.to_spec();
  // The empty plan serializes to the empty string (parse rejects "",
  // matching "no --faults flag at all").
  EXPECT_EQ(sim::FaultPlan{}.to_spec(), "");
}

TEST(FaultPlan, SeedsRoundTripOverTheFullUnsignedRange) {
  // to_spec() prints the seed as an unsigned 64-bit decimal, so parse must
  // accept every such value, including those >= 2^63.
  for (const std::uint64_t seed :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    sim::FaultPlan plan;
    plan.drop_rate = 0.01;
    plan.seed = seed;
    const sim::FaultPlan back = sim::FaultPlan::parse(plan.to_spec());
    EXPECT_EQ(back.seed, seed) << plan.to_spec();
    EXPECT_TRUE(back == plan) << plan.to_spec();
  }
  // One past the range, and negative seeds, stay malformed.
  EXPECT_THROW(sim::FaultPlan::parse("drop:0.1;seed:18446744073709551616"),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("drop:0.1;seed:-1"), std::invalid_argument);
}

TEST(FaultPlan, PartitionAndHealSpecsRoundTripExactly) {
  // The grouped partition/heal clauses survive parse -> to_spec -> parse
  // bit-for-bit (the chaos minimizer hands these out as reproducers).
  const char* specs[] = {
      "partition:0,1|1,1|2,1@100;heal:0,1|1,1|2,1@900",
      "partition:3,0@50",  // a one-channel cut is still a cut event
      "node:5@10;partition:0,1|4,2@200;drop:0.001;heal:0,1|4,2@400;seed:9",
  };
  for (const char* spec : specs) {
    const auto plan = sim::FaultPlan::parse(spec);
    EXPECT_FALSE(plan.cut_events.empty()) << spec;
    const std::string round = plan.to_spec();
    EXPECT_TRUE(sim::FaultPlan::parse(round) == plan) << spec << " -> " << round;
  }
  EXPECT_THROW(sim::FaultPlan::parse("partition:@5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("partition:0@5"), std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::parse("heal:0,1|@5"), std::invalid_argument);
}

TEST(FaultPlan, PartitionBuilderCutsExactlyTheCrossingChannels) {
  // Splitting the 4x4 mesh into top and bottom halves must cut exactly
  // the row-crossing channels — one per column per direction — down at
  // t_down and restored at t_up, and the result must round-trip as a
  // spec.
  const auto topo = mesh::make_mesh2d(4);
  std::vector<NodeId> lo, hi;
  for (NodeId v = 0; v < 16; ++v) (v < 8 ? lo : hi).push_back(v);
  const auto plan = sim::FaultPlan::partition(*topo, lo, hi, 100, 900);
  ASSERT_EQ(plan.cut_events.size(), 2u);
  const auto& down = plan.cut_events[0];
  const auto& up = plan.cut_events[1];
  EXPECT_FALSE(down.up);
  EXPECT_TRUE(up.up);
  EXPECT_EQ(down.cycle, 100);
  EXPECT_EQ(up.cycle, 900);
  EXPECT_EQ(down.channels.size(), 8u) << "4 columns x 2 directions";
  EXPECT_EQ(up.channels, down.channels);
  // Minimality: every cut channel leaves a row-1 or row-2 router.
  for (const auto& ch : down.channels)
    EXPECT_TRUE((ch.router >= 4 && ch.router < 12))
        << "router " << ch.router << " is not on the cut boundary";
  EXPECT_TRUE(sim::FaultPlan::parse(plan.to_spec()) == plan) << plan.to_spec();

  // A permanent cut (t_up < 0) emits only the down event.
  const auto forever = sim::FaultPlan::partition(*topo, lo, hi, 100, -1);
  ASSERT_EQ(forever.cut_events.size(), 1u);
  EXPECT_FALSE(forever.cut_events[0].up);

  // Region validation: overlap, gaps, emptiness, and bad times all throw.
  EXPECT_THROW(sim::FaultPlan::partition(*topo, lo, lo, 100, 900),
               std::invalid_argument);
  std::vector<NodeId> short_hi(hi.begin(), hi.end() - 1);
  EXPECT_THROW(sim::FaultPlan::partition(*topo, lo, short_hi, 100, 900),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::partition(*topo, {}, hi, 100, 900),
               std::invalid_argument);
  EXPECT_THROW(sim::FaultPlan::partition(*topo, lo, hi, 900, 100),
               std::invalid_argument);
}

TEST(FaultPlan, HashIsDeterministicAndUniform) {
  // Pure function of its inputs; roughly uniform on [0, 1).
  EXPECT_EQ(sim::fault_uniform(1, 2, 3, 4), sim::fault_uniform(1, 2, 3, 4));
  EXPECT_NE(sim::fault_uniform(1, 2, 3, 4), sim::fault_uniform(1, 2, 3, 5));
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = sim::fault_uniform(9, 1, static_cast<std::uint64_t>(i), 0);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(FaultPlan, DropTestIsPlanDropsBitForBit) {
  // The engines fold the plan's half of the drop hash once per simulator
  // (DropTest); every decision must still equal plan_drops, over the
  // whole unsigned seed range.
  analysis::Rng rng(2026);
  std::vector<std::uint64_t> seeds = {0, 1, std::uint64_t{1} << 63,
                                      std::numeric_limits<std::uint64_t>::max()};
  for (int i = 0; i < 12; ++i) seeds.push_back(rng.next());
  long long drops_at_low_rate = 0;
  for (const double rate : {0.0, 1e-3, 1.0}) {
    for (const std::uint64_t seed : seeds) {
      sim::FaultPlan plan;
      plan.drop_rate = rate;
      plan.seed = seed;
      const sim::DropTest drops(plan);
      for (int k = 0; k < 4000; ++k) {
        const int msg = static_cast<int>(rng.below(std::uint64_t{1} << 31));
        const int router = static_cast<int>(rng.below(std::uint64_t{1} << 16));
        const bool want = sim::plan_drops(plan, msg, router);
        ASSERT_EQ(drops(msg, router), want)
            << "rate " << rate << " seed " << seed << " msg " << msg << " router " << router;
        if (rate == 1e-3 && want) ++drops_at_low_rate;
      }
    }
  }
  EXPECT_GT(drops_at_low_rate, 0);  // the 1e-3 rate decides both ways
  EXPECT_FALSE(sim::DropTest{}(0, 0));
}

// --- zero-fault golden guard --------------------------------------------

TEST(FaultFreePath, ZeroFaultPlanIsBitIdenticalToBaseline) {
  // The golden scenario of SimRegression.Mesh16OptMeshContentionFree4k,
  // run twice: once without a plan, once with an installed plan whose
  // events never fire.  Every SimStats field must match the golden
  // numbers — installing a plan must not perturb the healthy engine.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];

  auto run = [&](bool with_plan) {
    sim::Simulator sim(*topo);
    if (with_plan) {
      sim::FaultPlan plan;
      plan.node_events.push_back({Time{1} << 40, 0});  // far beyond the run
      sim.set_fault_plan(plan);
    }
    rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                      &topo->shape());
    return sim.stats();
  };

  for (const bool with_plan : {false, true}) {
    const sim::SimStats s = run(with_plan);
    EXPECT_EQ(s.cycles, 5588) << "with_plan=" << with_plan;
    EXPECT_EQ(s.flit_hops, 67620);
    EXPECT_EQ(s.channel_conflicts, 0);
    EXPECT_EQ(s.messages_delivered, 31);
    EXPECT_EQ(s.max_inflight_flits, 67);
    EXPECT_EQ(s.messages_dropped, 0);
    EXPECT_EQ(s.messages_corrupted, 0);
    EXPECT_EQ(s.fault_events, 0);
    EXPECT_EQ(s.undelivered, 0);
    EXPECT_FALSE(s.watchdog_fired);
  }
}

TEST(FaultFreePath, ReliableRunMatchesPlainRunWhenHealthy) {
  // run_reliable posts the same schedule as run() on a healthy network:
  // identical latency, conflicts, and message count; zero protocol
  // activity.
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(11, 64, 16, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(2048, 1));
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, &topo->shape());

  sim::Simulator s1(*topo);
  const rt::McastResult plain = rtm.run(s1, tree, 2048);
  sim::Simulator s2(*topo);
  const rt::McastResult reliable = rtm.run_reliable(s2, tree, 2048);

  EXPECT_EQ(reliable.latency, plain.latency);
  EXPECT_EQ(reliable.channel_conflicts, plain.channel_conflicts);
  EXPECT_EQ(reliable.messages, plain.messages);
  EXPECT_EQ(reliable.recv_complete, plain.recv_complete);
  EXPECT_EQ(reliable.retries, 0);
  EXPECT_EQ(reliable.repairs, 0);
  EXPECT_EQ(reliable.duplicate_deliveries, 0);
  EXPECT_TRUE(reliable.complete);
  EXPECT_TRUE(reliable.dead_nodes.empty());
  EXPECT_DOUBLE_EQ(reliable.delivered_fraction, 1.0);
  EXPECT_EQ(reliable.added_latency, reliable.latency - reliable.model_latency);
}

// --- determinism ---------------------------------------------------------

TEST(FaultDeterminism, IdenticalAcrossThreadFanOut) {
  // Eight fault-injected placements, executed serially and on a pool:
  // per-placement stats must be bit-identical (each Simulator owns its
  // plan; decisions are pure hashes, never shared-state RNG draws).
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(23, 64, 12, 8);

  struct Obs {
    Time cycles;
    long long hops;
    long long conflicts;
    int delivered;
    int dropped;
    int retries;
    int repairs;
    Time latency;
    double fraction;
    bool operator==(const Obs&) const = default;
  };
  auto sweep = [&](int jobs) {
    std::vector<Obs> out(placements.size());
    harness::ThreadPool pool(jobs);
    pool.parallel_for(placements.size(), [&](std::size_t i) {
      const analysis::Placement& p = placements[i];
      sim::FaultPlan plan;
      plan.drop_rate = 0.02;
      plan.seed = 1000 + i;
      plan.node_events.push_back({900, p.dests[i % p.dests.size()]});
      sim::Simulator sim(*topo);
      sim.set_fault_plan(plan);
      const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(1024, 1));
      const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                                 p.dests, tp, &topo->shape());
      const rt::McastResult r = rtm.run_reliable(sim, tree, 1024);
      const sim::SimStats& s = sim.stats();
      out[i] = Obs{s.cycles,          s.flit_hops, s.channel_conflicts,
                   s.messages_delivered, s.messages_dropped, r.retries,
                   r.repairs,         r.latency,   r.delivered_fraction};
    });
    return out;
  };

  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(serial[i] == parallel[i]) << "placement " << i;
  // The runs did inject faults (otherwise this test guards nothing).
  int dropped = 0;
  for (const Obs& o : serial) dropped += o.dropped;
  EXPECT_GT(dropped, 0);
}

// --- fault semantics in the simulator ------------------------------------

TEST(FaultSim, DeadDestinationPurgesIncomingTraffic) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({5, 15});
  sim.set_fault_plan(plan);
  sim.post(mk(0, 15, 64));          // in flight when the node dies
  sim.post(mk(15, 3, 8, 200));      // posted after death: dies at the NI
  sim.run_until_idle();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.stats().messages_dropped, 2);
  EXPECT_EQ(sim.stats().messages_delivered, 0);
  EXPECT_EQ(sim.stats().undelivered, 0);
  EXPECT_EQ(sim.messages().at(0).drop_reason, sim::DropReason::kNodeDead);
  EXPECT_EQ(sim.messages().at(1).drop_reason, sim::DropReason::kSenderDead);
  EXPECT_GE(sim.messages().at(0).dropped, 5);
}

TEST(FaultSim, LinkDownPurgesHolderAndLinkUpRestores) {
  const auto topo = mesh::make_mesh2d(4);
  // Find the ejection channel of node 3 by routing a probe: node 3 sits
  // at router 3; its consumption port is the one node_attach names.
  const sim::PortRef attach = topo->node_attach(3);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.link_events.push_back({10, attach.router, attach.port, false});
  plan.link_events.push_back({400, attach.router, attach.port, true});
  sim.set_fault_plan(plan);
  sim.post(mk(0, 3, 32));            // caught by the cut
  sim.post(mk(0, 3, 8, 500));        // sails through after restoration
  sim.run_until_idle();
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.stats().messages_dropped, 1);
  EXPECT_EQ(sim.stats().messages_delivered, 1);
  EXPECT_EQ(sim.stats().fault_events, 2);
  EXPECT_EQ(sim.messages().at(0).drop_reason, sim::DropReason::kLinkDown);
  EXPECT_GE(sim.messages().at(1).delivered, 500);
}

TEST(FaultSim, DropRateLosesSomeMessagesDeterministically) {
  const auto topo = mesh::make_mesh2d(8);
  auto run = [&] {
    sim::Simulator sim(*topo);
    sim::FaultPlan plan;
    plan.drop_rate = 0.05;
    plan.seed = 42;
    sim.set_fault_plan(plan);
    for (int i = 0; i < 60; ++i)
      sim.post(mk(i % 64, (i * 17 + 5) % 64, 16, i * 3));
    sim.run_until_idle();
    return sim.stats();
  };
  const sim::SimStats a = run();
  const sim::SimStats b = run();
  EXPECT_GT(a.messages_dropped, 0);
  EXPECT_GT(a.messages_delivered, 0);
  EXPECT_EQ(a.messages_dropped + a.messages_delivered, 60);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.flit_hops, b.flit_hops);
}

TEST(FaultSim, CorruptionDeliversUnusablePayload) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.corrupt_rate = 0.999999;  // certain, but still a rate decision
  plan.seed = 3;
  sim.set_fault_plan(plan);
  sim.post(mk(0, 15, 8));
  sim.run_until_idle();
  EXPECT_EQ(sim.stats().messages_delivered, 1);
  EXPECT_EQ(sim.stats().messages_corrupted, 1);
  EXPECT_TRUE(sim.messages().at(0).corrupted);
}

TEST(FaultSim, PlanInstallationIsValidated) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  sim::FaultPlan bad;
  bad.node_events.push_back({10, 99});  // node out of range
  EXPECT_THROW(sim.set_fault_plan(bad), std::invalid_argument);
  sim::FaultPlan late;
  late.node_events.push_back({10, 1});
  sim.post(mk(0, 1, 4));
  EXPECT_THROW(sim.set_fault_plan(late), std::logic_error);  // traffic exists
}

// --- truncation status ---------------------------------------------------

TEST(Truncation, PartialRunIsDistinguishableFromCleanFinish) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  sim.post(mk(0, 15, 1000));
  sim.run_until_idle(/*max_cycles=*/50);
  EXPECT_EQ(sim.run_status(), sim::RunStatus::kTruncated);
  EXPECT_FALSE(sim.idle());
  EXPECT_GT(sim.stats().undelivered, 0);
  sim.run_until_idle();
  EXPECT_EQ(sim.run_status(), sim::RunStatus::kCompleted);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.stats().undelivered, 0);
  EXPECT_EQ(sim.stats().messages_delivered, 1);
}

// --- watchdog forensics --------------------------------------------------

// Two routers in a ring with no ejection: the canonical self-wedge (see
// test_sim_errors.cpp).
class RingTopology final : public sim::Topology {
 public:
  [[nodiscard]] int num_routers() const override { return 2; }
  [[nodiscard]] int radix() const override { return 2; }
  [[nodiscard]] int num_nodes() const override { return 2; }
  [[nodiscard]] sim::PortRef link(int router, int out_port) const override {
    if (out_port != 0) return {};
    return sim::PortRef{1 - router, 0};
  }
  [[nodiscard]] sim::PortRef node_attach(NodeId n) const override {
    return sim::PortRef{static_cast<int>(n), 1};
  }
  [[nodiscard]] NodeId ejector(int, int) const override { return kInvalidNode; }
  void route(int, int, NodeId, NodeId, std::vector<int>& candidates) const override {
    candidates.push_back(0);
  }
};

class WatchdogObserver final : public sim::SimObserver {
 public:
  void on_reserve(int, int, sim::MsgId, Time) override {}
  void on_release(int, int, sim::MsgId, Time) override {}
  void on_blocked(int, int, sim::MsgId, Time) override {}
  void on_watchdog(const sim::WatchdogReport& report) override {
    ++calls;
    last = report;
  }
  int calls = 0;
  sim::WatchdogReport last;
};

TEST(WatchdogForensics, ReportCarriesStallStateAndDeadlockCycle) {
  RingTopology topo;
  sim::SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 200;
  sim::Simulator sim(topo, cfg);
  WatchdogObserver obs;
  sim.set_observer(&obs);
  sim.post(mk(0, 1, 32));
  try {
    sim.run_until_idle();
    FAIL() << "expected WatchdogError";
  } catch (const sim::WatchdogError& e) {
    const sim::WatchdogReport& rep = e.report();
    ASSERT_EQ(rep.stalled.size(), 1u);
    EXPECT_EQ(rep.stalled[0].msg, 0);
    EXPECT_EQ(rep.stalled[0].src, 0);
    EXPECT_EQ(rep.stalled[0].dst, 1);
    EXPECT_TRUE(rep.stalled[0].injected);
    EXPECT_FALSE(rep.reservations.empty());
    // The worm waits on its own reservation: a one-message cycle.
    ASSERT_FALSE(rep.deadlock_cycle.empty());
    EXPECT_EQ(rep.deadlock_cycle[0], 0);
    EXPECT_NE(rep.channel_occupancy.find("occ="), std::string::npos);
    EXPECT_GT(rep.stalled_cycles, 200);
    // The what() text embeds the same dump (legacy catch sites).
    const std::string what = e.what();
    EXPECT_NE(what.find("watchdog"), std::string::npos);
    EXPECT_NE(what.find("occ="), std::string::npos);
    EXPECT_NE(what.find("deadlock"), std::string::npos);
  }
  EXPECT_EQ(obs.calls, 1);
  EXPECT_FALSE(obs.last.stalled.empty());
  EXPECT_TRUE(sim.stats().watchdog_fired);
}

TEST(WatchdogForensics, TwoWormDeadlockReportsBothWormsAndTheCycle) {
  // Two opposing worms on the two-router ring: each holds its local
  // output channel and waits for the other's — the minimal two-message
  // wait-for cycle.  The forensic report must name both worms, list both
  // reservations, and recover the full cycle.
  RingTopology topo;
  sim::SimConfig cfg;
  cfg.fifo_capacity = 2;
  cfg.watchdog_cycles = 200;
  sim::Simulator sim(topo, cfg);
  sim.post(mk(0, 1, 32));
  sim.post(mk(1, 0, 32));
  try {
    sim.run_until_idle();
    FAIL() << "expected WatchdogError";
  } catch (const sim::WatchdogError& e) {
    const sim::WatchdogReport& rep = e.report();
    ASSERT_EQ(rep.stalled.size(), 2u);
    EXPECT_EQ(rep.stalled[0].msg, 0);
    EXPECT_EQ(rep.stalled[1].msg, 1);
    EXPECT_EQ(rep.reservations.size(), 2u);
    ASSERT_EQ(rep.deadlock_cycle.size(), 2u);
    EXPECT_TRUE((rep.deadlock_cycle[0] == 0 && rep.deadlock_cycle[1] == 1) ||
                (rep.deadlock_cycle[0] == 1 && rep.deadlock_cycle[1] == 0))
        << "cycle [" << rep.deadlock_cycle[0] << ", " << rep.deadlock_cycle[1]
        << "]";
  }
  EXPECT_TRUE(sim.stats().watchdog_fired);
}

TEST(WatchdogForensics, TraceKeepsTheDeadlockedWormsOpenWaits) {
  // Each wait is recorded when it starts, so a deadlock's waits, which
  // never end, are in the trace the watchdog leaves behind.
  RingTopology topo;
  for (const sim::EngineKind engine : {sim::EngineKind::kCycle, sim::EngineKind::kEvent}) {
    SCOPED_TRACE(engine == sim::EngineKind::kCycle ? "cycle" : "event");
    sim::Simulator sim(topo, sim::SimConfig{.fifo_capacity = 2, .watchdog_cycles = 200,
                                            .engine = engine});
    obs::FlightRecorder rec{obs::RecorderConfig{obs::kUnbounded}};
    sim.set_observer(&rec);
    sim.post(mk(0, 1, 32));
    sim.post(mk(1, 0, 32));
    EXPECT_THROW(sim.run_until_idle(), sim::WatchdogError);
    const auto events = rec.snapshot();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().event_kind(), obs::EventKind::kWatchdog);
    std::vector<obs::TraceEvent> waits;
    std::ranges::copy_if(events, std::back_inserter(waits), [](const obs::TraceEvent& ev) {
      return ev.event_kind() == obs::EventKind::kWait;
    });
    ASSERT_EQ(waits.size(), 2u);
    for (const obs::TraceEvent& w : waits) {
      SCOPED_TRACE("msg " + std::to_string(w.c));
      EXPECT_EQ(w.a, w.c == 0 ? 1 : 0);  // the head sits at the other router
      EXPECT_EQ(std::ranges::count_if(events, [&](const obs::TraceEvent& ev) {
                  return ev.cycle >= w.cycle && ev.c == w.c &&
                         ev.event_kind() == obs::EventKind::kReserve;
                }),
                0);
      EXPECT_EQ(sim.messages().at(w.c).block_cycles, sim.now() - w.cycle);
    }
  }
}

TEST(WatchdogForensics, StallReportUnderTwoConcurrentGroups) {
  // Two multicast groups in flight on one mesh, truncated mid-run: the
  // on-demand stall report must list exactly the pending messages of both
  // groups, with a reservation table but no deadlock cycle (the traffic
  // is merely in flight, not wedged).
  const auto topo = mesh::make_mesh2d(8);
  sim::Simulator sim(*topo);
  sim.post(mk(0, 63, 2000));   // group A: corner to corner
  sim.post(mk(63, 0, 2000));   // group B: the reverse sweep
  sim.run_until_idle(/*max_cycles=*/50);
  ASSERT_EQ(sim.run_status(), sim::RunStatus::kTruncated);
  const sim::WatchdogReport rep = sim.stall_report();
  ASSERT_EQ(rep.stalled.size(), 2u);
  EXPECT_EQ(rep.stalled[0].msg, 0);
  EXPECT_EQ(rep.stalled[1].msg, 1);
  EXPECT_TRUE(rep.stalled[0].injected);
  EXPECT_FALSE(rep.reservations.empty());
  EXPECT_TRUE(rep.deadlock_cycle.empty());
  // Draining the network clears the report.
  sim.run_until_idle();
  EXPECT_TRUE(sim.stall_report().stalled.empty());
}

TEST(WatchdogForensics, StallReportOnDemandIsCheapAndEmptyWhenIdle) {
  const auto topo = mesh::make_mesh2d(4);
  sim::Simulator sim(*topo);
  const sim::WatchdogReport rep = sim.stall_report();
  EXPECT_TRUE(rep.stalled.empty());
  EXPECT_TRUE(rep.reservations.empty());
  EXPECT_TRUE(rep.deadlock_cycle.empty());
}

/// The wait-for search as the watchdog first wrote it (recursive), kept
/// as the reference first_wait_cycle must reproduce cycle for cycle.
std::vector<sim::MsgId> recursive_first_cycle(
    const std::vector<std::vector<sim::MsgId>>& waits_on) {
  std::vector<char> color(waits_on.size(), 0);  // white, grey, black
  std::vector<sim::MsgId> stack;
  std::vector<sim::MsgId> found;
  std::function<bool(sim::MsgId)> visit = [&](sim::MsgId u) {
    color[static_cast<std::size_t>(u)] = 1;
    stack.push_back(u);
    for (const sim::MsgId v : waits_on[static_cast<std::size_t>(u)]) {
      if (color[static_cast<std::size_t>(v)] == 1) {
        found.assign(std::find(stack.begin(), stack.end(), v), stack.end());
        return true;
      }
      if (color[static_cast<std::size_t>(v)] == 0 && visit(v)) return true;
    }
    stack.pop_back();
    color[static_cast<std::size_t>(u)] = 2;
    return false;
  };
  for (std::size_t u = 0; u < waits_on.size() && found.empty(); ++u)
    if (color[u] == 0 && !waits_on[u].empty()) visit(static_cast<sim::MsgId>(u));
  return found;
}

TEST(WatchdogForensics, WaitCycleSearchMatchesTheRecursiveSearch) {
  analysis::Rng rng(1997);
  int cyclic = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(1 + rng.below(12));
    std::vector<std::vector<sim::MsgId>> waits_on(n);
    for (auto& out : waits_on)
      for (std::uint64_t e = rng.below(3); e > 0; --e)
        out.push_back(static_cast<sim::MsgId>(rng.below(n)));
    const std::vector<sim::MsgId> want = recursive_first_cycle(waits_on);
    cyclic += want.empty() ? 0 : 1;
    EXPECT_EQ(sim::first_wait_cycle(waits_on), want) << "trial " << trial;
  }
  EXPECT_GT(cyclic, 200);  // both outcomes are well covered
  EXPECT_LT(cyclic, 1800);
}

TEST(WatchdogForensics, WaitCycleSearchHandlesA200kMessageChain) {
  // One stack frame per message on the wait path would overflow the
  // thread stack long before 200k messages.
  constexpr sim::MsgId kN = 200000;
  std::vector<std::vector<sim::MsgId>> waits_on(static_cast<std::size_t>(kN));
  for (sim::MsgId i = 0; i + 1 < kN; ++i) waits_on[static_cast<std::size_t>(i)] = {i + 1};
  EXPECT_TRUE(sim::first_wait_cycle(waits_on).empty());
  // The tail waits on its predecessor: a two-message cycle at the far end.
  waits_on.back() = {kN - 2};
  EXPECT_EQ(sim::first_wait_cycle(waits_on), (std::vector<sim::MsgId>{kN - 2, kN - 1}));
  // The tail waits on the head: one cycle through every message.
  waits_on.back() = {0};
  const std::vector<sim::MsgId> cycle = sim::first_wait_cycle(waits_on);
  ASSERT_EQ(cycle.size(), static_cast<std::size_t>(kN));
  for (sim::MsgId i = 0; i < kN; ++i) ASSERT_EQ(cycle[static_cast<std::size_t>(i)], i);
}

// --- the acceptance scenario --------------------------------------------

TEST(FaultTolerantRuntime, KilledDestinationIsRepairedAround) {
  // 16x16 mesh, OPT-mesh, 32 participants.  One non-source destination
  // fail-stops mid-multicast (before its delivery).  The runtime must
  //   * deliver to every survivor (delivered fraction (k-1)/k),
  //   * retry the dead receiver before giving up (retries > 0),
  //   * re-split the orphan interval (repairs > 0) without introducing
  //     channel conflicts among the survivors.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(5, 256, 32, 1)[0];
  const int k = 32;
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(4096, 1));
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, &topo->shape());

  // Pick an interior victim: a destination that itself forwards (so its
  // subtree is orphaned, forcing a genuine repair, not just a dead leaf).
  NodeId victim = kInvalidNode;
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos || tree.out[pos].empty()) continue;
    victim = tree.node(pos);
    break;
  }
  ASSERT_NE(victim, kInvalidNode);

  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({800, victim});  // after injection, pre-delivery
  sim.set_fault_plan(plan);
  const rt::McastResult r = rtm.run_reliable(sim, tree, 4096);

  EXPECT_EQ(r.expected_dests, k - 1);
  EXPECT_EQ(r.delivered_dests, k - 2) << "every survivor must be served";
  EXPECT_DOUBLE_EQ(r.delivered_fraction, static_cast<double>(k - 1) / k);
  EXPECT_FALSE(r.complete);
  ASSERT_EQ(r.dead_nodes.size(), 1u);
  EXPECT_EQ(r.dead_nodes[0], victim);
  EXPECT_GT(r.retries, 0);
  EXPECT_GT(r.repairs, 0);
  EXPECT_GT(r.added_latency, 0);

  // Survivor traffic stays contention-free: no delivered message ever
  // blocked (only purged sends to the dead node may be interrupted).
  for (const sim::Message& m : sim.messages().all()) {
    if (m.delivered < 0) continue;
    EXPECT_EQ(m.block_cycles, 0) << "message " << m.id;
  }
  // Every survivor position did receive.
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos || tree.node(pos) == victim) continue;
    EXPECT_GE(r.recv_complete[pos], 0) << "position " << pos;
  }
}

TEST(FaultTolerantRuntime, DropStormIsAbsorbedByRetries) {
  // Heavy per-hop loss, no dead nodes: retries must reach everyone.
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(7, 64, 16, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(1024, 1));
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, &topo->shape());
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.drop_rate = 0.05;
  plan.seed = 11;
  sim.set_fault_plan(plan);
  const rt::McastResult r = rtm.run_reliable(sim, tree, 1024);
  EXPECT_TRUE(r.complete);
  EXPECT_GT(r.retries, 0);
  EXPECT_GT(sim.stats().messages_dropped, 0);
  EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0);
}

TEST(FaultTolerantRuntime, CorruptedDeliveriesAreRetransmitted) {
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(9, 64, 8, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(1024, 1));
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, &topo->shape());
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.corrupt_rate = 0.3;
  plan.seed = 5;
  sim.set_fault_plan(plan);
  const rt::McastResult r = rtm.run_reliable(sim, tree, 1024);
  EXPECT_TRUE(r.complete);
  EXPECT_GT(sim.stats().messages_corrupted, 0);
  EXPECT_GT(r.retries, 0);
}

TEST(FaultTolerantRuntime, RetryExhaustionTerminatesWithPartialDelivery) {
  // Nothing ever gets through: every send (and every repair) is dropped,
  // so the retry ladder must exhaust --max-retries on every receiver and
  // *terminate* with a partial delivered_fraction — not hang in the sweep
  // loop.  The outcome must be identical under both simulator kernels
  // (pcmcast maps this to exit 1 unless --allow-partial; 3 stays reserved
  // for audit violations).
  const auto topo = mesh::make_mesh2d(8);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(13, 64, 8, 1)[0];
  const int k = 8;
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(1024, 1));
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                             p.dests, tp, &topo->shape());
  std::vector<rt::McastResult> results;
  for (const sim::EngineKind engine :
       {sim::EngineKind::kCycle, sim::EngineKind::kEvent}) {
    sim::Simulator sim(*topo, sim::SimConfig{.engine = engine});
    sim::FaultPlan plan;
    plan.drop_rate = 1.0;  // total loss
    plan.seed = 3;
    sim.set_fault_plan(plan);
    rt::FtConfig ft;
    ft.max_retries = 2;
    results.push_back(rtm.run_reliable(sim, tree, 1024, ft));
    const rt::McastResult& r = results.back();
    EXPECT_FALSE(r.complete);
    EXPECT_EQ(r.delivered_dests, 0);
    EXPECT_DOUBLE_EQ(r.delivered_fraction, 1.0 / k) << "only the source holds it";
    EXPECT_EQ(static_cast<int>(r.dead_nodes.size()), k - 1);
    EXPECT_GT(r.retries, 0) << "the budget must actually be spent";
  }
  // Both engines agree bit-for-bit on the exhausted outcome.
  const rt::McastResult& a = results[0];
  const rt::McastResult& b = results[1];
  EXPECT_EQ(a.latency, b.latency);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.dead_nodes, b.dead_nodes);
  EXPECT_DOUBLE_EQ(a.delivered_fraction, b.delivered_fraction);
}

TEST(FaultTolerantRuntime, BadFtConfigIsRejected) {
  const auto topo = mesh::make_mesh2d(4);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(3, 16, 4, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(64, 1));
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp, &topo->shape());
  sim::Simulator sim(*topo);
  for (const auto& edit : std::vector<std::function<void(rt::FtConfig&)>>{
           [](rt::FtConfig& ft) { ft.max_retries = -1; },
           [](rt::FtConfig& ft) { ft.max_retries = 41; },
           [](rt::FtConfig& ft) { ft.timeout_scale = 0.5; },
           [](rt::FtConfig& ft) { ft.timeout_slack = -1; }}) {
    rt::FtConfig bad;
    edit(bad);
    EXPECT_THROW(rtm.run_reliable(sim, tree, 64, bad), std::invalid_argument);
  }
  // The bounds themselves are valid.
  rt::FtConfig edge;
  edge.max_retries = 0;
  edge.timeout_scale = 1.0;
  edge.timeout_slack = 0;
  EXPECT_NO_THROW(rtm.run_reliable(sim, tree, 64, edge));
}

// --- golden: run_reliable's retransmission order ---------------------------

TEST(ReliableGolden, OneShotKeepsItsRetransmissionOrder) {
  // Per-hop drops, an interior forwarder killed mid-multicast and tight
  // timeouts (no slack, unscaled t_end): retries, orphan re-splits and
  // slow attempts that land after their retransmission (duplicates) all
  // happen in one run.  The constants pin every field of the result and
  // the exact order in which the protocol issued and retransmitted.
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto p = analysis::sample_placements(11, 256, 32, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(1024, 1));
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                             p.dests, tp, &topo->shape());
  NodeId victim = kInvalidNode;  // the first destination that forwards
  for (int pos = 0; pos < tree.num_nodes(); ++pos) {
    if (pos == tree.chain.source_pos || tree.out[pos].empty()) continue;
    victim = tree.node(pos);
    break;
  }
  ASSERT_EQ(victim, 56);
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.drop_rate = 4e-2;
  plan.seed = 9;
  plan.node_events.push_back({600, victim});
  sim.set_fault_plan(plan);
  obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
  rt::FtConfig ft;
  ft.timeout_scale = 1.0;
  ft.timeout_slack = 0;
  const rt::McastResult r = rtm.run_reliable(sim, tree, 1024, ft, 0, &rec);

  const std::vector<Time> recv_complete = {
      12854, 11928,   -1, 5681, 4748, 3313, 3783, 1418, 3301, 3780, 2376,
       3775,  2854, 5742,   -1, 1889, 6197, 3304, 2810, 3741, 3825, 6190,
       5715,  6636, 5237, 6638, 15267, 4752, 6638, 6154, 5677, 6598};
  EXPECT_EQ(r.latency, 15267);
  EXPECT_EQ(r.model_latency, 3834);
  EXPECT_EQ(r.channel_conflicts, 46);
  EXPECT_EQ(r.block_cycles, 46);
  EXPECT_EQ(r.messages, 52);
  EXPECT_EQ(r.recv_complete, recv_complete);
  EXPECT_EQ(r.expected_dests, 31);
  EXPECT_EQ(r.delivered_dests, 30);
  EXPECT_EQ(r.retries, 16);
  EXPECT_EQ(r.repairs, 4);
  EXPECT_EQ(r.duplicate_deliveries, 2);
  EXPECT_EQ(r.dead_nodes, std::vector<NodeId>{victim});
  EXPECT_EQ(r.delivered_fraction, 31.0 / 32.0);
  EXPECT_EQ(r.added_latency, 11433);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(send_attempt_hash(rec), 0x5fcaa33ba53b2cdaULL);
}

}  // namespace
}  // namespace pcm
