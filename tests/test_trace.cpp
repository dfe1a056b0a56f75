// Tests for the flight recorder's channel spans — the ground truth of
// wormhole switching — and the wormhole invariants they machine-check.
// Every case runs on both engines: the event engine must fire the same
// reserve / release / wait hooks as the cycle engine, including across
// the steady-state leaps that skip a wait's cycles.  Channel exclusivity
// is checked by an InvariantAuditor chained behind the recorder (it
// throws on a double reservation or a release by a non-holder).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "harness/spec.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm::obs {
namespace {

constexpr sim::EngineKind kEngines[] = {sim::EngineKind::kCycle, sim::EngineKind::kEvent};

const char* engine_name(sim::EngineKind e) {
  return e == sim::EngineKind::kEvent ? "event" : "cycle";
}

sim::Message mk(NodeId src, NodeId dst, int flits, Time ready = 0) {
  sim::Message m;
  m.src = src;
  m.dst = dst;
  m.flits = flits;
  m.ready_time = ready;
  return m;
}

/// One simulator whose hooks feed an unbounded recorder, chained to an
/// auditor that enforces channel exclusivity on every event.
struct Traced {
  Traced(const sim::Topology& topo, sim::EngineKind engine,
         verify::AuditConfig audit_cfg = {})
      : sim(topo, sim::SimConfig{.engine = engine}), audit(topo, std::move(audit_cfg)) {
    rec.chain(&audit);
    sim.set_observer(&rec);
  }
  /// Runs to idle, runs the auditor's end-of-run checks, returns the trace.
  std::vector<TraceEvent> run() {
    sim.run_until_idle();
    audit.finalize(sim);
    return rec.snapshot();
  }

  sim::Simulator sim;
  FlightRecorder rec{RecorderConfig{kUnbounded}};
  verify::InvariantAuditor audit;
};

std::vector<TraceEvent> of_kind(const std::vector<TraceEvent>& events, EventKind k) {
  std::vector<TraceEvent> out;
  std::ranges::copy_if(events, std::back_inserter(out),
                       [k](const TraceEvent& ev) { return ev.event_kind() == k; });
  return out;
}

/// One cycle a head spent blocked: (cycle, router, in_port, msg).
using BlockedCycle = std::array<std::int64_t, 4>;

/// Every head-blocked cycle of one run's trace, sorted: each kWait
/// expands to one tuple per cycle up to its message's next kReserve at
/// that router or its kDrop, exclusive.  A run's trace holds no kBlocked.
std::vector<BlockedCycle> blocked_cycles(const std::vector<TraceEvent>& events) {
  std::vector<BlockedCycle> out;
  for (auto it = events.begin(); it != events.end(); ++it) {
    EXPECT_NE(it->event_kind(), EventKind::kBlocked);
    if (it->event_kind() != EventKind::kWait) continue;
    const auto end = std::find_if(it + 1, events.end(), [&](const TraceEvent& ev) {
      return (ev.event_kind() == EventKind::kReserve && ev.a == it->a && ev.c == it->c) ||
             (ev.event_kind() == EventKind::kDrop && ev.a == it->c);
    });
    EXPECT_NE(end, events.end()) << "wait of msg " << it->c << " never ends";
    if (end == events.end()) continue;
    for (Time c = it->cycle; c < end->cycle; ++c) out.push_back({c, it->a, it->b, it->c});
  }
  std::ranges::sort(out);
  return out;
}

/// Each message's blocked cycles in `cycles` number its block_cycles, so
/// they also add up to the run's channel_conflicts.
void expect_block_cycles(const sim::Simulator& sim, const std::vector<BlockedCycle>& cycles) {
  std::vector<Time> blocked(static_cast<std::size_t>(sim.messages().size()), 0);
  for (const BlockedCycle& c : cycles) ++blocked[static_cast<std::size_t>(c[3])];
  for (const sim::Message& m : sim.messages().all())
    EXPECT_EQ(blocked[static_cast<std::size_t>(m.id)], m.block_cycles) << "msg " << m.id;
  EXPECT_EQ(static_cast<long long>(cycles.size()), sim.stats().channel_conflicts);
}

/// FNV-1a over the tuples' little-endian bytes, continuing from `h`.
std::uint64_t fnv(std::uint64_t h, const std::vector<BlockedCycle>& tuples) {
  for (const BlockedCycle& t : tuples)
    for (const std::int64_t v : t)
      for (int i = 0; i < 8; ++i) {
        h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
      }
  return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// "" when every reservation lies on its message's deterministic routing
/// path (first routing candidate), else a diagnostic.
std::string off_path(const sim::Topology& topo, const sim::MessageTable& messages,
                     const std::vector<TraceEvent>& events) {
  std::ostringstream err;
  for (const TraceEvent& ev : of_kind(events, EventKind::kReserve)) {
    const sim::Message& m = messages.at(ev.c);
    const auto path = sim::trace_path(topo, m.src, m.dst);
    if (std::ranges::find(path, topo.channel_id(ev.a, ev.b)) == path.end())
      err << "msg " << ev.c << " held off-path channel "
          << topo.channel_name(ev.a, ev.b) << "; ";
  }
  return err.str();
}

TEST(Trace, SingleMessageHoldsExactlyItsPath) {
  const auto topo = mesh::make_mesh2d(4);
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    t.sim.post(mk(0, 15, 8));
    const auto events = t.run();
    const auto reserves = of_kind(events, EventKind::kReserve);
    EXPECT_EQ(of_kind(events, EventKind::kRelease).size(), reserves.size());
    // Each path channel reserved exactly once, in path order, at strictly
    // increasing cycles.
    const auto path = sim::trace_path(*topo, 0, 15);
    ASSERT_EQ(reserves.size(), path.size());
    for (size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(topo->channel_id(reserves[i].a, reserves[i].b), path[i]) << "hop " << i;
      if (i > 0) {
        EXPECT_GT(reserves[i].cycle, reserves[i - 1].cycle) << "hop " << i;
      }
    }
    EXPECT_EQ(off_path(*topo, t.sim.messages(), events), "");
    EXPECT_TRUE(of_kind(events, EventKind::kWait).empty());
  }
}

TEST(Trace, HoldDurationCoversSerialization) {
  const auto topo = mesh::make_mesh2d(4);
  const int flits = 32;
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    t.sim.post(mk(0, 3, flits));
    const auto releases = of_kind(t.run(), EventKind::kRelease);
    EXPECT_FALSE(releases.empty());
    for (const TraceEvent& ev : releases) EXPECT_GE(ev.d, flits - 1);
  }
}

TEST(Trace, BlockedHeadsAreRecorded) {
  const auto topo = mesh::make_mesh2d(4);
  const MeshShape& s = topo->shape();
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    // Same contended pair as the simulator test: shared d1+ column channels.
    t.sim.post(mk(s.node_at({0, 0}), s.node_at({0, 3}), 32));
    t.sim.post(mk(s.node_at({0, 1}), s.node_at({1, 3}), 32));
    const auto events = t.run();
    const auto waits = of_kind(events, EventKind::kWait);
    EXPECT_FALSE(waits.empty());
    // One record per wait, and the waits' lengths add up to every
    // blocked cycle, per message and in total.
    expect_block_cycles(t.sim, blocked_cycles(events));
    EXPECT_LT(static_cast<long long>(waits.size()), t.sim.stats().channel_conflicts);
    // The blocked head waits out a streaming worm, so the steady-state
    // leap skips cycles of the wait; its one record covers them.
    EXPECT_GT(t.sim.leaps(), 0);
  }
}

// Every head-blocked cycle, pinned by hash on three contended workloads:
// a reduced Figure 2 OPT-Tree sweep, OPT-Tree on a BMIN under source,
// adaptive and random-hash up routing, and a fault run whose waiting worm
// is purged when its sender dies.  Both engines must reproduce each hash.
TEST(Trace, BlockedCyclesArePinned) {
  /// Runs OPT-Tree on each placement and size; returns the chained hash.
  const auto sweep = [](const sim::Topology& topo, sim::EngineKind engine,
                        const std::vector<analysis::Placement>& placements,
                        std::initializer_list<Bytes> sizes) {
    rt::MulticastRuntime rtm(rt::RuntimeConfig{});
    std::uint64_t h = kFnvBasis;
    long long n = 0;
    for (const Bytes size : sizes) {
      for (const auto& p : placements) {
        Traced t(topo, engine);
        rtm.run_algorithm(t.sim, McastAlgorithm::kOptTree, p.source, p.dests, size,
                          harness::mesh_shape_of(topo));
        t.audit.finalize(t.sim);
        const auto cycles = blocked_cycles(t.rec.snapshot());
        expect_block_cycles(t.sim, cycles);
        n += static_cast<long long>(cycles.size());
        h = fnv(h, cycles);
      }
    }
    EXPECT_GT(n, 0);
    return h;
  };
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    const auto mesh16 = mesh::make_mesh2d(16);
    EXPECT_EQ(sweep(*mesh16, engine, analysis::sample_placements(1997, 256, 32, 4),
                    {0, 8192, 32768}),
              0x915af93bf3d45f15ULL);
    const std::pair<bmin::UpPolicy, std::uint64_t> bmins[] = {
        {bmin::UpPolicy::kSourceAddress, 0xbc020c3552cc8233ULL},
        {bmin::UpPolicy::kAdaptive, 0xbc020c3552cc8233ULL},
        {bmin::UpPolicy::kRandomHash, 0xf07d67eff32481ddULL}};
    for (const auto& [policy, pinned] : bmins) {
      const auto topo = bmin::make_bmin(64, policy);
      EXPECT_EQ(sweep(*topo, engine, analysis::sample_placements(7, 64, 48, 3), {16384}),
                pinned);
    }

    const auto mesh4 = mesh::make_mesh2d(4);
    const MeshShape& s = mesh4->shape();
    verify::AuditConfig cfg;
    cfg.plan_known = true;
    cfg.plan.node_events.push_back({20, s.node_at({0, 0})});
    Traced t(*mesh4, engine, cfg);
    t.sim.set_fault_plan(cfg.plan);
    t.sim.post(mk(s.node_at({0, 0}), s.node_at({0, 3}), 32));
    t.sim.post(mk(s.node_at({0, 1}), s.node_at({1, 3}), 32));
    const auto cycles = blocked_cycles(t.run());
    expect_block_cycles(t.sim, cycles);
    // Message 0 waits until its sender dies at cycle 20 and it is purged.
    EXPECT_EQ(t.sim.messages().at(0).dropped, 20);
    ASSERT_FALSE(cycles.empty());
    EXPECT_EQ(cycles.back(), (BlockedCycle{19, cycles.back()[1], cycles.back()[2], 0}));
    EXPECT_EQ(fnv(kFnvBasis, cycles), 0x5d5c9d761dcde6a4ULL);
  }
}

TEST(Trace, TunedMulticastHasSerialHoldsAndNoBlocks) {
  const auto topo = mesh::make_mesh2d(16);
  rt::MulticastRuntime rtm(rt::RuntimeConfig{});
  const auto placements = analysis::sample_placements(11, 256, 32, 3);
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    for (const auto& p : placements) {
      Traced t(*topo, engine);
      rtm.run_algorithm(t.sim, McastAlgorithm::kOptMesh, p.source, p.dests, 4096,
                        &topo->shape());
      t.audit.finalize(t.sim);
      const auto events = t.rec.snapshot();
      EXPECT_TRUE(of_kind(events, EventKind::kWait).empty());
      EXPECT_EQ(t.sim.stats().channel_conflicts, 0);
      EXPECT_EQ(off_path(*topo, t.sim.messages(), events), "");
      // 31 messages, each holding path-length channels exactly once.
      long long expected = 0;
      for (const auto& m : t.sim.messages().all())
        expected += static_cast<long long>(sim::trace_path(*topo, m.src, m.dst).size());
      EXPECT_EQ(static_cast<long long>(of_kind(events, EventKind::kReserve).size()),
                expected);
      EXPECT_EQ(static_cast<long long>(of_kind(events, EventKind::kRelease).size()),
                expected);
    }
  }
}

TEST(Trace, BminAdaptivePathsSkipPathCheck) {
  const auto topo = bmin::make_bmin(32, bmin::UpPolicy::kAdaptive);
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    t.sim.post(mk(0, 31, 16));
    t.sim.post(mk(1, 30, 16));
    // Adaptive routing may diverge from the first-candidate path, so only
    // exclusivity applies: the chained auditor throws on an overlap.
    std::vector<TraceEvent> events;
    EXPECT_NO_THROW(events = t.run());
    EXPECT_EQ(t.sim.stats().messages_delivered, 2);
    EXPECT_EQ(of_kind(events, EventKind::kReserve).size(),
              of_kind(events, EventKind::kRelease).size());
  }
}

TEST(Trace, UtilizationRanksBusiestChannel) {
  const auto topo = mesh::make_mesh2d(4);
  const MeshShape& s = topo->shape();
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    // Three messages over the same column channel (0,0)->(0,1).
    t.sim.post(mk(s.node_at({0, 0}), s.node_at({0, 3}), 16, 0));
    t.sim.post(mk(s.node_at({0, 0}), s.node_at({0, 2}), 16, 200));
    t.sim.post(mk(s.node_at({0, 0}), s.node_at({0, 1}), 16, 400));
    std::vector<Time> busy(static_cast<size_t>(topo->num_channels()), 0);
    std::vector<int> holds(busy.size(), 0);
    for (const TraceEvent& ev : of_kind(t.run(), EventKind::kRelease)) {
      busy[static_cast<size_t>(topo->channel_id(ev.a, ev.b))] += ev.d;
      ++holds[static_cast<size_t>(topo->channel_id(ev.a, ev.b))];
    }
    const auto busiest =
        static_cast<sim::ChannelId>(std::ranges::max_element(busy) - busy.begin());
    EXPECT_EQ(holds[static_cast<size_t>(busiest)], 3);
    EXPECT_EQ(busiest,
              sim::trace_path(*topo, s.node_at({0, 0}), s.node_at({0, 1})).front());
    EXPECT_GE(std::ranges::count_if(holds, [](int h) { return h > 0; }), 3);
  }
}

TEST(Trace, CsvContainsHeaderAndRows) {
  // The recorder's tabular export is the Chrome trace-event writer: one
  // named track per channel and one complete ("X") span row per hold.
  const auto topo = mesh::make_mesh2d(4);
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    t.sim.post(mk(0, 5, 4));
    const auto events = t.run();
    std::ostringstream os;
    write_chrome_trace(os, events);
    const std::string json = os.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"router "), std::string::npos);
    long long spans = 0;
    for (size_t at = json.find("\"ph\":\"X\""); at != std::string::npos;
         at = json.find("\"ph\":\"X\"", at + 1))
      ++spans;
    EXPECT_EQ(spans, static_cast<long long>(of_kind(events, EventKind::kRelease).size()));
    EXPECT_EQ(spans, static_cast<long long>(sim::trace_path(*topo, 0, 5).size()));
  }
}

TEST(Trace, ClearResets) {
  const auto topo = mesh::make_mesh2d(4);
  for (const sim::EngineKind engine : kEngines) {
    SCOPED_TRACE(engine_name(engine));
    Traced t(*topo, engine);
    t.sim.post(mk(0, 5, 4));
    const auto first = t.run();
    EXPECT_FALSE(first.empty());
    t.rec.clear();
    EXPECT_TRUE(t.rec.snapshot().empty());
    EXPECT_EQ(t.rec.events_recorded(), 0u);
    // A cleared recorder records the next run from scratch: the same
    // message again gives the same spans.
    t.sim.post(mk(0, 5, 4, t.sim.now()));
    const auto releases = of_kind(t.run(), EventKind::kRelease);
    const auto before = of_kind(first, EventKind::kRelease);
    ASSERT_EQ(releases.size(), before.size());
    for (size_t i = 0; i < releases.size(); ++i) EXPECT_EQ(releases[i].d, before[i].d);
  }
}

}  // namespace
}  // namespace pcm::obs
