#include "verify/chaos.hpp"

#include <algorithm>
#include <memory>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/rng.hpp"
#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/chain.hpp"
#include "core/multicast_tree.hpp"
#include "harness/substream.hpp"
#include "harness/thread_pool.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm::verify {

namespace {

struct BuiltTopology {
  std::unique_ptr<sim::Topology> topo;
  const MeshShape* shape = nullptr;  ///< non-null for meshes
};

/// The chaos scenario space only spans meshes and BMINs (the paper's two
/// tuned architectures); kept independent of the CLI's richer factory so
/// pcm_cli can depend on pcm_verify without a cycle.
BuiltTopology build_topology(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon != std::string::npos) {
    const std::string kind = spec.substr(0, colon);
    const int param = std::stoi(spec.substr(colon + 1));
    if (kind == "mesh") {
      auto mesh = mesh::make_mesh2d(param);
      const MeshShape* shape = &mesh->shape();
      return {std::move(mesh), shape};
    }
    if (kind == "bmin") return {std::make_unique<bmin::BminTopology>(param), nullptr};
  }
  throw std::invalid_argument("chaos: unknown topology spec '" + spec + "'");
}

const char* cli_algorithm_name(McastAlgorithm a) {
  switch (a) {
    case McastAlgorithm::kOptMesh: return "opt-mesh";
    case McastAlgorithm::kUMesh: return "u-mesh";
    case McastAlgorithm::kOptMin: return "opt-min";
    case McastAlgorithm::kUMin: return "u-min";
    case McastAlgorithm::kOptTree: return "opt-tree";
    case McastAlgorithm::kBinomial: return "binomial";
    case McastAlgorithm::kSequential: return "sequential";
  }
  return "?";
}

std::string first_line(const std::string& text) {
  const std::size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

}  // namespace

std::vector<NodeId> shuffle_dests(std::vector<NodeId> dests, std::uint64_t seed) {
  analysis::Rng rng(seed);
  rng.shuffle(dests);
  return dests;
}

ChaosScenario make_scenario(std::uint64_t root_seed, int index) {
  analysis::Rng rng(
      harness::substream_seed(root_seed, static_cast<std::uint64_t>(index)));
  ChaosScenario s;
  s.index = index;
  static constexpr const char* kTopologies[] = {"mesh:4",  "mesh:8", "mesh:8",
                                                "mesh:16", "bmin:32", "bmin:64"};
  s.topology = kTopologies[rng.below(6)];
  const BuiltTopology t = build_topology(s.topology);
  const int n = t.topo->num_nodes();
  const bool is_mesh = t.shape != nullptr;

  const std::uint64_t pick = rng.below(10);
  if (is_mesh) {
    s.alg = pick < 5   ? McastAlgorithm::kOptMesh
            : pick < 8 ? McastAlgorithm::kUMesh
                       : McastAlgorithm::kOptTree;
  } else {
    s.alg = pick < 5   ? McastAlgorithm::kOptMin
            : pick < 8 ? McastAlgorithm::kUMin
                       : McastAlgorithm::kOptTree;
  }

  const int kmax = std::min(n, 32);
  const int k = 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(kmax - 1)));
  const analysis::Placement p = analysis::sample_placement(rng, n, k);
  s.source = p.source;
  s.dests = p.dests;
  static constexpr Bytes kSizes[] = {64, 512, 1024, 4096};
  s.bytes = kSizes[rng.below(4)];

  // Fault composition: node fail-stops among the destinations (never the
  // source — one-shot runs have no source failover; streaming succession
  // lives in make_stream_scenario), link cuts anywhere
  // (some restored), and per-hop / per-delivery rates.  Roughly 1/12 of
  // scenarios end up fault-free, exercising the plain-run audit path.
  sim::FaultPlan& plan = s.plan;
  if (rng.below(100) < 60) {
    const int kills = 1 + (rng.below(100) < 30 ? 1 : 0);
    for (int i = 0; i < kills; ++i) {
      const NodeId victim = s.dests[rng.below(s.dests.size())];
      plan.node_events.push_back(
          {static_cast<Time>(50 + rng.below(4000)), victim});
    }
  }
  if (rng.below(100) < 40) {
    const int cuts = 1 + (rng.below(100) < 30 ? 1 : 0);
    for (int i = 0; i < cuts; ++i) {
      const int router = static_cast<int>(rng.below(t.topo->num_routers()));
      const int port = static_cast<int>(rng.below(t.topo->radix()));
      const Time down = static_cast<Time>(50 + rng.below(3000));
      plan.link_events.push_back({down, router, port, false});
      if (rng.below(100) < 50)
        plan.link_events.push_back(
            {down + 200 + static_cast<Time>(rng.below(2000)), router, port, true});
    }
  }
  if (rng.below(100) < 50) plan.drop_rate = 0.002 + rng.uniform() * 0.03;
  if (rng.below(100) < 30) plan.corrupt_rate = 0.002 + rng.uniform() * 0.05;
  if (!plan.empty()) plan.seed = rng.next() >> 1;
  return s;
}

ForestScenario make_forest_scenario(std::uint64_t root_seed, int index) {
  analysis::Rng rng(harness::substream_seed(root_seed ^ 0x464f524553542121ULL,
                                            static_cast<std::uint64_t>(index)));
  ForestScenario s;
  s.index = index;
  static constexpr const char* kTopologies[] = {"mesh:4",  "mesh:8", "mesh:8",
                                                "mesh:16", "bmin:32", "bmin:64"};
  s.topology = kTopologies[rng.below(6)];
  const BuiltTopology t = build_topology(s.topology);
  const int n = t.topo->num_nodes();
  const bool is_mesh = t.shape != nullptr;

  const int trees = 2 + static_cast<int>(rng.below(3));
  static constexpr Bytes kSizes[] = {64, 512, 1024, 4096};
  for (int g = 0; g < trees; ++g) {
    ForestScenarioGroup grp;
    // Mostly the Theorem-guaranteed algorithms: their trees are clean in
    // isolation, so any forest diagnostic is genuinely cross-tree (or
    // CPU-sharing induced) — the interesting verdicts to differential-test.
    const std::uint64_t pick = rng.below(10);
    if (is_mesh) {
      grp.alg = pick < 5   ? McastAlgorithm::kOptMesh
                : pick < 8 ? McastAlgorithm::kUMesh
                           : McastAlgorithm::kOptTree;
    } else {
      grp.alg = pick < 5   ? McastAlgorithm::kOptMin
                : pick < 8 ? McastAlgorithm::kUMin
                           : McastAlgorithm::kOptTree;
    }
    const int kmax = std::min(n, 16);
    const int k =
        2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(kmax - 1)));
    const analysis::Placement p = analysis::sample_placement(rng, n, k);
    grp.source = p.source;
    grp.dests = p.dests;
    grp.bytes = kSizes[rng.below(4)];
    grp.start = rng.below(100) < 50 ? 0 : static_cast<Time>(rng.below(6000));
    s.groups.push_back(std::move(grp));
  }
  return s;
}

ChaosScenario make_stream_scenario(std::uint64_t root_seed, int index) {
  analysis::Rng rng(harness::substream_seed(root_seed ^ 0x5357524d5354524dULL,
                                            static_cast<std::uint64_t>(index)));
  ChaosScenario s;
  s.index = index;
  static constexpr const char* kTopologies[] = {"mesh:4", "mesh:8", "mesh:8",
                                                "bmin:32"};
  s.topology = kTopologies[rng.below(4)];
  const BuiltTopology t = build_topology(s.topology);
  const int n = t.topo->num_nodes();
  const bool is_mesh = t.shape != nullptr;

  const std::uint64_t pick = rng.below(10);
  if (is_mesh) {
    s.alg = pick < 6 ? McastAlgorithm::kOptMesh : McastAlgorithm::kUMesh;
  } else {
    s.alg = pick < 6 ? McastAlgorithm::kOptMin : McastAlgorithm::kUMin;
  }

  const int kmax = std::min(n, 12);
  const int k = 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(kmax - 1)));
  const analysis::Placement p = analysis::sample_placement(rng, n, k);
  s.source = p.source;
  s.dests = p.dests;
  static constexpr Bytes kSizes[] = {64, 256, 1024};
  s.bytes = kSizes[rng.below(3)];
  s.stream_len = 8 + static_cast<int>(rng.below(41));  // 8..48 slots
  static constexpr int kWindows[] = {1, 2, 4, 8};
  s.stream_window = kWindows[rng.below(4)];

  // Membership families (~1/3 of scenarios): the lease detector rides on
  // the stream.  Source kills exercise failover succession; mesh cuts
  // from FaultPlan::partition exercise eviction, heal, and rejoin.  The
  // remaining scenarios keep the legacy mid-stream composition: node
  // kills while the window is in flight and modest loss rates so retry
  // ladders terminate well inside the deadline budget; ~1/5 of those stay
  // fault-free, exercising both the fast path's audit and the reliable
  // path's healthy schedule.
  sim::FaultPlan& plan = s.plan;
  const std::uint64_t family = rng.below(100);
  if (family < 20) {
    // Source fail-stop mid-stream: the survivor with the deepest
    // committed prefix (ties by node id) resumes the stream.
    s.heartbeat = 300 + static_cast<Time>(rng.below(1201));
    s.failover = true;
    s.rejoin = rng.below(100) < 50;
    plan.node_events.push_back(
        {static_cast<Time>(500 + rng.below(8000)), s.source});
    if (rng.below(100) < 30) plan.drop_rate = 0.001 + rng.uniform() * 0.005;
  } else if (family < 35 && is_mesh) {
    // Partition-then-heal: cut the mesh into node-id halves long enough
    // for the confirm ladder to evict the far side (sometimes short
    // enough to heal first), then re-admit the survivors via rejoin.
    s.heartbeat = 300 + static_cast<Time>(rng.below(1201));
    s.rejoin = true;
    s.failover = rng.below(100) < 50;
    std::vector<NodeId> lo, hi;
    for (NodeId v = 0; v < n; ++v) (v < n / 2 ? lo : hi).push_back(v);
    const Time down = static_cast<Time>(400 + rng.below(4000));
    const Time span = s.heartbeat * static_cast<Time>(3 + rng.below(6));
    s.plan = sim::FaultPlan::partition(*t.topo, lo, hi, down, down + span);
  } else {
    if (rng.below(100) < 55) {
      const int kills = 1 + (rng.below(100) < 25 ? 1 : 0);
      for (int i = 0; i < kills; ++i) {
        const NodeId victim = s.dests[rng.below(s.dests.size())];
        plan.node_events.push_back(
            {static_cast<Time>(100 + rng.below(20000)), victim});
      }
    }
    if (rng.below(100) < 35) plan.drop_rate = 0.001 + rng.uniform() * 0.008;
    if (rng.below(100) < 25) plan.corrupt_rate = 0.001 + rng.uniform() * 0.01;
  }
  if (!plan.empty()) plan.seed = rng.next() >> 1;
  return s;
}

namespace {

/// Streaming scenarios run through StreamRuntime, audited both at the
/// channel level (InvariantAuditor observer) and at the protocol level
/// (audit_stream over the run's flight-recorder trace).
ScenarioOutcome run_stream_scenario(const ChaosScenario& s) {
  const BuiltTopology t = build_topology(s.topology);
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const rt::StreamRuntime srt(rtm);

  sim::Simulator sim(*t.topo);
  AuditConfig acfg;
  // Theorems 1-2 cover one tree at a time: with window > 1 consecutive
  // slots legally share channels, so strict contention-freedom is only
  // demanded for fault-free stop-and-wait streams.
  acfg.require_contention_free =
      guarantees_contention_free(s.alg) && s.plan.empty() && s.stream_window == 1;
  acfg.plan_known = !s.plan.empty();
  acfg.plan = s.plan;
  InvariantAuditor auditor(*t.topo, acfg);
  sim.set_observer(&auditor);
  if (!s.plan.empty()) sim.set_fault_plan(s.plan);

  rt::StreamConfig scfg;
  scfg.window_size = s.stream_window;
  scfg.slots = s.stream_len;
  scfg.bytes = s.bytes;
  scfg.alg = s.alg;
  scfg.shape = t.shape;
  scfg.reliable = !s.plan.empty() || s.heartbeat > 0;
  scfg.ft.max_retries = s.max_retries;
  // Detached from the simulator: records the protocol events only.
  obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
  scfg.recorder = &rec;
  scfg.membership.heartbeat_period = s.heartbeat;
  scfg.failover = s.failover;
  scfg.rejoin = s.rejoin;
  // Theorem 1 is re-checked statically on every tree the stream adopts:
  // epoch rebuilds re-split the chain, and a guaranteed algorithm must
  // stay contention-free over any sorted sub-chain (pcmlint proves it
  // without simulating a flit).
  if (guarantees_contention_free(s.alg)) {
    scfg.on_reconfigure = [&](const MulticastTree& tree) {
      lint::LintOptions lopts;
      lopts.max_diagnostics = 1;
      lopts.keep_schedule = false;
      const lint::LintReport lr = lint::lint_tree(
          tree, *t.topo, rtm.config(), sim::SimConfig{}, s.bytes, lopts);
      if (!lr.clean())
        throw InvariantViolation(
            Invariant::kContentionFreedom,
            "pcmlint rejects an epoch tree: " +
                first_line(lr.describe(tree, *t.topo)));
    };
  }

  ScenarioOutcome out;
  try {
    const rt::StreamResult r = srt.run(sim, s.source, s.dests, scfg);
    out.delivered = r.delivered_fraction;
    out.retries = r.retries;
    out.epochs = r.epoch;
    out.stale_acks = r.stale_acks;
    out.failovers = r.failovers;
    out.rejoins = r.rejoins;
    auditor.finalize(sim);
    InvariantAuditor::audit_stream(r, rec.snapshot(), rec.events_dropped());
  } catch (const sim::WatchdogError& e) {
    out.violated = true;
    out.watchdog = true;
    out.violation = first_line(e.what());
  } catch (const InvariantViolation& e) {
    out.violated = true;
    out.violation = e.what();
  }
  out.dropped = sim.stats().messages_dropped;
  return out;
}

}  // namespace

ScenarioOutcome run_scenario(const ChaosScenario& s) {
  if (s.stream_len > 0) return run_stream_scenario(s);
  const BuiltTopology t = build_topology(s.topology);
  // Same runtime defaults as pcmcast, so repro_command replays bit-exactly.
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(s.bytes, 1));

  MulticastTree tree;
  if (s.shuffle_chain) {
    // The split rule of `alg` over the *unsorted* (shuffled caller-order)
    // chain: exactly what --shuffle-chain does in the CLI.
    const std::vector<NodeId> dests = shuffle_dests(s.dests, s.shuffle_seed);
    const Chain chain = make_chain(s.source, dests, ChainOrder::kAsGiven);
    tree = build_chain_split_tree(chain, split_table_for(s.alg, tp, chain.size()));
  } else {
    tree = build_multicast(s.alg, s.source, s.dests, tp, t.shape);
  }

  sim::Simulator sim(*t.topo);
  AuditConfig acfg;
  // Theorems 1-2 cover the healthy schedule only: a retransmission to a
  // receiver whose own forwards are in flight shares that receiver's
  // sub-network, so under faults head-blocking is legal.
  acfg.require_contention_free = guarantees_contention_free(s.alg) && s.plan.empty();
  acfg.plan_known = !s.plan.empty();
  acfg.plan = s.plan;
  InvariantAuditor auditor(*t.topo, acfg);
  sim.set_observer(&auditor);
  if (!s.plan.empty()) sim.set_fault_plan(s.plan);

  ScenarioOutcome out;
  try {
    if (s.plan.empty()) {
      (void)rtm.run(sim, tree, s.bytes);
      auditor.finalize(sim);
    } else {
      rt::FtConfig ft;
      ft.max_retries = s.max_retries;
      obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
      ft.recorder = &rec;
      const rt::McastResult r = rtm.run_reliable(sim, tree, s.bytes, ft);
      out.delivered = r.delivered_fraction;
      out.retries = r.retries;
      out.repairs = r.repairs;
      auditor.finalize(sim);
      InvariantAuditor::audit_result(r, rec.snapshot(), rec.events_dropped());
    }
  } catch (const sim::WatchdogError& e) {
    out.violated = true;
    out.watchdog = true;
    out.violation = first_line(e.what());
  } catch (const InvariantViolation& e) {
    out.violated = true;
    out.violation = e.what();
  }
  out.dropped = sim.stats().messages_dropped;
  return out;
}

MinimizeResult minimize(const ChaosScenario& s) {
  MinimizeResult mr;
  mr.scenario = s;
  auto attempt = [&mr](const ChaosScenario& c) {
    ++mr.runs;
    return run_scenario(c);
  };
  const ScenarioOutcome base = attempt(mr.scenario);
  if (!base.violated)
    throw std::invalid_argument("minimize: scenario does not violate");
  mr.violation = base.violation;

  // Greedy one-at-a-time removal to a fixpoint: cheap, deterministic, and
  // ample for the handful-of-events plans the generator produces.
  auto accept = [&](ChaosScenario&& c, const ScenarioOutcome& o) {
    mr.scenario = std::move(c);
    mr.violation = o.violation;
    ++mr.removed;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = mr.scenario.plan.node_events.size(); i-- > 0;) {
      ChaosScenario c = mr.scenario;
      c.plan.node_events.erase(c.plan.node_events.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    for (std::size_t i = mr.scenario.plan.link_events.size(); i-- > 0;) {
      ChaosScenario c = mr.scenario;
      c.plan.link_events.erase(c.plan.link_events.begin() +
                               static_cast<std::ptrdiff_t>(i));
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    for (std::size_t i = mr.scenario.plan.cut_events.size(); i-- > 0;) {
      ChaosScenario c = mr.scenario;
      c.plan.cut_events.erase(c.plan.cut_events.begin() +
                              static_cast<std::ptrdiff_t>(i));
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    // Membership off is one move: heartbeat, failover, and rejoin stand
    // or fall together (the flags are invalid without a cadence).
    if (mr.scenario.heartbeat > 0) {
      ChaosScenario c = mr.scenario;
      c.heartbeat = 0;
      c.failover = false;
      c.rejoin = false;
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    if (mr.scenario.plan.drop_rate > 0) {
      ChaosScenario c = mr.scenario;
      c.plan.drop_rate = 0;
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    if (mr.scenario.plan.corrupt_rate > 0) {
      ChaosScenario c = mr.scenario;
      c.plan.corrupt_rate = 0;
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    for (std::size_t i = mr.scenario.dests.size(); i-- > 0;) {
      if (mr.scenario.dests.size() <= 1) break;
      ChaosScenario c = mr.scenario;
      c.dests.erase(c.dests.begin() + static_cast<std::ptrdiff_t>(i));
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
    // Streaming scenarios also shrink along the stream axis: shorter
    // streams and a window of 1 make one-line reproducers far cheaper.
    for (const int cand : {1, mr.scenario.stream_len / 2}) {
      if (cand < 1 || cand >= mr.scenario.stream_len) continue;
      ChaosScenario c = mr.scenario;
      c.stream_len = cand;
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
        break;
      }
    }
    if (mr.scenario.stream_window > 1) {
      ChaosScenario c = mr.scenario;
      c.stream_window = 1;
      if (const ScenarioOutcome o = attempt(c); o.violated) {
        accept(std::move(c), o);
        changed = true;
      }
    }
  }
  return mr;
}

std::string repro_command(const ChaosScenario& s) {
  std::ostringstream os;
  os << "pcmcast --topology " << s.topology << " --algorithm "
     << cli_algorithm_name(s.alg) << " --source " << s.source << " --dests ";
  for (std::size_t i = 0; i < s.dests.size(); ++i)
    os << (i ? "," : "") << s.dests[i];
  os << " --bytes " << s.bytes << " --max-retries " << s.max_retries;
  if (s.stream_len > 0)
    os << " --stream " << s.stream_len << " --window " << s.stream_window;
  if (s.heartbeat > 0) os << " --heartbeat " << s.heartbeat;
  if (s.failover) os << " --failover";
  if (s.rejoin) os << " --rejoin";
  if (s.shuffle_chain) os << " --shuffle-chain --seed " << s.shuffle_seed;
  if (!s.plan.empty()) os << " --faults \"" << s.plan.to_spec() << '"';
  os << " --audit";
  return os.str();
}

ChaosReport run_chaos(const ChaosConfig& cfg, std::ostream* log) {
  if (cfg.scenarios < 0) throw std::invalid_argument("chaos: scenarios must be >= 0");
  ChaosReport rep;
  rep.scenarios = cfg.scenarios;
  std::vector<ScenarioOutcome> outcomes(static_cast<std::size_t>(cfg.scenarios));
  auto generate = [&cfg](int i) {
    return cfg.streaming ? make_stream_scenario(cfg.seed, i)
                         : make_scenario(cfg.seed, i);
  };
  harness::ThreadPool pool(cfg.jobs);
  pool.parallel_for(outcomes.size(), [&](std::size_t i) {
    outcomes[i] = run_scenario(generate(static_cast<int>(i)));
  });

  double delivered_sum = 0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const ScenarioOutcome& o = outcomes[i];
    delivered_sum += o.delivered;
    rep.retries += o.retries;
    rep.repairs += o.repairs;
    rep.dropped += o.dropped;
    rep.epochs += o.epochs;
    rep.stale_acks += o.stale_acks;
    rep.failovers += o.failovers;
    rep.rejoins += o.rejoins;
    if (o.violated) {
      ++rep.violations;
      rep.watchdogs += o.watchdog ? 1 : 0;
      rep.violating_indices.push_back(static_cast<int>(i));
      if (log != nullptr)
        *log << "chaos: scenario " << i << " VIOLATION: " << o.violation << "\n";
    }
  }
  rep.mean_delivered =
      cfg.scenarios > 0 ? delivered_sum / cfg.scenarios : 1.0;

  const int to_minimize =
      std::min<int>(cfg.max_minimized, static_cast<int>(rep.violating_indices.size()));
  for (int v = 0; v < to_minimize; ++v) {
    const int idx = rep.violating_indices[static_cast<std::size_t>(v)];
    MinimizeResult mr = minimize(generate(idx));
    if (log != nullptr)
      *log << "chaos: scenario " << idx << " minimized (" << mr.runs << " runs, "
           << mr.removed << " removed): " << mr.violation << "\n"
           << "  repro: " << repro_command(mr.scenario) << "\n";
    rep.minimized.push_back(std::move(mr));
  }
  return rep;
}

}  // namespace pcm::verify
