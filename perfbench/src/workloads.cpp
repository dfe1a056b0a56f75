#include "workloads.hpp"

#include <cmath>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <sstream>
#include <type_traits>
#include <utility>

#include "analysis/sampling.hpp"
#include "bmin/bmin_topology.hpp"
#include "core/algorithms.hpp"
#include "core/opt_tree.hpp"
#include "harness/harness.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/export.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace perfbench {
namespace {

using namespace pcm;
using analysis::Placement;

/// FNV-1a over the little-endian bytes of each value (doubles by bits).
class Fnv {
 public:
  template <class T>
  void add(T v) {
    std::uint64_t u = 0;
    if constexpr (std::is_floating_point_v<T>) {
      static_assert(sizeof(T) == sizeof u);
      std::memcpy(&u, &v, sizeof u);
    } else {
      u = static_cast<std::uint64_t>(v);
    }
    for (int b = 0; b < 8; ++b) {
      h_ ^= (u >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  template <class T>
  void add_all(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Runs `f` inside a span named `name` under the op in progress.
template <class F>
auto in_layer(Tracer* tr, const char* name, F&& f) {
  const Scope s(tr != nullptr ? &tr->log : nullptr, name,
                tr != nullptr ? tr->op_span : -1, tr != nullptr ? tr->op : -1);
  return f();
}

/// Counts the simulator's clock jumps.  Benchmark-owned: the engines do
/// not export how many cycles they skipped.
class FastForwardCounter final : public sim::SimObserver {
 public:
  void on_reserve(int, int, sim::MsgId, Time) override {}
  void on_release(int, int, sim::MsgId, Time) override {}
  void on_blocked(int, int, sim::MsgId, Time) override {}
  void on_fast_forward(Time from, Time to) override {
    ++jumps;
    cycles += to - from;
  }

  long long jumps = 0;
  long long cycles = 0;
};

/// The traced mode's per-run observers: a flight recorder chained to the
/// fast-forward counter.  Does nothing without a tracer.  Must outlive
/// the Simulator it is attached to.
class RunProbe {
 public:
  explicit RunProbe(Tracer* tr) : tr_(tr) {
    if (tr_ == nullptr) return;
    rec_ = std::make_unique<obs::FlightRecorder>(
        obs::RecorderConfig{obs::kRunRingCapacity});
    rec_->chain(&ff_);
  }

  void attach(sim::Simulator& sim) {
    if (rec_) sim.set_observer(rec_.get());
  }
  [[nodiscard]] obs::FlightRecorder* recorder() { return rec_.get(); }

  /// Exports the ring to memory and adds the run's counters.
  void finish(const sim::Simulator& sim, long long messages) {
    if (tr_ == nullptr) return;
    in_layer(tr_, "obs.export", [&] {
      std::ostringstream os;
      obs::write_binary_trace(os, rec_->snapshot(), rec_->events_dropped());
      return os.tellp();
    });
    const sim::SimStats& st = sim.stats();
    tr_->sim_messages += messages;
    tr_->sim_flit_hops += st.flit_hops;
    tr_->sim_cycles += st.cycles;
    tr_->sim_conflicts += st.channel_conflicts;
    tr_->sim_ff_jumps += ff_.jumps;
    tr_->sim_ff_cycles += ff_.cycles;
    tr_->obs_events += static_cast<long long>(rec_->events_recorded());
    tr_->obs_dropped += static_cast<long long>(rec_->events_dropped());
  }

 private:
  Tracer* tr_;
  FastForwardCounter ff_;
  std::unique_ptr<obs::FlightRecorder> rec_;
};

/// Every op runs on a fresh Simulator with the event engine requested,
/// so simulator-kernel work shows wherever the program can use it.
sim::SimConfig event_engine() {
  sim::SimConfig c;
  c.engine = sim::EngineKind::kEvent;
  return c;
}

/// The algorithms Theorems 1-2 (and the U-* constructions) make
/// contention-free on their own topology.
bool guaranteed(McastAlgorithm a) {
  return a == McastAlgorithm::kOptMesh || a == McastAlgorithm::kUMesh ||
         a == McastAlgorithm::kOptMin || a == McastAlgorithm::kUMin;
}

std::string describe(const Placement& p) {
  std::string s = "source " + std::to_string(p.source) + " dests ";
  for (std::size_t i = 0; i < p.dests.size(); ++i)
    s += (i == 0 ? "" : ",") + std::to_string(p.dests[i]);
  return s;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// A topology with the name reproducers print and, for meshes, its shape.
struct Fabric {
  std::unique_ptr<sim::Topology> topo;
  const MeshShape* shape = nullptr;
  std::string name;
};

Fabric mesh_fabric(int side) {
  auto m = mesh::make_mesh2d(side);
  const MeshShape* shape = &m->shape();
  return {std::move(m), shape, "mesh:" + std::to_string(side)};
}

Fabric bmin_fabric(int nodes) {
  return {bmin::make_bmin(nodes), nullptr, "bmin:" + std::to_string(nodes)};
}

// ---------------------------------------------------------------------------
// oneshot_paper: the paper's Section 5 grid.

struct McastOp {
  const Fabric* fab;
  McastAlgorithm alg;
  const Placement* place;
  Bytes bytes;
};

std::uint64_t digest(const rt::McastResult& r, const sim::SimStats& s) {
  Fnv h;
  h.add(r.latency);
  h.add(r.model_latency);
  h.add(r.channel_conflicts);
  h.add(r.block_cycles);
  h.add(r.messages);
  h.add_all(r.recv_complete);
  h.add(r.delivered_dests);
  h.add(r.delivered_fraction);
  h.add(r.complete);
  h.add(s.cycles);
  h.add(s.flit_hops);
  h.add(s.channel_conflicts);
  h.add(s.messages_delivered);
  h.add(s.max_inflight_flits);
  h.add(s.messages_dropped);
  h.add(s.undelivered);
  h.add(s.watchdog_fired);
  return h.value();
}

class OneshotPaper final : public Workload {
 public:
  OneshotPaper(std::uint64_t seed, Size size) {
    const bool smoke = size == Size::kSmoke;
    const int reps = smoke ? 2 : harness::kPaperReps;
    const Bytes max_bytes = smoke ? 8192 : 65536;
    const std::vector<int> ks =
        smoke ? std::vector<int>{4, 32}
              : std::vector<int>{4, 8, 16, 32, 64, 96, 128, 192, 256};

    // Each grid point draws its own placements (shared by the point's
    // three algorithms), so a run averages over many independent inputs.
    std::uint64_t point = 0;
    auto add_point = [&](const Fabric& f, std::initializer_list<McastAlgorithm> algs,
                         int k, Bytes b) {
      const std::vector<Placement>& ps = places_.emplace_back(analysis::sample_placements(
          harness::substream_seed(seed, point++), f.topo->num_nodes(), k, reps));
      for (const McastAlgorithm a : algs)
        for (const Placement& p : ps) ops_.push_back({&f, a, &p, b});
    };
    // Figure 2 and its BMIN analogue: 32 nodes, 0-64 KB in 8 KB steps.
    for (Bytes b = 0; b <= max_bytes; b += 8192) {
      add_point(mesh_, {McastAlgorithm::kUMesh, McastAlgorithm::kOptTree,
                        McastAlgorithm::kOptMesh}, 32, b);
      add_point(bmin_, {McastAlgorithm::kUMin, McastAlgorithm::kOptTree,
                        McastAlgorithm::kOptMin}, 32, b);
    }
    // Figure 3: 4 KB, k = 4..256 nodes on the mesh.
    for (const int k : ks)
      add_point(mesh_, {McastAlgorithm::kUMesh, McastAlgorithm::kOptTree,
                        McastAlgorithm::kOptMesh}, k, 4096);
    latency_.assign(ops_.size(), 0);
    model_err_.assign(ops_.size(), -1);
  }

  [[nodiscard]] std::size_t size() const override { return ops_.size(); }

  OpResult run(std::size_t i, Tracer* tr) override {
    const McastOp& op = ops_[i];
    const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(op.bytes, 1));
    tree_ = in_layer(tr, "core.build", [&] {
      return build_multicast(op.alg, op.place->source, op.place->dests, tp,
                             op.fab->shape);
    });
    RunProbe probe(tr);
    sim::Simulator sim(*op.fab->topo, event_engine());
    probe.attach(sim);
    res_ = in_layer(tr, "runtime.mcast", [&] { return rtm_.run(sim, tree_, op.bytes); });
    stats_ = sim.stats();
    if (tr != nullptr) {
      ++tr->core_builds;
      ++tr->runtime_mcasts;
    }
    probe.finish(sim, res_.messages);
    return {res_.messages, digest(res_, stats_)};
  }

  std::string check(std::size_t i) override {
    const McastOp& op = ops_[i];
    latency_[i] = static_cast<double>(res_.latency);
    if (guaranteed(op.alg) && res_.model_latency > 0)
      model_err_[i] = 100.0 * std::abs(static_cast<double>(res_.latency) /
                                           static_cast<double>(res_.model_latency) -
                                       1.0);
    if ((op.alg == McastAlgorithm::kOptMesh || op.alg == McastAlgorithm::kOptMin) &&
        res_.channel_conflicts != 0)
      return repro(i, std::to_string(res_.channel_conflicts) +
                          " channel conflicts on a Thm 1-2 tree");
    // A sample of runs (stride coprime with the 16 placements per point)
    // must match the cycle-driven reference engine exactly.
    if (i % 13 == 0) {
      sim::Simulator ref(*op.fab->topo, sim::SimConfig{});
      const rt::McastResult r = rtm_.run(ref, tree_, op.bytes);
      if (digest(r, ref.stats()) != digest(res_, stats_))
        return repro(i, "event-engine result differs from the cycle engine's");
    }
    return "";
  }

  [[nodiscard]] std::vector<Metric> simulated() const override {
    std::vector<double> errs;
    for (const double e : model_err_)
      if (e >= 0) errs.push_back(e);
    return {{"sim_latency_cycles", "cycles", mean(latency_)},
            {"model_err_pct", "%", mean(errs)}};
  }

 private:
  std::string repro(std::size_t i, const std::string& why) const {
    const McastOp& op = ops_[i];
    return "oneshot_paper op " + std::to_string(i) + ": " + op.fab->name + " " +
           std::string(algorithm_name(op.alg)) + " " + std::to_string(op.bytes) +
           " B " + describe(*op.place) + ": " + why;
  }

  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  Fabric mesh_ = mesh_fabric(16);
  Fabric bmin_ = bmin_fabric(128);
  std::deque<std::vector<Placement>> places_;  ///< stable addresses for ops_
  std::vector<McastOp> ops_;

  MulticastTree tree_;  ///< outputs of the op run last, for check()
  rt::McastResult res_;
  sim::SimStats stats_;
  std::vector<double> latency_;
  std::vector<double> model_err_;  ///< -1 where the algorithm is not guaranteed
};

// ---------------------------------------------------------------------------
// Streams: stream_reliable, stream_clean and the stall reproducer.

constexpr Bytes kSlotBytes = 64;
constexpr int kGroup = 16;

struct StreamOp {
  const Fabric* fab;
  McastAlgorithm alg;
  const Placement* place;
  int window = 1;
  int slots = 0;
  sim::FaultPlan plan;  ///< empty on fault-free streams
  Time heartbeat = 0;   ///< > 0: membership with failover and rejoin
};

std::uint64_t digest(const rt::StreamResult& r) {
  Fnv h;
  h.add(r.committed);
  h.add(r.makespan);
  h.add(r.model_slot_latency);
  h.add(r.messages);
  h.add(r.channel_conflicts);
  h.add(r.flit_hops);
  h.add(r.sim_cycles);
  h.add(r.epoch);
  h.add(r.retries);
  h.add(r.stale_acks);
  h.add(r.duplicate_deliveries);
  h.add(r.max_window_occupancy);
  h.add(r.failovers);
  h.add(r.rejoins);
  h.add(r.suspects);
  h.add_all(r.dead_nodes);
  h.add_all(r.unreachable_nodes);
  h.add_all(r.delivered_prefix);
  h.add_all(r.commit_time);
  h.add(r.complete);
  h.add(r.delivered_fraction);
  return h.value();
}

class Streams final : public Workload {
 public:
  /// `name` labels reproducers; `reliable_metrics` adds delivered_fraction.
  Streams(std::string name, bool reliable_metrics)
      : name_(std::move(name)), reliable_metrics_(reliable_metrics) {}

  // Inputs, filled by the factories below before the first run.
  Fabric mesh16 = mesh_fabric(16);
  Fabric bmin64 = bmin_fabric(64);
  std::deque<std::vector<Placement>> places;  ///< stable addresses for ops
  std::vector<StreamOp> ops;

  /// Contention-free one-slot latency of a 16-node group, the time scale
  /// the fault plans are placed on (as in bench_stream/bench_recovery).
  [[nodiscard]] Time slot_model() const {
    const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(kSlotBytes, 1));
    return opt_split_table(tp.t_hold, tp.t_end, kGroup).latency(kGroup);
  }

  void finalize() {
    interval_.assign(ops.size(), 0);
    delivered_.assign(ops.size(), 0);
  }

  [[nodiscard]] std::size_t size() const override { return ops.size(); }

  OpResult run(std::size_t i, Tracer* tr) override {
    const StreamOp& op = ops[i];
    RunProbe probe(tr);
    sim::Simulator sim(*op.fab->topo, event_engine());
    if (!op.plan.empty()) sim.set_fault_plan(op.plan);
    probe.attach(sim);
    rt::StreamConfig scfg = config(op);
    scfg.recorder = probe.recorder();
    res_ = in_layer(tr, "runtime.stream", [&] {
      return srt_.run(sim, op.place->source, op.place->dests, scfg);
    });
    if (tr != nullptr) {
      ++tr->runtime_streams;
      tr->runtime_slots += res_.committed;
      tr->runtime_retries += res_.retries;
      tr->runtime_stale_acks += res_.stale_acks;
      tr->runtime_epochs += res_.epoch;
      tr->runtime_failovers += res_.failovers;
    }
    probe.finish(sim, res_.messages);
    return {res_.messages, digest(res_)};
  }

  std::string check(std::size_t i) override {
    const StreamOp& op = ops[i];
    if (res_.committed > 0)
      interval_[i] = static_cast<double>(res_.makespan) / res_.committed;
    delivered_[i] = res_.delivered_fraction;
    if (res_.committed != op.slots) {
      std::ostringstream why;
      why << "committed " << res_.committed << "/" << op.slots
          << " slots, delivered_fraction " << res_.delivered_fraction;
      return repro(i, why.str());
    }
    if (op.plan.empty() && op.heartbeat == 0) {
      // E22: the static analyzer replays the fault-free pipeline exactly.
      const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(kSlotBytes, 1));
      const MulticastTree tree = build_multicast(op.alg, op.place->source,
                                                 op.place->dests, tp, op.fab->shape);
      const lint::StreamLintReport st =
          lint::lint_stream(tree, *op.fab->topo, cfg_, event_engine(), kSlotBytes,
                            op.slots, op.window);
      if (st.commit_time != res_.commit_time)
        return repro(i, "commit_time differs from lint_stream's");
    }
    return "";
  }

  [[nodiscard]] std::vector<Metric> simulated() const override {
    std::vector<Metric> out = {
        {"sim_slot_interval_cycles", "cycles", mean(interval_)}};
    if (reliable_metrics_)
      out.push_back({"delivered_fraction", "ratio", mean(delivered_)});
    return out;
  }

 private:
  [[nodiscard]] rt::StreamConfig config(const StreamOp& op) const {
    rt::StreamConfig c;
    c.window_size = op.window;
    c.slots = op.slots;
    c.bytes = kSlotBytes;
    c.alg = op.alg;
    c.shape = op.fab->shape;
    c.reliable = !op.plan.empty() || op.heartbeat > 0;
    c.membership.heartbeat_period = op.heartbeat;
    c.failover = op.heartbeat > 0;
    c.rejoin = op.heartbeat > 0;
    return c;
  }

  [[nodiscard]] std::string repro(std::size_t i, const std::string& why) const {
    const StreamOp& op = ops[i];
    std::ostringstream os;
    os << name_ << " op " << i << ": " << op.fab->name << " "
       << algorithm_name(op.alg) << " window " << op.window << " slots "
       << op.slots << " " << describe(*op.place);
    if (!op.plan.empty()) {
      // to_spec() prints the seed in decimal; pcmcast --faults reads it as
      // a signed 64-bit integer, so seeds >= 2^63 do not round-trip there.
      os << " faults \"" << op.plan.to_spec() << "\" raw_seed 0x" << std::hex
         << op.plan.seed << std::dec;
      if (op.plan.seed >> 63 != 0) os << " (>= 2^63: pcmcast --faults rejects it)";
    }
    if (op.heartbeat > 0) os << " heartbeat " << op.heartbeat << " failover rejoin";
    os << ": " << why;
    return os.str();
  }

  std::string name_;
  bool reliable_metrics_;
  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  rt::StreamRuntime srt_{rtm_};
  rt::StreamResult res_;
  std::vector<double> interval_;
  std::vector<double> delivered_;
};

/// One cell of E19's fault sweep (bench_stream): reliable 16-node streams
/// on the 16x16 mesh with two mid-stream receiver kills plus a 1e-3 drop
/// rate; `heartbeat` > 0 adds the lease detector.  `idx` numbers the
/// streams for their fault seeds.
void add_e19_cell(Streams& w, McastAlgorithm alg, int window,
                  const std::vector<Placement>& places, int slots, Time heartbeat,
                  std::uint64_t seed, std::uint64_t& idx) {
  const Time span = w.slot_model() * slots;
  for (const Placement& p : places) {
    StreamOp op{&w.mesh16, alg, &p, window, slots, {}, heartbeat};
    op.plan.node_events.push_back({span / 3, p.dests.front()});
    op.plan.node_events.push_back({2 * span / 3, p.dests.back()});
    op.plan.drop_rate = 1e-3;
    op.plan.seed = harness::substream_seed(seed ^ 0x57f0U, idx++);
    w.ops.push_back(std::move(op));
  }
}

std::unique_ptr<Workload> stream_reliable(std::uint64_t seed, Size size) {
  const bool smoke = size == Size::kSmoke;
  auto w = std::make_unique<Streams>("stream_reliable", true);
  const int slots = smoke ? 100 : 300;
  const int reps = smoke ? 1 : 10;
  // Every cell draws its own placements, so a run averages over many
  // independent inputs.
  std::uint64_t cell = 0;
  auto draw = [&](int n) -> const std::vector<Placement>& {
    return w->places.emplace_back(analysis::sample_placements(
        harness::substream_seed(seed ^ 0x2e11U, cell++), w->mesh16.topo->num_nodes(),
        kGroup, n));
  };
  // The lease detector runs alongside the retry ladder: without it a
  // killed receiver can go undeclared and stall the stream (see
  // stall_repro), and a benchmark input must not fail.
  std::uint64_t idx = 0;
  for (const McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh})
    for (const int window : {1, 8})
      add_e19_cell(*w, alg, window, draw(reps), slots, 800, seed, idx);
  // E20 (bench_recovery): the source dies a third of the way through a
  // window-8 OPT-Mesh stream; the lease detector, failover and rejoin
  // recover it.
  const Time t_kill = w->slot_model() * slots / 3;
  for (const Time hb : {Time{400}, Time{800}, Time{1600}})
    for (const Placement& p : draw(smoke ? 1 : 4)) {
      StreamOp op{&w->mesh16, McastAlgorithm::kOptMesh, &p, 8, slots, {}, hb};
      op.plan.node_events.push_back({t_kill, p.source});
      w->ops.push_back(std::move(op));
    }
  w->finalize();
  return w;
}

/// The reliable stream known to stall at seed 1997: case 11 of E19 as
/// bench_stream enumerates it at 4 placements and windows {1, 8} (U-Mesh,
/// window 1, placement 3).  It stops at 1209 of 2000 slots because the
/// second killed receiver is never declared dead.
std::unique_ptr<Workload> stall_repro(std::uint64_t seed) {
  auto w = std::make_unique<Streams>("stall_repro", true);
  const std::vector<Placement>& places = w->places.emplace_back(
      analysis::sample_placements(seed, w->mesh16.topo->num_nodes(), kGroup, 4));
  std::uint64_t idx = 0;
  for (const McastAlgorithm alg : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh})
    for (const int window : {1, 8})
      add_e19_cell(*w, alg, window, places, 2000, 0, seed, idx);
  StreamOp op = std::move(w->ops[11]);
  w->ops.assign(1, std::move(op));
  w->finalize();
  return w;
}

/// One stream_clean cell; lint_static certifies the same cells.
struct CleanCell {
  bool bmin;  ///< 64-node BMIN, else the 16x16 mesh
  McastAlgorithm alg;
  int window;
  std::vector<Placement> places;
};

constexpr int kCleanSlots = 2000;
constexpr int kCleanSmokeSlots = 400;

std::vector<CleanCell> clean_cells(std::uint64_t seed, Size size) {
  const int reps = size == Size::kSmoke ? 1 : 8;
  std::vector<CleanCell> cells;
  std::uint64_t idx = 0;
  for (const int window : {1, 8})
    for (const auto& [bmin, alg] :
         {std::pair{false, McastAlgorithm::kOptMesh}, std::pair{false, McastAlgorithm::kUMesh},
          std::pair{true, McastAlgorithm::kOptMin}, std::pair{true, McastAlgorithm::kUMin}})
      cells.push_back({bmin, alg, window,
                       analysis::sample_placements(
                           harness::substream_seed(seed ^ 0xc1eaU, idx++),
                           bmin ? 64 : 256, kGroup, reps)});
  return cells;
}

std::unique_ptr<Workload> stream_clean(std::uint64_t seed, Size size) {
  auto w = std::make_unique<Streams>("stream_clean", false);
  const int slots = size == Size::kSmoke ? kCleanSmokeSlots : kCleanSlots;
  for (CleanCell& c : clean_cells(seed, size)) {
    const Fabric* fab = c.bmin ? &w->bmin64 : &w->mesh16;
    for (const Placement& p : w->places.emplace_back(std::move(c.places)))
      w->ops.push_back({fab, c.alg, &p, c.window, slots, {}, 0});
  }
  w->finalize();
  return w;
}

// ---------------------------------------------------------------------------
// lint_static: static certification only, no simulator.

struct LintOp {
  enum class Kind { kTree, kForest, kStream };
  Kind kind;
  const Fabric* fab;
  McastAlgorithm alg;                           ///< tree / stream
  const Placement* place = nullptr;             ///< tree / stream
  const std::vector<Placement>* groups = nullptr;  ///< forest
  Bytes bytes = 0;
  int window = 0;  ///< stream
  int slots = 0;   ///< stream
};

template <class Diags>
void add_diagnostics(Fnv& h, const Diags& diags) {
  h.add(diags.size());
  for (const auto& d : diags) {
    h.add(static_cast<int>(d.kind));
    h.add(d.send_a);
    h.add(d.send_b);
    h.add(d.channel);
    h.add(d.overlap_begin);
    h.add(d.overlap_end);
  }
}

class LintStatic final : public Workload {
 public:
  LintStatic(std::uint64_t seed, Size size) {
    const bool smoke = size == Size::kSmoke;
    // Trees: the oneshot_paper algorithms scaled to the 64x64 mesh and the
    // 4096-port BMIN.
    const std::vector<int> ks = smoke ? std::vector<int>{64}
                                      : std::vector<int>{64, 256, 1024};
    const int tree_reps = smoke ? 1 : 8;
    for (const int k : ks) {
      tree_place_.push_back(analysis::sample_placements(
          seed + static_cast<std::uint64_t>(k), 4096, k, tree_reps));
    }
    for (const std::vector<Placement>& ps : tree_place_) {
      for (const McastAlgorithm a : {McastAlgorithm::kUMesh, McastAlgorithm::kOptTree,
                                     McastAlgorithm::kOptMesh})
        for (const Placement& p : ps)
          ops_.push_back({LintOp::Kind::kTree, &mesh64_, a, &p, nullptr, 4096});
      for (const McastAlgorithm a : {McastAlgorithm::kUMin, McastAlgorithm::kOptTree,
                                     McastAlgorithm::kOptMin})
        for (const Placement& p : ps)
          ops_.push_back({LintOp::Kind::kTree, &bmin4096_, a, &p, nullptr, 4096});
    }
    // Forests: 8-64 OPT-Mesh groups on the 32x32 mesh, each admitted at
    // its earliest clean offset, then certified together.
    const std::vector<int> gs = smoke ? std::vector<int>{8}
                                      : std::vector<int>{8, 16, 32, 64};
    const int forest_reps = smoke ? 1 : 2;
    for (const int g : gs)
      for (int r = 0; r < forest_reps; ++r)
        forest_groups_.push_back(analysis::sample_placements(
            harness::substream_seed(seed ^ 0xf05eU,
                                    static_cast<std::uint64_t>(g * 16 + r)),
            mesh32_.topo->num_nodes(), kGroup, g));
    for (const std::vector<Placement>& groups : forest_groups_)
      ops_.push_back({LintOp::Kind::kForest, &mesh32_, McastAlgorithm::kOptMesh,
                      nullptr, &groups, 4096});
    // Streams: the stream_clean cells.
    const int slots = smoke ? kCleanSmokeSlots : kCleanSlots;
    for (CleanCell& c : clean_cells(seed, size)) {
      const Fabric* fab = c.bmin ? &bmin64_ : &mesh16_;
      for (const Placement& p : stream_place_.emplace_back(std::move(c.places)))
        ops_.push_back({LintOp::Kind::kStream, fab, c.alg, &p, nullptr, kSlotBytes,
                        c.window, slots});
    }
    tree_makespan_.assign(ops_.size(), -1);
    stream_interval_.assign(ops_.size(), -1);
  }

  [[nodiscard]] std::size_t size() const override { return ops_.size(); }

  OpResult run(std::size_t i, Tracer* tr) override {
    const LintOp& op = ops_[i];
    const TwoParam tp = cfg_.machine.two_param(rtm_.wire_bytes(op.bytes, 1));
    const sim::Topology& topo = *op.fab->topo;
    auto build = [&](const Placement& p) {
      if (tr != nullptr) ++tr->core_builds;
      return in_layer(tr, "core.build", [&] {
        return build_multicast(op.alg, p.source, p.dests, tp, op.fab->shape);
      });
    };
    Fnv h;
    long long work = 0;
    switch (op.kind) {
      case LintOp::Kind::kTree: {
        const MulticastTree tree = build(*op.place);
        lint::LintOptions opts;
        opts.keep_schedule = false;
        const lint::LintReport rep = in_layer(tr, "lint.tree", [&] {
          return lint::lint_tree(tree, topo, cfg_, sim_cfg_, op.bytes, opts);
        });
        clean_ = rep.clean();
        makespan_ = rep.makespan;
        work = rep.sends;
        if (tr != nullptr) ++tr->lint_trees;
        h.add(rep.sends);
        h.add(rep.channels_used);
        h.add(rep.max_channel_windows);
        h.add(rep.makespan);
        h.add(rep.structure_ok);
        h.add(rep.contention_free);
        h.add(rep.deadlock_free);
        add_diagnostics(h, rep.diagnostics);
        break;
      }
      case LintOp::Kind::kForest: {
        std::vector<lint::ForestMember> members;
        lint::ChannelReservations reserved;
        for (const Placement& p : *op.groups) {
          lint::ForestMember m{build(p), op.bytes, 0};
          in_layer(tr, "lint.offset", [&] {
            m.start = lint::earliest_clean_offset(m.tree, topo, cfg_, sim_cfg_,
                                                  op.bytes, reserved);
            reserved.add(
                lint::lint_schedule(m.tree, topo, cfg_, sim_cfg_, op.bytes, m.start));
            return 0;
          });
          work += 2 * static_cast<long long>(m.tree.sends.size());
          h.add(m.start);
          members.push_back(std::move(m));
        }
        lint::ForestOptions opts;
        opts.keep_schedules = false;
        const lint::ForestReport rep = in_layer(tr, "lint.forest", [&] {
          return lint::lint_forest(members, topo, cfg_, sim_cfg_, opts);
        });
        work += rep.sends;
        if (tr != nullptr) {
          tr->lint_offsets += static_cast<long long>(members.size());
          ++tr->lint_forests;
        }
        h.add(rep.trees);
        h.add(rep.sends);
        h.add(rep.channels_used);
        h.add(rep.max_channel_windows);
        h.add(rep.intra_pairs);
        h.add(rep.cross_pairs);
        h.add(rep.makespan);
        h.add_all(rep.tree_makespan);
        h.add(rep.structure_ok);
        h.add(rep.contention_free);
        h.add(rep.deadlock_free);
        add_diagnostics(h, rep.diagnostics);
        break;
      }
      case LintOp::Kind::kStream: {
        const MulticastTree tree = build(*op.place);
        const lint::StreamLintReport rep = in_layer(tr, "lint.stream", [&] {
          return lint::lint_stream(tree, topo, cfg_, sim_cfg_, op.bytes, op.slots,
                                   op.window);
        });
        clean_ = rep.clean();
        interval_ = rep.interval;
        work = static_cast<long long>(rep.analyzed_slots) * rep.sends_per_slot;
        if (tr != nullptr) {
          ++tr->lint_streams;
          tr->lint_analyzed_slots += rep.analyzed_slots;
        }
        h.add(rep.sends_per_slot);
        h.add(rep.messages);
        h.add(rep.analyzed_slots);
        h.add(rep.period_slots);
        h.add(rep.period_cycles);
        h.add(rep.interval);
        h.add(rep.slot_latency);
        h.add(rep.makespan);
        h.add(rep.busy_bound);
        h.add(rep.busy_node);
        h.add(rep.channel_bound);
        h.add(rep.saturated);
        h.add(rep.structure_ok);
        h.add(rep.contention_free);
        h.add(rep.deadlock_free);
        add_diagnostics(h, rep.diagnostics);
        h.add_all(rep.commit_time);
        break;
      }
    }
    if (tr != nullptr) tr->lint_sends += work;
    return {work, h.value()};
  }

  std::string check(std::size_t i) override {
    const LintOp& op = ops_[i];
    if (op.kind == LintOp::Kind::kTree) {
      tree_makespan_[i] = static_cast<double>(makespan_);
      if (guaranteed(op.alg) && !clean_) return repro(i, "guaranteed tree not certified clean");
    } else if (op.kind == LintOp::Kind::kStream) {
      stream_interval_[i] = interval_;
      // Theorems 1-2 are per-tree claims: only a window-1 stream of a
      // guaranteed tree must certify clean.
      if (guaranteed(op.alg) && op.window == 1 && !clean_)
        return repro(i, "guaranteed window-1 stream not certified clean");
    }
    return "";
  }

  [[nodiscard]] std::vector<Metric> simulated() const override {
    std::vector<double> makespans;
    std::vector<double> intervals;
    for (const double m : tree_makespan_)
      if (m >= 0) makespans.push_back(m);
    for (const double v : stream_interval_)
      if (v >= 0) intervals.push_back(v);
    return {{"static_latency_cycles", "cycles", mean(makespans)},
            {"static_slot_interval_cycles", "cycles", mean(intervals)}};
  }

 private:
  std::string repro(std::size_t i, const std::string& why) const {
    const LintOp& op = ops_[i];
    std::string s = "lint_static op " + std::to_string(i) + ": " + op.fab->name +
                    " " + std::string(algorithm_name(op.alg)) + " " +
                    std::to_string(op.bytes) + " B ";
    if (op.kind == LintOp::Kind::kStream)
      s += "window " + std::to_string(op.window) + " slots " +
           std::to_string(op.slots) + " ";
    return s + describe(*op.place) + ": " + why;
  }

  rt::RuntimeConfig cfg_;
  rt::MulticastRuntime rtm_{cfg_};
  const sim::SimConfig sim_cfg_{};
  Fabric mesh64_ = mesh_fabric(64);
  Fabric bmin4096_ = bmin_fabric(4096);
  Fabric mesh32_ = mesh_fabric(32);
  Fabric mesh16_ = mesh_fabric(16);
  Fabric bmin64_ = bmin_fabric(64);
  std::vector<std::vector<Placement>> tree_place_;
  std::vector<std::vector<Placement>> forest_groups_;
  std::deque<std::vector<Placement>> stream_place_;
  std::vector<LintOp> ops_;

  bool clean_ = true;  ///< outputs of the op run last, for check()
  Time makespan_ = 0;
  double interval_ = 0;
  std::vector<double> tree_makespan_;    ///< -1 on non-tree ops
  std::vector<double> stream_interval_;  ///< -1 on non-stream ops
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Size size) {
  if (name == "oneshot_paper") return std::make_unique<OneshotPaper>(seed, size);
  if (name == "stream_reliable") return stream_reliable(seed, size);
  if (name == "stream_clean") return stream_clean(seed, size);
  if (name == "lint_static") return std::make_unique<LintStatic>(seed, size);
  if (name == "stall_repro") return stall_repro(seed);
  return nullptr;
}

}  // namespace perfbench
