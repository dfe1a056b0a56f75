// Steady-state analysis of the windowed streaming schedule.
//
// lint_stream replays StreamRuntime's fault-free pipeline (stream_fast)
// as a periodic forest on the window kernel (kernel.hpp): every slot's
// activations are placed by the kernel on persistent per-node engine
// timelines, with the same window backpressure off the cumulative commit
// frontier and the same full-drain resynchronization, and deliveries pop
// from the kernel's queue in the simulator's handler order — (delivered
// cycle, ejection channel id).  One send engine is required: with more, a
// later slot's post can be ready before an earlier slot's at the same
// node, and the simulator's global release order would interleave them.
// On a contention-free run the derived commit times are bit-identical to
// stream_fast's (tests enforce it), and the earliest static hold overlap
// is the first dynamic block.
//
// The pipeline reaches a *steady state*: activation times and window
// occupancy are driven by a finite amount of relative state, so the
// between-event state (per-node timelines, NI engines, open-window ring,
// pending deliveries) eventually repeats up to a rigid time shift.  We
// detect the repeat by hashing the state relative to the last commit
// time; a match at slots s0 and s1 = s0 + d with commit times C0 and
// C1 = C0 + T proves the schedule is periodic from s0 on, so the exact
// per-slot pipeline interval is T / d and the remaining commit times
// follow the recurrence commit[s] = commit[s - d] + T.  Stale timeline
// entries are clamped at the current event time before hashing — a value
// at or below it can never bind a future max() — which keeps long-idle
// NI engines from blocking the match.  Analysis continues past the
// detection point until every distinct pair class of channel holds
// (instances at most max-hold-lookahead / T periods apart can overlap)
// has been checked, then extrapolates.
#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "lint/kernel.hpp"

namespace pcm::lint {
namespace {

using kernel::Delivery;

/// In-flight hold windows of one channel, sorted by begin.  Eviction is
/// garbage collection only: a stale window (end <= now) can never overlap
/// a new one (begin > now), so lazy head advancement is safe.
struct ChannelBuffer {
  struct Hold {
    Time begin = 0;
    Time end = 0;
    int tag = -1;
  };
  std::vector<Hold> holds;
  size_t head = 0;
};

std::uint64_t fnv1a(const std::vector<long long>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (long long x : v) {
    auto u = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

StreamLintReport lint_stream(const MulticastTree& tree,
                             const sim::Topology& topo,
                             const rt::RuntimeConfig& cfg,
                             const sim::SimConfig& sim_cfg, Bytes payload,
                             int slots, int window,
                             const StreamLintOptions& opts) {
  validate_lint_config(sim_cfg, "lint_stream");
  if (cfg.send_engines > 1)
    throw std::invalid_argument(
        "lint_stream: send_engines must be 1 (with more, a later slot's post "
        "can be ready before an earlier slot's and the NI order is the "
        "simulator's global release order)");
  if (slots < 1) throw std::invalid_argument("lint_stream: slots must be >= 1");
  if (window < 1)
    throw std::invalid_argument("lint_stream: window must be >= 1");

  StreamLintReport rep;
  rep.slots = slots;
  rep.window = window;
  rep.sends_per_slot = static_cast<int>(tree.sends.size());
  rep.messages =
      static_cast<long long>(slots) * static_cast<long long>(rep.sends_per_slot);

  const std::string structure = check_tree(tree);
  if (!structure.empty()) {
    rep.structure_ok = false;
    LintDiagnostic d;
    d.kind = DiagKind::kStructure;
    d.detail = structure;
    rep.diagnostics.push_back(std::move(d));
    return rep;
  }

  const int k = tree.num_nodes();
  const int src = tree.chain.source_pos;
  const int n_sends = rep.sends_per_slot;
  const Time rd = sim_cfg.router_delay;

  // Slot-invariant per-send constants, incl. the routed path.
  const std::vector<kernel::SendPlan> plan =
      kernel::plan_sends(tree, topo, cfg, payload);

  // Analytic per-slot bounds: busiest node's software time (the t_hold
  // sum — the throughput DP objective) and busiest channel flit occupancy.
  for (int pos = 0; pos < k; ++pos) {
    Time busy = 0;
    for (int idx : tree.out[static_cast<size_t>(pos)])
      busy += plan[static_cast<size_t>(idx)].t_hold;
    if (busy > rep.busy_bound) {
      rep.busy_bound = busy;
      rep.busy_node = tree.node(pos);
    }
  }

  // Per-channel state is indexed densely over the channels the plan's
  // paths use (in first-use order), not over the whole topology:
  // channels[c] is dense index c's channel id, and hops[first_hop[s] + i]
  // the dense index of send s's i-th hop.
  std::vector<sim::ChannelId> channels;
  std::vector<std::uint32_t> hops;
  std::vector<size_t> first_hop;
  first_hop.reserve(plan.size());
  {
    std::vector<std::int32_t> dense(static_cast<size_t>(topo.num_channels()), -1);
    std::vector<Time> occupancy;  // flits per slot, per dense channel
    for (const kernel::SendPlan& p : plan) {
      first_hop.push_back(hops.size());
      for (const sim::ChannelId ch : p.path) {
        std::int32_t& c = dense[static_cast<size_t>(ch)];
        if (c < 0) {
          c = static_cast<std::int32_t>(channels.size());
          channels.push_back(ch);
          occupancy.push_back(0);
        }
        hops.push_back(static_cast<std::uint32_t>(c));
        occupancy[static_cast<size_t>(c)] += p.flits;
        rep.channel_bound = std::max(rep.channel_bound, occupancy[static_cast<size_t>(c)]);
      }
    }
  }

  // ---- symbolic replay of stream_fast ------------------------------------
  // Nodes are keyed by chain position; each slot is a forest member.
  kernel::WindowKernel kern(k, 1, topo.ports_per_node(), rd);

  struct Ring {
    int remaining = 0;
    Time max_done = 0;
  };
  std::vector<Ring> ring(static_cast<size_t>(window));
  int injected = 0;
  int frontier = 0;
  rep.commit_time.assign(static_cast<size_t>(slots), -1);

  std::vector<ChannelBuffer> buffers(channels.size());
  std::vector<LintDiagnostic> raw;  // send_a/send_b: tags, send_a begins first
  constexpr size_t kRawPairCap = 4096;  // verdict stays exact; listing capped
  Time now = 0;            // current event time (eviction + clamp floor)
  Time max_lookahead = 0;  // max hold end minus its creation event time

  auto add_hold = [&](std::uint32_t c, Time b, Time e, int tag) {
    ChannelBuffer& buf = buffers[c];
    while (buf.head < buf.holds.size() && buf.holds[buf.head].end <= now)
      ++buf.head;
    if (buf.head > 64 && buf.head * 2 > buf.holds.size()) {
      buf.holds.erase(buf.holds.begin(),
                      buf.holds.begin() + static_cast<long>(buf.head));
      buf.head = 0;
    }
    for (size_t j = buf.head; j < buf.holds.size() && buf.holds[j].begin < e;
         ++j) {
      if (buf.holds[j].end <= b) continue;
      rep.contention_free = false;
      if (raw.size() >= kRawPairCap) continue;
      const ChannelBuffer::Hold& h = buf.holds[j];
      const bool old_first = h.begin <= b;
      LintDiagnostic& d = raw.emplace_back();
      d.send_a = old_first ? h.tag : tag;
      d.send_b = old_first ? tag : h.tag;
      d.channel = channels[c];
      d.overlap_begin = std::max(b, h.begin);
      d.overlap_end = std::min(e, h.end);
    }
    const auto it = std::upper_bound(
        buf.holds.begin() + static_cast<long>(buf.head), buf.holds.end(), b,
        [](Time t, const ChannelBuffer::Hold& h) { return t < h.begin; });
    buf.holds.insert(it, ChannelBuffer::Hold{b, e, tag});
    max_lookahead = std::max(max_lookahead, e - now);
  };

  // stream_fast's activate through the kernel, plus the online hold check.
  auto activate = [&](int slot, int pos, Time at) {
    for (const kernel::Placement& pl :
         kern.activate(slot, pos, at, tree.out[static_cast<size_t>(pos)], plan)) {
      const kernel::SendPlan& p = plan[static_cast<size_t>(pl.send)];
      const std::uint32_t* hop = hops.data() + first_hop[static_cast<size_t>(pl.send)];
      const int tag = slot * n_sends + pl.send;
      for (size_t i = 0; i < p.path.size(); ++i) {
        const Time b = kernel::reserve_time(pl.inject_start, i, rd);
        add_hold(hop[i], b, b + p.flits, tag);
      }
    }
  };

  auto inject = [&](Time at) {
    while (injected < slots && injected - frontier < window) {
      const int slot = injected++;
      ring[static_cast<size_t>(slot % window)] = Ring{k - 1, at};
      activate(slot, src, at);
    }
  };

  // Steady-state detection: between-event states hashed relative to the
  // last commit time.
  struct Snapshot {
    int slot = 0;
    Time commit = 0;
    std::vector<long long> state;
  };
  std::vector<Snapshot> snapshots;
  // Membership-only hash lookup (never iterated, so determinism holds;
  // candidate lists are probed in insertion order).
  std::unordered_map<std::uint64_t, std::vector<size_t>> by_hash;
  int period_d = 0;
  Time period_t = 0;
  int stop_after = slots;  // keep iterating until this slot committed

  auto maybe_snapshot = [&]() {
    const int s = frontier - 1;
    const Time c = rep.commit_time[static_cast<size_t>(s)];
    Snapshot snap;
    snap.slot = s;
    snap.commit = c;
    std::vector<long long>& st = snap.state;
    st.push_back(injected - frontier);
    for (const Time t : kern.engines()) st.push_back(std::max(t, now) - c);
    for (const Time t : kern.ni()) st.push_back(std::max(t, now) - c);
    for (int s2 = frontier; s2 < injected; ++s2) {
      const Ring& r = ring[static_cast<size_t>(s2 % window)];
      st.push_back(r.remaining);
      st.push_back(r.max_done - c);
    }
    std::vector<Delivery> pend(kern.queue().begin(), kern.queue().end());
    std::sort(pend.begin(), pend.end());
    for (const Delivery& d : pend) {
      st.push_back(d.delivered - c);
      st.push_back(d.eject);
      st.push_back(d.tree - s);
      st.push_back(d.send);
    }
    const std::uint64_t h = fnv1a(st);
    for (size_t i : by_hash[h]) {
      const Snapshot& old = snapshots[i];
      if (old.state != st) continue;
      const int d = s - old.slot;
      const Time t = c - old.commit;
      if (d <= 0 || t <= 0) continue;
      period_d = d;
      period_t = t;
      // Cover every pair class of periodic channel holds: instances more
      // than max_lookahead / T periods apart cannot overlap.
      const long long reach = max_lookahead / std::max<Time>(t, 1) + 2;
      const long long target =
          static_cast<long long>(s) + reach * static_cast<long long>(d);
      stop_after = static_cast<int>(
          std::min<long long>(target, static_cast<long long>(slots)));
      return;
    }
    by_hash[h].push_back(snapshots.size());
    snapshots.push_back(std::move(snap));
  };

  inject(0);
  while (!kern.idle()) {
    const Delivery d = kern.pop();
    now = d.delivered;
    const int slot = d.tree;
    const kernel::SendPlan& p = plan[static_cast<size_t>(d.send)];
    const Time done = d.delivered + p.t_recv;
    activate(slot, p.receiver_pos, done);
    Ring& rg = ring[static_cast<size_t>(slot % window)];
    rg.max_done = std::max(rg.max_done, done);
    if (--rg.remaining > 0) continue;
    Time at = rg.max_done;
    bool committed = false;
    while (frontier < injected &&
           ring[static_cast<size_t>(frontier % window)].remaining == 0) {
      at = ring[static_cast<size_t>(frontier % window)].max_done;
      rep.commit_time[static_cast<size_t>(frontier)] = at;
      ++frontier;
      committed = true;
    }
    if (frontier == injected)
      std::ranges::fill(kern.engines(), Time{0});
    inject(at);
    if (committed && period_d == 0 && frontier < slots) maybe_snapshot();
    if (period_d > 0 && frontier >= stop_after) break;
  }
  rep.analyzed_slots = frontier;
  if (frontier < slots) {
    // Only an established period breaks out early; extrapolate the tail.
    for (int s = frontier; s < slots; ++s)
      rep.commit_time[static_cast<size_t>(s)] =
          rep.commit_time[static_cast<size_t>(s - period_d)] + period_t;
  } else if (frontier != slots) {
    throw std::logic_error("lint_stream: stream did not drain");
  }

  rep.period_slots = period_d;
  rep.period_cycles = period_t;
  rep.slot_latency = rep.commit_time[0];
  rep.makespan = rep.commit_time[static_cast<size_t>(slots - 1)];
  if (period_d > 0)
    rep.interval = static_cast<double>(period_t) / period_d;
  else if (slots > 1)
    rep.interval =
        static_cast<double>(rep.makespan - rep.slot_latency) / (slots - 1);
  rep.saturated = period_d > 0 && period_t == rep.busy_bound * period_d;
  if (rep.makespan > 0)
    rep.slots_per_kcycle = 1000.0 * slots / static_cast<double>(rep.makespan);

  // De-duplicate contention findings by (send pattern, slot distance): a
  // steady-state overlap repeats every period and would drown the
  // listing.  Keep the earliest instance of each pattern, listed
  // chronologically.
  auto pattern = [n_sends](const LintDiagnostic& d) {
    const long long sa = d.send_a % n_sends;
    const long long sb = d.send_b % n_sends;
    const long long dist = d.send_b / n_sends - d.send_a / n_sends;
    return (dist * n_sends + sa) * n_sends + sb;
  };
  std::sort(raw.begin(), raw.end(),
            [&](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tuple(pattern(a), a.overlap_begin, a.channel) <
                     std::tuple(pattern(b), b.overlap_begin, b.channel);
            });
  raw.erase(std::unique(raw.begin(), raw.end(),
                        [&](const LintDiagnostic& a, const LintDiagnostic& b) {
                          return pattern(a) == pattern(b);
                        }),
            raw.end());
  std::sort(raw.begin(), raw.end(),
            [](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tie(a.overlap_begin, a.send_a, a.send_b) <
                     std::tie(b.overlap_begin, b.send_a, b.send_b);
            });
  if (raw.size() > static_cast<size_t>(opts.max_diagnostics))
    raw.resize(static_cast<size_t>(opts.max_diagnostics));
  rep.diagnostics = std::move(raw);

  // The channel-dependency graph is slot-invariant: one slot decides it.
  std::vector<std::span<const sim::ChannelId>> paths;
  paths.reserve(plan.size());
  for (const kernel::SendPlan& p : plan) paths.emplace_back(p.path);
  kernel::find_deadlock(topo, paths, opts.max_diagnostics, rep.deadlock_free,
                        rep.diagnostics);
  return rep;
}

std::string StreamLintReport::describe(const MulticastTree& tree,
                                       const sim::Topology& topo) const {
  std::ostringstream os;
  if (clean()) {
    os << "clean: " << slots << " slot(s) x window " << window
       << ", interval " << interval << " (busy bound " << busy_bound
       << " at node " << busy_node << (saturated ? ", saturated" : "")
       << "), makespan " << makespan;
    return os.str();
  }
  os << diagnostics.size() << " diagnostic(s)";
  for (const LintDiagnostic& d : diagnostics) {
    os << "\n  ";
    switch (d.kind) {
      case DiagKind::kStructure:
        os << "structure: " << d.detail;
        break;
      case DiagKind::kContention: {
        const int sa = d.send_a % sends_per_slot;
        const int sb = d.send_b % sends_per_slot;
        const SendEvent& a = tree.sends[static_cast<size_t>(sa)];
        const SendEvent& b = tree.sends[static_cast<size_t>(sb)];
        os << "contention: slot#" << d.send_a / sends_per_slot << " send#"
           << sa << " " << tree.node(a.sender_pos) << "->"
           << tree.node(a.receiver_pos) << " vs slot#"
           << d.send_b / sends_per_slot << " send#" << sb << " "
           << tree.node(b.sender_pos) << "->" << tree.node(b.receiver_pos)
           << " on " << kernel::channel_name(topo, d.channel) << " during ["
           << d.overlap_begin << ", " << d.overlap_end << ")";
        break;
      }
      case DiagKind::kDeadlock:
        os << kernel::describe_cycle(topo, d.cycle);
        break;
    }
  }
  return os.str();
}

}  // namespace pcm::lint
