// Differential tests of the window kernel's offline passes (kernel.hpp):
// the radix-grouped overlap sweep, the compact-id channel-dependency
// search and the channel-sorted reservation set must reproduce, bit for
// bit, the straightforward sort-based passes they replaced.  Those
// reference passes live here only, as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/rng.hpp"
#include "analysis/sampling.hpp"
#include "core/algorithms.hpp"
#include "lint/kernel.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"

namespace pcm {
namespace {

using lint::DiagKind;
using lint::ForestReport;
using lint::LintDiagnostic;
using lint::kernel::Hold;

// ---------------------------------------------------------------------------
// Reference passes: one comparison sort over everything.

void ref_sweep_holds(std::vector<Hold> holds, int max_diagnostics,
                     ForestReport& rep) {
  std::sort(holds.begin(), holds.end(), [](const Hold& a, const Hold& b) {
    return std::tie(a.ch, a.begin, a.tree, a.send) <
           std::tie(b.ch, b.begin, b.tree, b.send);
  });
  std::vector<LintDiagnostic> contention;
  constexpr std::size_t kRawPairCap = 4096;
  for (std::size_t lo = 0; lo < holds.size();) {
    std::size_t hi = lo;
    while (hi < holds.size() && holds[hi].ch == holds[lo].ch) ++hi;
    rep.channels_used++;
    rep.max_channel_windows =
        std::max(rep.max_channel_windows, static_cast<int>(hi - lo));
    for (std::size_t j = lo; j < hi; ++j) {
      for (std::size_t k = j + 1; k < hi && holds[k].begin < holds[j].end; ++k) {
        rep.contention_free = false;
        if (contention.size() >= kRawPairCap) continue;
        LintDiagnostic d;
        d.kind = DiagKind::kContention;
        d.tree_a = holds[j].tree;
        d.send_a = holds[j].send;
        d.tree_b = holds[k].tree;
        d.send_b = holds[k].send;
        d.channel = holds[j].ch;
        d.overlap_begin = holds[k].begin;
        d.overlap_end = std::min(holds[j].end, holds[k].end);
        contention.push_back(std::move(d));
      }
    }
    lo = hi;
  }
  auto pair = [](const LintDiagnostic& d) {
    return std::tie(d.tree_a, d.send_a, d.tree_b, d.send_b);
  };
  std::sort(contention.begin(), contention.end(),
            [&](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tuple_cat(pair(a), std::tie(a.overlap_begin, a.channel)) <
                     std::tuple_cat(pair(b), std::tie(b.overlap_begin, b.channel));
            });
  contention.erase(std::unique(contention.begin(), contention.end(),
                               [&](const LintDiagnostic& a, const LintDiagnostic& b) {
                                 return pair(a) == pair(b);
                               }),
                   contention.end());
  for (const LintDiagnostic& d : contention)
    ++(d.tree_a == d.tree_b ? rep.intra_pairs : rep.cross_pairs);
  std::sort(contention.begin(), contention.end(),
            [&](const LintDiagnostic& a, const LintDiagnostic& b) {
              return std::tuple_cat(std::tie(a.overlap_begin), pair(a)) <
                     std::tuple_cat(std::tie(b.overlap_begin), pair(b));
            });
  if (contention.size() > static_cast<std::size_t>(max_diagnostics))
    contention.resize(static_cast<std::size_t>(max_diagnostics));
  for (LintDiagnostic& d : contention) rep.diagnostics.push_back(std::move(d));
}

/// Three-color DFS over every channel id below num_channels.
std::vector<sim::ChannelId> ref_dependency_cycle(
    std::vector<std::pair<int, int>> edges, int num_channels) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<int> head(static_cast<std::size_t>(num_channels) + 1, 0);
  for (const auto& [u, v] : edges) head[static_cast<std::size_t>(u) + 1]++;
  for (int c = 0; c < num_channels; ++c)
    head[static_cast<std::size_t>(c) + 1] += head[static_cast<std::size_t>(c)];
  std::vector<int> adj(edges.size());
  {
    std::vector<int> cursor(head.begin(), head.end() - 1);
    for (const auto& [u, v] : edges)
      adj[static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++)] = v;
  }
  std::vector<char> color(static_cast<std::size_t>(num_channels), 0);
  std::vector<int> stack;
  std::vector<int> edge_pos;
  for (int root = 0; root < num_channels; ++root) {
    if (color[static_cast<std::size_t>(root)] != 0) continue;
    stack.assign(1, root);
    edge_pos.assign(1, head[static_cast<std::size_t>(root)]);
    color[static_cast<std::size_t>(root)] = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      int& pos = edge_pos.back();
      if (pos == head[static_cast<std::size_t>(u) + 1]) {
        color[static_cast<std::size_t>(u)] = 2;
        stack.pop_back();
        edge_pos.pop_back();
        continue;
      }
      const int v = adj[static_cast<std::size_t>(pos++)];
      if (color[static_cast<std::size_t>(v)] == 1) {
        const auto it = std::find(stack.begin(), stack.end(), v);
        return {it, stack.end()};
      }
      if (color[static_cast<std::size_t>(v)] == 0) {
        color[static_cast<std::size_t>(v)] = 1;
        stack.push_back(v);
        edge_pos.push_back(head[static_cast<std::size_t>(v)]);
      }
    }
  }
  return {};
}

/// The admission sweep over a flat, unsorted reservation list.
Time ref_earliest_clean_offset(const MulticastTree& tree, const sim::Topology& topo,
                               const rt::RuntimeConfig& cfg, Bytes payload,
                               const std::vector<lint::HoldWindow>& res) {
  const std::vector<lint::SendWindow> cand =
      lint::lint_schedule(tree, topo, cfg, sim::SimConfig{}, payload, 0);
  std::vector<std::pair<Time, Time>> forbidden;
  for (const lint::SendWindow& w : cand)
    for (std::size_t i = 0; i < w.path.size(); ++i) {
      const Time hb = w.reserve[i];
      const Time he = hb + w.flits;
      for (const lint::HoldWindow& r : res)
        if (r.channel == w.path[i] && r.end - hb - 1 >= 0)
          forbidden.emplace_back(std::max<Time>(r.begin - he + 1, 0),
                                 r.end - hb - 1);
    }
  std::sort(forbidden.begin(), forbidden.end());
  Time delta = 0;
  for (const auto& [lo, hi] : forbidden) {
    if (lo > delta) break;
    if (hi >= delta) delta = hi + 1;
  }
  return delta;
}

// ---------------------------------------------------------------------------
// Seeded inputs.

constexpr int kBmin4096Channels = 98304;  // BminTopology(4096).num_channels()

/// `trees` x `sends` sends, each a path of `hops` distinct channels drawn
/// from `channels` (so (ch, tree, send) never repeats), the path's hops
/// reserved router_delay 1 apart from a begin drawn below `spread` —
/// small spreads force tied begins and dense overlaps.  Shuffled.
std::vector<Hold> random_holds(std::uint64_t seed, int trees, int sends, int hops,
                               const std::vector<sim::ChannelId>& channels,
                               Time spread, int max_flits) {
  analysis::Rng rng(seed);
  std::vector<Hold> holds;
  for (int t = 0; t < trees; ++t)
    for (int s = 0; s < sends; ++s) {
      const Time start = static_cast<Time>(rng.below(static_cast<std::uint64_t>(spread)));
      const Time flits = 1 + static_cast<Time>(rng.below(static_cast<std::uint64_t>(max_flits)));
      std::vector<sim::ChannelId> path;
      while (static_cast<int>(path.size()) < hops) {
        const sim::ChannelId c = channels[rng.below(channels.size())];
        if (std::find(path.begin(), path.end(), c) == path.end()) path.push_back(c);
      }
      for (int i = 0; i < hops; ++i)
        holds.push_back({path[static_cast<std::size_t>(i)], start + i,
                         start + i + flits, t, s});
    }
  rng.shuffle(holds);
  return holds;
}

std::vector<sim::ChannelId> spread_channels(std::uint64_t seed, int n) {
  analysis::Rng rng(seed);
  std::vector<sim::ChannelId> cs;
  for (int i = 0; i < n; ++i)
    cs.push_back(static_cast<sim::ChannelId>(rng.below(kBmin4096Channels)));
  cs.push_back(kBmin4096Channels - 1);  // the top of the id range, always
  cs.push_back(0);
  return cs;
}

std::size_t raw_overlap_pairs(const std::vector<Hold>& holds) {
  std::size_t n = 0;
  for (std::size_t a = 0; a < holds.size(); ++a)
    for (std::size_t b = a + 1; b < holds.size(); ++b)
      if (holds[a].ch == holds[b].ch && holds[a].begin < holds[b].end &&
          holds[b].begin < holds[a].end)
        ++n;
  return n;
}

void expect_same_sweep(const std::vector<Hold>& holds, int max_diagnostics) {
  ForestReport want;
  ref_sweep_holds(holds, max_diagnostics, want);
  ForestReport got;
  lint::kernel::sweep_holds(holds, max_diagnostics, got);
  EXPECT_EQ(got.contention_free, want.contention_free);
  EXPECT_EQ(got.channels_used, want.channels_used);
  EXPECT_EQ(got.max_channel_windows, want.max_channel_windows);
  EXPECT_EQ(got.intra_pairs, want.intra_pairs);
  EXPECT_EQ(got.cross_pairs, want.cross_pairs);
  ASSERT_EQ(got.diagnostics.size(), want.diagnostics.size());
  for (std::size_t i = 0; i < want.diagnostics.size(); ++i) {
    const LintDiagnostic& g = got.diagnostics[i];
    const LintDiagnostic& w = want.diagnostics[i];
    EXPECT_EQ(std::tie(g.kind, g.tree_a, g.send_a, g.tree_b, g.send_b, g.channel,
                       g.overlap_begin, g.overlap_end),
              std::tie(w.kind, w.tree_a, w.send_a, w.tree_b, w.send_b, w.channel,
                       w.overlap_begin, w.overlap_end))
        << "diagnostic " << i;
  }
}

// ---------------------------------------------------------------------------

TEST(LintKernel, RadixSortIsAStableSort) {
  analysis::Rng rng(5);
  for (const std::uint64_t range :
       {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{2048},
        std::uint64_t{kBmin4096Channels}, std::uint64_t{1} << 31}) {
    std::vector<std::pair<int, int>> items;
    for (int i = 0; i < 3000; ++i)
      items.emplace_back(static_cast<int>(rng.below(range)), i);
    items.emplace_back(static_cast<int>(range - 1), -1);
    std::vector<std::pair<int, int>> want = items;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    lint::kernel::radix_sort(items, [](const auto& p) { return p.first; });
    EXPECT_EQ(items, want) << "key range " << range;
  }
  std::vector<int> none;
  lint::kernel::radix_sort(none, [](int x) { return x; });
  EXPECT_TRUE(none.empty());
}

TEST(LintKernel, SweepMatchesSortedSweepAcrossBminChannelRange) {
  // Sparse: ids over the whole 4096-port BMIN range, few overlaps.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::vector<Hold> holds = random_holds(
        seed, 3, 40, 12, spread_channels(seed, 3000), 4000, 30);
    for (const int cap : {0, 1, 64, 1 << 20}) expect_same_sweep(holds, cap);
  }
}

TEST(LintKernel, SweepMatchesWithTiedBeginsPastTheRawPairCap) {
  // Dense: 40 channels (spread over the BMIN range), begins below 8 so
  // many tie, far more than 4096 raw overlapping pairs.
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const std::vector<Hold> holds =
        random_holds(seed, 4, 60, 6, spread_channels(seed, 38), 8, 40);
    ASSERT_GT(raw_overlap_pairs(holds), 4096U) << "the input must pass the cap";
    for (const int cap : {0, 64, 1 << 20}) expect_same_sweep(holds, cap);
  }
}

TEST(LintKernel, SweepMatchesOnCleanAndEmptyInputs) {
  expect_same_sweep({}, 64);
  // One channel, back-to-back windows: touching is not overlapping.
  std::vector<Hold> serial;
  for (int s = 0; s < 50; ++s)
    serial.push_back({kBmin4096Channels - 1, 10 * s, 10 * s + 10, 0, s});
  analysis::Rng rng(3);
  rng.shuffle(serial);
  expect_same_sweep(serial, 64);
  ForestReport rep;
  lint::kernel::sweep_holds(serial, 64, rep);
  EXPECT_TRUE(rep.contention_free);
  EXPECT_EQ(rep.max_channel_windows, 50);
}

/// Returns whether the graph has a loop.
bool expect_same_cycle(const std::vector<std::pair<int, int>>& edges,
                       int num_channels) {
  const std::vector<sim::ChannelId> want = ref_dependency_cycle(edges, num_channels);
  // Each edge as a two-hop path.
  std::vector<std::array<sim::ChannelId, 2>> hops;
  for (const auto& [u, v] : edges) hops.push_back({u, v});
  std::vector<std::span<const sim::ChannelId>> paths(hops.begin(), hops.end());
  bool deadlock_free = true;
  std::vector<LintDiagnostic> diags;
  lint::kernel::find_deadlock(paths, 64, deadlock_free, diags);
  EXPECT_EQ(deadlock_free, want.empty());
  if (want.empty()) {
    EXPECT_TRUE(diags.empty());
    return false;
  }
  EXPECT_EQ(diags.size(), 1U);
  if (!diags.empty()) {
    EXPECT_EQ(diags[0].kind, DiagKind::kDeadlock);
    EXPECT_EQ(diags[0].cycle, want);
  }
  return true;
}

TEST(LintKernel, DeadlockSearchMatchesDenseChannelDfs) {
  analysis::Rng rng(21);
  int loops = 0;
  for (int round = 0; round < 40; ++round) {
    // A random graph over a few hundred channels scattered across the
    // BMIN id range, with duplicate edges, in shuffled order.  Odd rounds
    // only point upward (acyclic); even rounds may close loops.
    const std::vector<sim::ChannelId> ids =
        spread_channels(static_cast<std::uint64_t>(100 + round), 300);
    std::vector<std::pair<int, int>> edges;
    const int n = 200 + static_cast<int>(rng.below(400));
    for (int e = 0; e < n; ++e) {
      int u = ids[rng.below(ids.size())];
      int v = ids[rng.below(ids.size())];
      if (round % 2 == 1) {
        if (u == v) continue;
        if (u > v) std::swap(u, v);
      }
      edges.emplace_back(u, v);
      if (rng.below(4) == 0) edges.emplace_back(u, v);
    }
    rng.shuffle(edges);
    loops += expect_same_cycle(edges, kBmin4096Channels) ? 1 : 0;
  }
  EXPECT_GE(loops, 10) << "most cyclic-capable rounds must close a loop";
  EXPECT_FALSE(expect_same_cycle({}, kBmin4096Channels));
  EXPECT_TRUE(expect_same_cycle({{5, 5}}, kBmin4096Channels));
  EXPECT_TRUE(expect_same_cycle(
      {{kBmin4096Channels - 1, 0}, {0, kBmin4096Channels - 1}}, kBmin4096Channels));
}

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

TEST(LintKernel, RingDependencyLoopIsTheSameChannelLoop) {
  // Sequential chains around rings of 4 and 7 routers whose sends wrap
  // around: the union of their paths closes the ring's channel loop.
  for (const int n : {4, 7}) {
    RingTopology topo(n);
    MulticastTree tree;
    tree.chain.nodes.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      tree.chain.nodes[static_cast<std::size_t>(i)] = 3 * i % n;
    tree.chain.source_pos = 0;
    tree.out.resize(static_cast<std::size_t>(n));
    for (int i = 0; i + 1 < n; ++i) {
      tree.sends.push_back(SendEvent{i, i + 1, 0, i + 1, n - 1});
      tree.out[static_cast<std::size_t>(i)].push_back(i);
    }
    ASSERT_EQ(check_tree(tree), "");
    const rt::RuntimeConfig cfg;
    std::vector<std::pair<int, int>> edges;
    for (const lint::SendWindow& w :
         lint::lint_schedule(tree, topo, cfg, sim::SimConfig{}, 64))
      for (std::size_t i = 0; i + 1 < w.path.size(); ++i)
        edges.emplace_back(w.path[i], w.path[i + 1]);
    EXPECT_TRUE(expect_same_cycle(edges, topo.num_channels()));
    // lint_tree reports that loop, channel for channel.
    const lint::LintReport rep = lint::lint_tree(tree, topo, cfg, sim::SimConfig{}, 64);
    ASSERT_FALSE(rep.deadlock_free);
    EXPECT_EQ(rep.diagnostics.back().cycle,
              ref_dependency_cycle(edges, topo.num_channels()));
  }
}

TEST(LintKernel, ReservationsStaySortedAndAdmitLikeAFlatList) {
  const auto topo = mesh::make_mesh2d(16);
  const rt::RuntimeConfig cfg;
  const rt::MulticastRuntime rtm(cfg);
  const Bytes payload = 1024;
  const TwoParam tp = cfg.machine.two_param(rtm.wire_bytes(payload, 1));
  std::vector<MulticastTree> trees;
  for (const auto& p : analysis::sample_placements(31, topo->num_nodes(), 8, 24))
    trees.push_back(build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests,
                                    tp, &topo->shape()));

  // Schedules at random offsets, added in shuffled order.
  analysis::Rng rng(32);
  std::vector<std::vector<lint::SendWindow>> scheds;
  for (const MulticastTree& t : trees)
    scheds.push_back(lint::lint_schedule(t, *topo, cfg, sim::SimConfig{}, payload,
                                         static_cast<Time>(rng.below(20000))));
  rng.shuffle(scheds);
  lint::ChannelReservations res;
  std::vector<lint::HoldWindow> flat;
  for (const auto& sched : scheds) {
    res.add(sched);
    for (const lint::SendWindow& w : sched)
      for (std::size_t i = 0; i < w.path.size(); ++i)
        flat.push_back({w.path[i], w.reserve[i], w.reserve[i] + w.flits});
    // Sorted by channel, in admission order within a channel.
    std::vector<lint::HoldWindow> want = flat;
    std::stable_sort(want.begin(), want.end(),
                     [](const auto& a, const auto& b) { return a.channel < b.channel; });
    ASSERT_EQ(res.holds().size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(std::tie(res.holds()[i].channel, res.holds()[i].begin,
                         res.holds()[i].end),
                std::tie(want[i].channel, want[i].begin, want[i].end))
          << "hold " << i;
  }
  int shifted = 0;
  for (const MulticastTree& t : trees) {
    const Time at =
        lint::earliest_clean_offset(t, *topo, cfg, sim::SimConfig{}, payload, res);
    EXPECT_EQ(at, ref_earliest_clean_offset(t, *topo, cfg, payload, flat));
    shifted += at > 0 ? 1 : 0;
  }
  EXPECT_GT(shifted, 0) << "some candidate must collide at offset 0";

  // The admission loop: each tree at its earliest offset against all
  // admitted before it.
  lint::ChannelReservations admitted;
  std::vector<lint::HoldWindow> admitted_flat;
  for (const MulticastTree& t : trees) {
    const Time at =
        lint::earliest_clean_offset(t, *topo, cfg, sim::SimConfig{}, payload, admitted);
    ASSERT_EQ(at, ref_earliest_clean_offset(t, *topo, cfg, payload, admitted_flat));
    const auto sched = lint::lint_schedule(t, *topo, cfg, sim::SimConfig{}, payload, at);
    admitted.add(sched);
    for (const lint::SendWindow& w : sched)
      for (std::size_t i = 0; i < w.path.size(); ++i)
        admitted_flat.push_back({w.path[i], w.reserve[i], w.reserve[i] + w.flits});
  }
}

}  // namespace
}  // namespace pcm
