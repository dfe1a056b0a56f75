// The one symbolic window kernel behind every lint entry point.
//
// lint_tree, lint_schedule, lint_forest and lint_stream all replay the
// same per-send algebra of a contention-free run:
//
//   * software: a node activates at `at` (its receive completed, or the
//     multicast starts there); every send engine of the node is raised to
//     `at`, and the node's sends are issued round-robin over the engines,
//     each operation starting t_hold(wire) after the previous one on its
//     engine and reaching the NI t_send(wire) after it starts;
//   * NI: the simulator releases posts in (ready, post order)
//     (Simulator::Post), so one activation's sends enter the node's FIFO
//     injection queue in (ready, out index) order — with one engine that
//     is out order, with more the second engine's shorter message may
//     overtake; each takes the earliest-free injection port, so it starts
//     injecting at max(ready, port free) and frees the port flits cycles
//     later;
//   * network: the head rests router_delay cycles in every router, so it
//     reserves path channel i at inject_start + (i+1) * router_delay; body
//     flits pipeline one per cycle behind it (fifo_capacity >=
//     router_delay + 1 keeps the pipeline bubble-free), so the channel is
//     held for exactly `flits` cycles and the tail is consumed at
//     inject_start + hops * router_delay + flits - 1;
//   * delivery: the simulator runs delivery handlers in (delivered cycle,
//     ejection channel id) order — the router/port sweep of
//     Simulator::transfer — and the kernel's queue pops in that order.
//
// Internal to src/lint; the public surface is lint.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <span>
#include <utility>
#include <vector>

#include "lint/lint.hpp"

namespace pcm::lint::kernel {

/// Constants of one send of a tree carrying a given payload: what the
/// PCM charges the software and the routed path (ejection channel last).
struct SendPlan {
  int receiver_pos = -1;
  int flits = 0;
  Time t_send = 0;
  Time t_hold = 0;
  Time t_recv = 0;
  std::vector<sim::ChannelId> path;
};

std::vector<SendPlan> plan_sends(const MulticastTree& tree,
                                 const sim::Topology& topo,
                                 const rt::RuntimeConfig& cfg, Bytes payload);

/// Cycle at which the head of a send that started injecting at
/// `inject_start` reserves path hop `hop`; it holds the channel for
/// `flits` cycles from then.
inline Time reserve_time(Time inject_start, std::size_t hop, Time router_delay) {
  return inject_start + static_cast<Time>(hop + 1) * router_delay;
}

/// Where the kernel placed one send.
struct Placement {
  int send = -1;
  Time op_start = 0;
  Time ready = 0;
  Time inject_start = 0;
  Time delivered = 0;
};

/// A pending delivery in simulator handler order: cycle, then the
/// router/port sweep (ejection channel id), then (tree, send) — the last
/// two never tie for distinct messages but keep the order strict.  A
/// stream uses the slot as its `tree`.
struct Delivery {
  Time delivered = 0;
  sim::ChannelId eject = -1;
  int tree = -1;
  int send = -1;
  friend auto operator<=>(const Delivery&, const Delivery&) = default;
};

/// Per-node software engines and NI ports in flat node-major arrays, plus
/// the delivery queue.  Nodes are whatever dense index the caller keys
/// them by (topology node ids for a forest, chain positions for a stream).
class WindowKernel {
 public:
  WindowKernel(int nodes, int engines, int ni_ports, Time router_delay);

  /// Activates `node` at `at`: issues the sends `out` (indices into
  /// `plan`), places them on the NI and queues their deliveries tagged
  /// `tree`.  Returns the placements in NI order; the span is valid until
  /// the next call.
  std::span<const Placement> activate(int tree, int node, Time at,
                                      std::span<const int> out,
                                      std::span<const SendPlan> plan);

  [[nodiscard]] bool idle() const { return queue_.empty(); }
  Delivery pop();
  /// The pending deliveries in heap (not delivery) order.
  [[nodiscard]] std::span<const Delivery> queue() const { return queue_; }

  /// Node-major software engine timelines ([node * engines + e]).
  [[nodiscard]] std::span<Time> engines() { return engine_; }
  [[nodiscard]] Time& engine(int node, int e) {
    return engine_[static_cast<std::size_t>(node * engines_ + e)];
  }
  /// Node-major NI port free times ([node * ni_ports + p]).
  [[nodiscard]] std::span<const Time> ni() const { return ni_; }

 private:
  int engines_;
  int ports_;
  Time rd_;
  std::vector<Time> engine_;
  std::vector<Time> ni_;
  std::vector<Delivery> queue_;  ///< min-heap under std::greater
  std::vector<Placement> batch_;
};

/// Stable LSD radix sort of `items` by `key(item)`, a non-negative int.
/// Digits are about log2(items) bits wide (4 to 11), there are only as
/// many passes as the largest key needs, and a pass whose digit is the
/// same for every item is skipped.  The cost is linear in items.size()
/// whatever the key range, so no pass needs an array sized by the
/// topology.
template <class T, class Key>
void radix_sort(std::vector<T>& items, Key key) {
  const unsigned width = std::clamp<unsigned>(
      static_cast<unsigned>(std::bit_width(items.size())), 4, 11);
  const unsigned mask = (1U << width) - 1;
  unsigned bits = 0;
  for (const T& x : items) bits |= static_cast<unsigned>(key(x));
  std::vector<T> tmp;
  std::array<std::size_t, 2048> at{};
  const auto buckets = std::span(at).first(mask + 1);
  for (unsigned shift = 0; shift < 32 && (bits >> shift) != 0; shift += width) {
    std::fill(buckets.begin(), buckets.end(), 0);
    for (const T& x : items) ++at[(static_cast<unsigned>(key(x)) >> shift) & mask];
    if (std::find(buckets.begin(), buckets.end(), items.size()) != buckets.end())
      continue;
    std::size_t sum = 0;
    for (std::size_t& a : buckets) sum += std::exchange(a, sum);
    tmp.resize(items.size());
    for (T& x : items)
      tmp[at[(static_cast<unsigned>(key(x)) >> shift) & mask]++] = std::move(x);
    items.swap(tmp);
  }
}

/// One channel hold window, flattened for the offline sweep.
struct Hold {
  sim::ChannelId ch = -1;
  Time begin = 0;
  Time end = 0;  ///< half-open: the channel frees at `end`
  int tree = -1;
  int send = -1;
};

/// Offline per-channel overlap sweep: sets rep's channel counters and
/// contention verdict, counts overlapping send pairs as intra- or
/// cross-tree, and appends one kContention finding per pair (its earliest
/// overlap, the first cycle the simulator charges a blocked head), listed
/// chronologically and capped at `max_diagnostics`.  Groups the holds by
/// channel with radix_sort and sorts only each channel's run by (begin,
/// tree, send): O(holds) plus the short per-channel sorts.  Holds must be
/// distinct in (ch, begin, tree, send), as a send's hops always are.
void sweep_holds(std::span<const Hold> holds, int max_diagnostics,
                 ForestReport& rep);

/// Whether every path visits strictly ascending topo.channel_rank values,
/// all >= 0: one rank per hop and one compare, no allocation.  This is
/// the Dally–Seitz certificate — under any integer numbering a set of
/// strictly ascending paths has an acyclic channel-dependency graph.
bool ranks_ascend(const sim::Topology& topo,
                  std::span<const std::span<const sim::ChannelId>> paths);

/// Channel-dependency deadlock check of `paths` (c -> c' when some
/// message traverses c' right after c).  When ranks_ascend certifies the
/// paths it returns at once.  Otherwise — a topology without a rank, or a
/// path that does not ascend — it runs a deterministic DFS: one
/// radix_sort of every hop gives the channels compact ids in ascending
/// channel order; a counting pass over those ids groups the edges by
/// source, and each source's short list is sorted and deduplicated.  The
/// DFS tries roots and out-edges in ascending channel order, so it finds
/// the loop a DFS over every channel id would, in O(hops) plus the short
/// per-source sorts whatever the topology size.  The certificate never
/// changes the outcome, only skips a search that finds no loop.  On a
/// cycle clears `deadlock_free` and appends a kDeadlock finding listing
/// the loop, unless `diags` already holds max_diagnostics.
void find_deadlock(const sim::Topology& topo,
                   std::span<const std::span<const sim::ChannelId>> paths,
                   int max_diagnostics, bool& deadlock_free,
                   std::vector<LintDiagnostic>& diags);

/// Name of channel `c` as the topology prints it.
std::string channel_name(const sim::Topology& topo, sim::ChannelId c);

/// "deadlock: cyclic channel wait: <channels>", as every report prints it.
std::string describe_cycle(const sim::Topology& topo,
                           std::span<const sim::ChannelId> cycle);

}  // namespace pcm::lint::kernel
