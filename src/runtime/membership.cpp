#include "runtime/membership.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/topology.hpp"

namespace pcm::rt {

MembershipService::MembershipService(const sim::Simulator& sim,
                                     std::vector<NodeId> members,
                                     MembershipConfig cfg)
    : sim_(sim), cfg_(cfg), members_(std::move(members)) {
  if (cfg_.heartbeat_period <= 0)
    throw std::invalid_argument("MembershipService: heartbeat period must be > 0");
  if (cfg_.suspect_after < 1 || cfg_.confirm_after <= cfg_.suspect_after)
    throw std::invalid_argument(
        "MembershipService: need 1 <= suspect_after < confirm_after");
  if (members_.empty())
    throw std::invalid_argument("MembershipService: empty member list");
  const sim::Topology& topo = sim_.topology();
  const std::size_t n = members_.size();
  state_.assign(n, MemberState::kAlive);
  misses_.assign(n, 0);
  router_of_.resize(n);
  eject_of_.assign(n, -1);
  for (std::size_t m = 0; m < n; ++m) {
    const NodeId node = members_[m];
    if (node < 0 || node >= topo.num_nodes())
      throw std::invalid_argument("MembershipService: member outside topology");
    router_of_[m] = topo.node_attach(node).router;
  }
  const int routers = topo.num_routers();
  const int radix = topo.radix();
  down_.assign(static_cast<std::size_t>(topo.num_channels()), -1);
  for (int r = 0; r < routers; ++r) {
    for (int q = 0; q < radix; ++q) {
      const sim::ChannelId c = topo.channel_id(r, q);
      const sim::PortRef dst = topo.link(r, q);
      if (dst.valid()) down_[static_cast<std::size_t>(c)] = dst.router;
      const NodeId ej = topo.ejector(r, q);
      if (ej == kInvalidNode) continue;
      for (std::size_t m = 0; m < n; ++m)
        if (members_[m] == ej && eject_of_[m] < 0) eject_of_[m] = c;
    }
  }
  for (std::size_t m = 0; m < n; ++m)
    if (eject_of_[m] < 0)
      throw std::invalid_argument("MembershipService: member has no ejector");
  scc_.assign(static_cast<std::size_t>(routers), -1);
  relabel();
}

bool MembershipService::member_up(int m) const {
  return !sim_.node_failed(members_[static_cast<std::size_t>(m)]);
}

void MembershipService::relabel() const {
  // Tarjan's strongly-connected components over the live channel graph,
  // iterative: `call` is the DFS path, `next_port` each router's resume
  // point, `stack` the routers not yet assigned a component.
  const std::size_t routers = scc_.size();
  const int radix = sim_.topology().radix();
  std::vector<int> index(routers, -1), low(routers, 0), next_port(routers, 0);
  std::vector<char> on_stack(routers, 0);
  std::vector<int> stack, call;
  int counter = 0, comps = 0;
  auto visit = [&](int r) {
    const std::size_t u = static_cast<std::size_t>(r);
    index[u] = low[u] = counter++;
    stack.push_back(r);
    on_stack[u] = 1;
    call.push_back(r);
  };
  for (std::size_t root = 0; root < routers; ++root) {
    if (index[root] >= 0) continue;
    visit(static_cast<int>(root));
    while (!call.empty()) {
      const std::size_t u = static_cast<std::size_t>(call.back());
      if (next_port[u] < radix) {
        const sim::ChannelId c = static_cast<int>(u) * radix + next_port[u]++;
        const int d = down_[static_cast<std::size_t>(c)];
        if (d < 0 || !sim_.channel_live(c)) continue;
        const std::size_t v = static_cast<std::size_t>(d);
        if (index[v] < 0)
          visit(d);
        else if (on_stack[v])
          low[u] = std::min(low[u], index[v]);
        continue;
      }
      call.pop_back();
      if (!call.empty()) {
        const std::size_t parent = static_cast<std::size_t>(call.back());
        low[parent] = std::min(low[parent], low[u]);
      }
      if (low[u] != index[u]) continue;
      int w = -1;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[static_cast<std::size_t>(w)] = 0;
        scc_[static_cast<std::size_t>(w)] = comps;
      } while (static_cast<std::size_t>(w) != u);
      ++comps;
    }
  }
  labeled_version_ = sim_.liveness_version();
}

bool MembershipService::linked(int a, int b) const {
  if (labeled_version_ != sim_.liveness_version()) relabel();
  const std::size_t ua = static_cast<std::size_t>(a);
  const std::size_t ub = static_cast<std::size_t>(b);
  return scc_[static_cast<std::size_t>(router_of_[ua])] ==
             scc_[static_cast<std::size_t>(router_of_[ub])] &&
         sim_.channel_live(eject_of_[ua]) && sim_.channel_live(eject_of_[ub]);
}

bool MembershipService::round_trip_reachable(NodeId from, NodeId to) const {
  int fi = -1, ti = -1;
  for (std::size_t m = 0; m < members_.size(); ++m) {
    if (members_[m] == from) fi = static_cast<int>(m);
    if (members_[m] == to) ti = static_cast<int>(m);
  }
  if (fi < 0 || ti < 0)
    throw std::invalid_argument("round_trip_reachable: not a member");
  return linked(fi, ti);
}

std::vector<int> MembershipService::plurality_members() const {
  const std::size_t n = members_.size();
  // Eligible voters: up members not already adjudicated.
  std::vector<char> eligible(n, 0);
  for (std::size_t m = 0; m < n; ++m)
    eligible[m] = (state_[m] == MemberState::kAlive ||
                   state_[m] == MemberState::kSuspect) &&
                  member_up(static_cast<int>(m));
  std::vector<int> label(n, -1);
  std::vector<std::vector<int>> comps;
  for (std::size_t m = 0; m < n; ++m) {
    if (!eligible[m] || label[m] != -1) continue;
    const int id = static_cast<int>(comps.size());
    comps.emplace_back();
    for (std::size_t m2 = m; m2 < n; ++m2) {
      if (!eligible[m2] || label[m2] != -1) continue;
      if (m2 != m && !linked(static_cast<int>(m), static_cast<int>(m2)))
        continue;
      label[m2] = id;
      comps[static_cast<std::size_t>(id)].push_back(static_cast<int>(m2));
    }
  }
  // Plurality: largest component; ties broken by the lowest node id held.
  int best = -1;
  std::size_t best_size = 0;
  NodeId best_low = kInvalidNode;
  for (std::size_t c = 0; c < comps.size(); ++c) {
    NodeId low = kInvalidNode;
    for (const int m : comps[c]) {
      const NodeId node = members_[static_cast<std::size_t>(m)];
      if (low == kInvalidNode || node < low) low = node;
    }
    if (best < 0 || comps[c].size() > best_size ||
        (comps[c].size() == best_size && low < best_low)) {
      best = static_cast<int>(c);
      best_size = comps[c].size();
      best_low = low;
    }
  }
  if (best < 0) return {};
  return comps[static_cast<std::size_t>(best)];
}

std::vector<MembershipEvent> MembershipService::sweep(NodeId observer) {
  const std::size_t n = members_.size();
  int oi = -1;
  for (std::size_t m = 0; m < n; ++m)
    if (members_[m] == observer) oi = static_cast<int>(m);
  if (oi < 0) throw std::invalid_argument("sweep: observer is not a member");
  const std::vector<int> plur = plurality_members();
  const bool observer_plural =
      std::find(plur.begin(), plur.end(), oi) != plur.end();

  std::vector<MembershipEvent> out;
  for (std::size_t m = 0; m < n; ++m) {
    const int mi = static_cast<int>(m);
    if (state_[m] == MemberState::kCrashed) continue;
    if (state_[m] == MemberState::kUnreachable) {
      // Heal watch: an evicted-as-partitioned member that answers probes
      // again is offered back; the runtime decides whether to readmit.
      if (member_up(mi) && linked(oi, mi))
        out.push_back({MembershipEvent::Kind::kHealed, mi});
      continue;
    }
    bool renewed;
    if (mi == oi) {
      // The observer's own lease holds only while it sits in the plurality
      // component: a minority-side source must depose itself, never the
      // (unobservable) majority.
      renewed = member_up(mi) && observer_plural;
    } else if (!observer_plural) {
      // Minority observers adjudicate nobody else; the plurality side will
      // run its own detector after failover.
      continue;
    } else {
      renewed = member_up(mi) && linked(oi, mi);
    }
    if (renewed) {
      misses_[m] = 0;
      if (state_[m] == MemberState::kSuspect) {
        state_[m] = MemberState::kAlive;
        out.push_back({MembershipEvent::Kind::kClear, mi});
      }
      continue;
    }
    ++misses_[m];
    if (state_[m] == MemberState::kAlive && misses_[m] >= cfg_.suspect_after) {
      state_[m] = MemberState::kSuspect;
      out.push_back({MembershipEvent::Kind::kSuspect, mi});
    }
    if (misses_[m] >= cfg_.confirm_after) {
      // Classification: still round-trip reachable yet silent can only be
      // a fail-stop; otherwise every route crosses a down link.
      bool crashed;
      if (mi == oi)
        crashed = !member_up(mi);
      else
        crashed = linked(oi, mi);
      state_[m] = crashed ? MemberState::kCrashed : MemberState::kUnreachable;
      out.push_back({crashed ? MembershipEvent::Kind::kCrashed
                             : MembershipEvent::Kind::kUnreachable,
                     mi});
    }
  }
  if (recorder_ != nullptr) {
    const Time now = sim_.now();
    recorder_->record(obs::EventKind::kHeartbeat, now, observer,
                      static_cast<std::int32_t>(out.size()));
    for (const MembershipEvent& ev : out) {
      obs::EventKind k = obs::EventKind::kSuspect;
      switch (ev.kind) {
        case MembershipEvent::Kind::kSuspect:
          k = obs::EventKind::kSuspect;
          break;
        case MembershipEvent::Kind::kClear:
          k = obs::EventKind::kClear;
          break;
        case MembershipEvent::Kind::kCrashed:
          k = obs::EventKind::kConfirmCrashed;
          break;
        case MembershipEvent::Kind::kUnreachable:
          k = obs::EventKind::kConfirmUnreachable;
          break;
        case MembershipEvent::Kind::kHealed:
          k = obs::EventKind::kHealed;
          break;
      }
      recorder_->record(k, now, ev.member,
                        members_[static_cast<std::size_t>(ev.member)]);
    }
  }
  return out;
}

void MembershipService::evict(int member, bool unreachable) {
  state_[static_cast<std::size_t>(member)] =
      unreachable ? MemberState::kUnreachable : MemberState::kCrashed;
  misses_[static_cast<std::size_t>(member)] = 0;
}

void MembershipService::readmit(int member) {
  state_[static_cast<std::size_t>(member)] = MemberState::kAlive;
  misses_[static_cast<std::size_t>(member)] = 0;
}

}  // namespace pcm::rt
