#include "sim/fault.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sim/topology.hpp"

namespace pcm::sim {

namespace {

[[noreturn]] void bad_spec(const std::string& clause, const char* why) {
  throw std::invalid_argument("bad --faults clause '" + clause + "': " + why);
}

/// Non-negative integer of type Int (times and ids as long long, the rate
/// seed as the full uint64_t range that to_spec() prints).
template <class Int = long long>
Int parse_int(const std::string& clause, std::string_view v, const char* what) {
  Int out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size() || std::cmp_less(out, 0))
    bad_spec(clause, (std::string(what) + " must be a non-negative integer").c_str());
  return out;
}

double parse_rate(const std::string& clause, std::string_view v) {
  double out = 0;
  const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc{} || ptr != v.data() + v.size() || out < 0.0 || out > 1.0)
    bad_spec(clause, "rate must be a number in [0, 1]");
  return out;
}

/// splitmix64 finalizer (same mixer the harness substreams use).
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Decision-family salts: one per rate so drop and corrupt decisions for
// the same message never correlate.
constexpr std::uint64_t kDropSalt = 1;
constexpr std::uint64_t kCorruptSalt = 2;

/// Shortest decimal form of `rate` that parses back to the same double,
/// so FaultPlan::parse(to_spec()) round-trips bit-exactly.
std::string rate_string(double rate) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, rate);
    double back = 0;
    const auto [ptr, ec] = std::from_chars(buf, buf + std::strlen(buf), back);
    (void)ptr;
    if (ec == std::errc{} && back == rate) break;
  }
  return buf;
}

}  // namespace

const char* drop_reason_name(DropReason r) {
  switch (r) {
    case DropReason::kNone: return "none";
    case DropReason::kLinkDown: return "link-down";
    case DropReason::kNodeDead: return "node-dead";
    case DropReason::kSenderDead: return "sender-dead";
    case DropReason::kFlitFault: return "flit-fault";
  }
  return "?";
}

double fault_uniform(std::uint64_t seed, std::uint64_t salt, std::uint64_t a,
                     std::uint64_t b) {
  const std::uint64_t h =
      mix(mix(seed + 0x9e3779b97f4a7c15ULL) ^ mix(salt) ^
          mix(a * 0xff51afd7ed558ccdULL + b + 0x2545f4914f6cdd1dULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::istringstream is(spec);
  std::string clause;
  bool any = false;
  while (std::getline(is, clause, ';')) {
    if (clause.empty()) bad_spec(spec, "empty clause");
    any = true;
    const std::size_t colon = clause.find(':');
    if (colon == std::string::npos) bad_spec(clause, "expected KIND:ARGS");
    const std::string kind = clause.substr(0, colon);
    const std::string args = clause.substr(colon + 1);
    if (kind == "link" || kind == "linkup") {
      const std::size_t comma = args.find(',');
      const std::size_t at = args.find('@');
      if (comma == std::string::npos || at == std::string::npos || at < comma)
        bad_spec(clause, "expected ROUTER,PORT@CYCLE");
      LinkEvent ev;
      ev.router = static_cast<int>(
          parse_int(clause, std::string_view(args).substr(0, comma), "router"));
      ev.port = static_cast<int>(parse_int(
          clause, std::string_view(args).substr(comma + 1, at - comma - 1), "port"));
      ev.cycle = parse_int(clause, std::string_view(args).substr(at + 1), "cycle");
      ev.up = (kind == "linkup");
      plan.link_events.push_back(ev);
    } else if (kind == "partition" || kind == "heal") {
      const std::size_t at = args.rfind('@');
      if (at == std::string::npos)
        bad_spec(clause, "expected R,P|R,P|...@CYCLE");
      CutEvent ev;
      ev.up = (kind == "heal");
      ev.cycle = parse_int(clause, std::string_view(args).substr(at + 1), "cycle");
      const std::string list = args.substr(0, at);
      std::size_t begin = 0;
      while (begin <= list.size()) {
        std::size_t bar = list.find('|', begin);
        if (bar == std::string::npos) bar = list.size();
        const std::string chan = list.substr(begin, bar - begin);
        begin = bar + 1;
        if (chan.empty()) bad_spec(clause, "empty ROUTER,PORT channel");
        const std::size_t comma = chan.find(',');
        if (comma == std::string::npos)
          bad_spec(clause, "expected ROUTER,PORT channel");
        CutChannel ch;
        ch.router = static_cast<int>(
            parse_int(clause, std::string_view(chan).substr(0, comma), "router"));
        ch.port = static_cast<int>(
            parse_int(clause, std::string_view(chan).substr(comma + 1), "port"));
        ev.channels.push_back(ch);
      }
      if (ev.channels.empty()) bad_spec(clause, "cut lists no channels");
      plan.cut_events.push_back(std::move(ev));
    } else if (kind == "node") {
      const std::size_t at = args.find('@');
      if (at == std::string::npos) bad_spec(clause, "expected NODE@CYCLE");
      NodeEvent ev;
      ev.node = static_cast<NodeId>(
          parse_int(clause, std::string_view(args).substr(0, at), "node"));
      ev.cycle = parse_int(clause, std::string_view(args).substr(at + 1), "cycle");
      plan.node_events.push_back(ev);
    } else if (kind == "drop") {
      plan.drop_rate = parse_rate(clause, args);
    } else if (kind == "corrupt") {
      plan.corrupt_rate = parse_rate(clause, args);
    } else if (kind == "seed") {
      plan.seed = parse_int<std::uint64_t>(clause, args, "seed");
    } else {
      bad_spec(clause,
               "unknown kind (link|linkup|node|partition|heal|drop|corrupt|seed)");
    }
  }
  if (!any)
    throw std::invalid_argument(
        "empty --faults spec (expected e.g. 'node:42@1500;drop:0.001')");
  return plan;
}

FaultPlan FaultPlan::partition(const Topology& topo,
                               const std::vector<NodeId>& region_a,
                               const std::vector<NodeId>& region_b, Time t_down,
                               Time t_up) {
  if (t_down < 0)
    throw std::invalid_argument("FaultPlan::partition: t_down must be >= 0");
  if (t_up >= 0 && t_up <= t_down)
    throw std::invalid_argument("FaultPlan::partition: t_up must follow t_down");
  const int nodes = topo.num_nodes();
  std::vector<signed char> side_of_node(static_cast<std::size_t>(nodes), -1);
  auto assign = [&](const std::vector<NodeId>& region, signed char side) {
    if (region.empty())
      throw std::invalid_argument("FaultPlan::partition: empty region");
    for (const NodeId n : region) {
      if (n < 0 || n >= nodes)
        throw std::invalid_argument("FaultPlan::partition: node outside topology");
      if (side_of_node[static_cast<std::size_t>(n)] != -1)
        throw std::invalid_argument(
            "FaultPlan::partition: node assigned to both regions");
      side_of_node[static_cast<std::size_t>(n)] = side;
    }
  };
  assign(region_a, 0);
  assign(region_b, 1);
  for (NodeId n = 0; n < nodes; ++n)
    if (side_of_node[static_cast<std::size_t>(n)] == -1)
      throw std::invalid_argument(
          "FaultPlan::partition: regions must jointly cover every node");
  // A router sits on the side of its attached node(s).  Indirect networks
  // have switch-only routers with no node-derived side; a region split is
  // not well-defined there.
  const int routers = topo.num_routers();
  const int radix = topo.radix();
  std::vector<signed char> side_of_router(static_cast<std::size_t>(routers), -1);
  for (NodeId n = 0; n < nodes; ++n) {
    const PortRef at = topo.node_attach(n);
    signed char& side = side_of_router[static_cast<std::size_t>(at.router)];
    const signed char want = side_of_node[static_cast<std::size_t>(n)];
    if (side != -1 && side != want)
      throw std::invalid_argument(
          "FaultPlan::partition: router hosts nodes from both regions");
    side = want;
  }
  for (int r = 0; r < routers; ++r)
    if (side_of_router[static_cast<std::size_t>(r)] == -1)
      throw std::invalid_argument(
          "FaultPlan::partition: switch-only router has no region side "
          "(partition cuts need a direct network)");
  // The minimal cut: exactly the directed channels crossing the boundary.
  CutEvent down;
  down.cycle = t_down;
  down.up = false;
  for (int r = 0; r < routers; ++r) {
    for (int q = 0; q < radix; ++q) {
      const PortRef dst = topo.link(r, q);
      if (!dst.valid()) continue;
      if (side_of_router[static_cast<std::size_t>(r)] !=
          side_of_router[static_cast<std::size_t>(dst.router)])
        down.channels.push_back(CutChannel{r, q});
    }
  }
  if (down.channels.empty())
    throw std::invalid_argument(
        "FaultPlan::partition: regions are not connected to each other");
  FaultPlan plan;
  if (t_up >= 0) {
    CutEvent up = down;
    up.cycle = t_up;
    up.up = true;
    plan.cut_events.push_back(std::move(down));
    plan.cut_events.push_back(std::move(up));
  } else {
    plan.cut_events.push_back(std::move(down));
  }
  return plan;
}

bool plan_corrupts(const FaultPlan& plan, int msg) {
  return plan.corrupt_rate > 0 &&
         fault_uniform(plan.seed, kCorruptSalt, static_cast<std::uint64_t>(msg), 0) <
             plan.corrupt_rate;
}

bool plan_drops(const FaultPlan& plan, int msg, int downstream_router) {
  return plan.drop_rate > 0 &&
         fault_uniform(plan.seed, kDropSalt, static_cast<std::uint64_t>(msg),
                       static_cast<std::uint64_t>(downstream_router)) <
             plan.drop_rate;
}

std::string FaultPlan::to_spec() const {
  std::ostringstream os;
  const char* sep = "";
  for (const LinkEvent& ev : link_events) {
    os << sep << (ev.up ? "linkup" : "link") << ':' << ev.router << ',' << ev.port
       << '@' << ev.cycle;
    sep = ";";
  }
  for (const NodeEvent& ev : node_events) {
    os << sep << "node:" << ev.node << '@' << ev.cycle;
    sep = ";";
  }
  for (const CutEvent& ev : cut_events) {
    os << sep << (ev.up ? "heal" : "partition") << ':';
    const char* bar = "";
    for (const CutChannel& ch : ev.channels) {
      os << bar << ch.router << ',' << ch.port;
      bar = "|";
    }
    os << '@' << ev.cycle;
    sep = ";";
  }
  if (drop_rate > 0) {
    os << sep << "drop:" << rate_string(drop_rate);
    sep = ";";
  }
  if (corrupt_rate > 0) {
    os << sep << "corrupt:" << rate_string(corrupt_rate);
    sep = ";";
  }
  // The seed only matters when a rate draws from it, but emitting it
  // whenever it is set keeps parse(to_spec()) == *this unconditionally.
  if (seed != 0) os << sep << "seed:" << seed;
  return os.str();
}

std::string FaultPlan::describe() const {
  std::ostringstream os;
  int links = 0, ups = 0;
  for (const LinkEvent& ev : link_events) (ev.up ? ups : links)++;
  os << "faults: " << links << " link-down, " << ups << " link-up, "
     << node_events.size() << " node-fail";
  if (!cut_events.empty()) {
    int cuts = 0, heals = 0;
    for (const CutEvent& ev : cut_events) (ev.up ? heals : cuts)++;
    os << ", " << cuts << " partition, " << heals << " heal";
  }
  if (drop_rate > 0) os << ", drop=" << drop_rate;
  if (corrupt_rate > 0) os << ", corrupt=" << corrupt_rate;
  if (drop_rate > 0 || corrupt_rate > 0) os << ", seed=" << seed;
  return os.str();
}

}  // namespace pcm::sim
