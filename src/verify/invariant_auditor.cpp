#include "verify/invariant_auditor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace pcm::verify {

namespace {

std::string make_what(Invariant inv, const std::string& detail, Time cycle,
                      sim::MsgId msg, int router, int port) {
  std::ostringstream os;
  os << "invariant violation [" << invariant_name(inv) << "]: " << detail;
  if (cycle >= 0) os << " (cycle " << cycle;
  if (msg != sim::kInvalidMsg) os << (cycle >= 0 ? ", msg " : " (msg ") << msg;
  if (router >= 0) os << ", channel " << router << ":" << port;
  if (cycle >= 0 || msg != sim::kInvalidMsg || router >= 0) os << ")";
  return os.str();
}

/// An audit replays every protocol event of a run; a trace that lost
/// events to ring wrap could pass or fail for the wrong reason.
void require_whole_trace(std::uint64_t dropped) {
  if (dropped > 0)
    throw std::invalid_argument(
        "audit: the trace lost " + std::to_string(dropped) +
        " events to ring wrap (record audited runs with obs::kUnbounded)");
}

}  // namespace

const char* invariant_name(Invariant inv) {
  switch (inv) {
    case Invariant::kConservation: return "conservation";
    case Invariant::kPhantomDelivery: return "phantom-delivery";
    case Invariant::kPhantomDrop: return "phantom-drop";
    case Invariant::kCorruptionMismatch: return "corruption-mismatch";
    case Invariant::kChannelExclusivity: return "channel-exclusivity";
    case Invariant::kContentionFreedom: return "contention-freedom";
    case Invariant::kAckEpoch: return "ack-epoch";
    case Invariant::kResultConsistency: return "result-consistency";
    case Invariant::kWatchdogMismatch: return "watchdog-mismatch";
    case Invariant::kStreamOrder: return "stream-order";
    case Invariant::kStreamGap: return "stream-gap";
    case Invariant::kStreamEpoch: return "stream-epoch";
    case Invariant::kStreamWindow: return "stream-window";
  }
  return "?";
}

InvariantViolation::InvariantViolation(Invariant inv, std::string detail,
                                       Time cycle, sim::MsgId msg, int router,
                                       int port)
    : std::runtime_error(make_what(inv, detail, cycle, msg, router, port)),
      invariant_(inv),
      cycle_(cycle),
      msg_(msg),
      router_(router),
      port_(port) {}

bool guarantees_contention_free(McastAlgorithm alg) {
  return alg == McastAlgorithm::kOptMesh || alg == McastAlgorithm::kUMesh ||
         alg == McastAlgorithm::kOptMin || alg == McastAlgorithm::kUMin;
}

InvariantAuditor::InvariantAuditor(const sim::Topology& topo, AuditConfig cfg)
    : topo_(topo), cfg_(std::move(cfg)), radix_(topo.radix()) {
  holder_.assign(static_cast<std::size_t>(topo.num_routers()) * radix_,
                 sim::kInvalidMsg);
}

std::string InvariantAuditor::chan(int router, int port) const {
  return topo_.channel_name(router, port);
}

InvariantAuditor::Ledger& InvariantAuditor::known(sim::MsgId msg, Time t,
                                                  const char* where) {
  if (msg < 0 || static_cast<std::size_t>(msg) >= msgs_.size())
    throw InvariantViolation(Invariant::kPhantomDelivery,
                             std::string(where) + " for a message never posted", t,
                             msg);
  return msgs_[static_cast<std::size_t>(msg)];
}

void InvariantAuditor::on_post(const sim::Message& m, Time t) {
  if (m.id != static_cast<sim::MsgId>(msgs_.size()))
    throw InvariantViolation(Invariant::kConservation,
                             "post ids must be dense and append-only", t, m.id);
  if (m.flits < 1)
    throw InvariantViolation(Invariant::kConservation, "posted message with no flits",
                             t, m.id);
  msgs_.emplace_back();
  ++posted_;
}

void InvariantAuditor::on_deliver(const sim::Message& m, Time t) {
  Ledger& led = known(m.id, t, "delivery");
  if (led.terminal())
    throw InvariantViolation(Invariant::kPhantomDelivery,
                             "message delivered twice (or after a drop)", t, m.id);
  // Payload integrity: the corrupted flag must be exactly the plan's
  // pure-hash decision — anything else means the payload hash cannot
  // match what the sender injected.
  const bool should_corrupt =
      cfg_.plan_known && sim::plan_corrupts(cfg_.plan, m.id);
  if (m.corrupted != should_corrupt)
    throw InvariantViolation(
        Invariant::kCorruptionMismatch,
        m.corrupted ? "payload corrupted without a plan decision"
                    : "plan-corrupted payload delivered clean",
        t, m.id);
  if (cfg_.require_contention_free && led.blocked > 0)
    throw InvariantViolation(
        Invariant::kContentionFreedom,
        "delivered message was head-blocked " + std::to_string(led.blocked) +
            " cycles on a provably contention-free schedule",
        t, m.id);
  led.delivered = true;
  ++delivered_;
}

void InvariantAuditor::on_reserve(int router, int out_port, sim::MsgId msg, Time t) {
  Ledger& led = known(msg, t, "reservation");
  if (led.terminal())
    throw InvariantViolation(Invariant::kChannelExclusivity,
                             "terminal message reserved a channel", t, msg, router,
                             out_port);
  sim::MsgId& h = holder_[static_cast<std::size_t>(router) * radix_ + out_port];
  if (h != sim::kInvalidMsg)
    throw InvariantViolation(Invariant::kChannelExclusivity,
                             chan(router, out_port) + " reserved while held by msg " +
                                 std::to_string(h),
                             t, msg, router, out_port);
  h = msg;
}

void InvariantAuditor::on_release(int router, int out_port, sim::MsgId msg, Time t) {
  (void)known(msg, t, "release");
  sim::MsgId& h = holder_[static_cast<std::size_t>(router) * radix_ + out_port];
  if (h != msg)
    throw InvariantViolation(Invariant::kChannelExclusivity,
                             chan(router, out_port) + " released by msg " +
                                 std::to_string(msg) + " but held by msg " +
                                 std::to_string(h),
                             t, msg, router, out_port);
  h = sim::kInvalidMsg;
}

void InvariantAuditor::on_blocked(int router, int in_port, sim::MsgId msg, Time t) {
  Ledger& led = known(msg, t, "blocked event");
  if (led.terminal())
    throw InvariantViolation(Invariant::kChannelExclusivity,
                             "terminal message head-blocked", t, msg, router, in_port);
  ++led.blocked;
}

void InvariantAuditor::on_drop(sim::MsgId msg, sim::DropReason reason, Time t) {
  Ledger& led = known(msg, t, "drop");
  if (led.terminal())
    throw InvariantViolation(Invariant::kPhantomDrop, "message dropped twice", t, msg);
  if (reason == sim::DropReason::kNone)
    throw InvariantViolation(Invariant::kPhantomDrop, "drop without a reason", t, msg);
  if (!cfg_.plan_known)
    throw InvariantViolation(Invariant::kPhantomDrop,
                             std::string("message dropped (") +
                                 sim::drop_reason_name(reason) +
                                 ") on a run with no fault plan",
                             t, msg);
  // Purge order: every channel the worm held must have been released
  // before the drop notification.
  for (std::size_t c = 0; c < holder_.size(); ++c)
    if (holder_[c] == msg)
      throw InvariantViolation(Invariant::kChannelExclusivity,
                               "dropped message still holds " +
                                   chan(static_cast<int>(c) / radix_,
                                        static_cast<int>(c) % radix_),
                               t, msg, static_cast<int>(c) / radix_,
                               static_cast<int>(c) % radix_);
  led.dropped = true;
  ++dropped_;
}

void InvariantAuditor::on_fault_event(Time t) {
  if (!cfg_.plan_known)
    throw InvariantViolation(Invariant::kPhantomDrop,
                             "fault event applied on a run with no fault plan", t);
  ++fault_events_;
}

void InvariantAuditor::on_watchdog(const sim::WatchdogReport& report) {
  // The forensic report must agree with the ledger: same reservation
  // table, and every stalled message known and non-terminal.
  for (const sim::WatchdogReport::Reservation& r : report.reservations) {
    const std::size_t c = static_cast<std::size_t>(r.router) * radix_ + r.out_port;
    if (c >= holder_.size() || holder_[c] != r.holder)
      throw InvariantViolation(Invariant::kWatchdogMismatch,
                               "report reservation disagrees with ledger at " +
                                   chan(r.router, r.out_port),
                               report.cycle, r.holder, r.router, r.out_port);
  }
  std::size_t held = 0;
  for (const sim::MsgId h : holder_) held += (h != sim::kInvalidMsg);
  if (held != report.reservations.size())
    throw InvariantViolation(Invariant::kWatchdogMismatch,
                             "report lists " + std::to_string(report.reservations.size()) +
                                 " reservations, ledger holds " + std::to_string(held),
                             report.cycle);
  for (const sim::WatchdogReport::StalledMessage& s : report.stalled) {
    Ledger& led = known(s.msg, report.cycle, "watchdog stall entry");
    if (led.terminal())
      throw InvariantViolation(Invariant::kWatchdogMismatch,
                               "report lists a terminal message as stalled",
                               report.cycle, s.msg);
  }
  const int pending = posted_ - delivered_ - dropped_;
  if (static_cast<int>(report.stalled.size()) != pending)
    throw InvariantViolation(Invariant::kWatchdogMismatch,
                             "report stalls " + std::to_string(report.stalled.size()) +
                                 " messages, ledger has " + std::to_string(pending) +
                                 " pending",
                             report.cycle);
}

void InvariantAuditor::finalize(const sim::Simulator& sim) const {
  const sim::SimStats& s = sim.stats();
  // Conservation: injected = delivered + dropped + still-pending, and the
  // engine's own counters must agree with the independent ledger.
  if (s.messages_delivered != delivered_)
    throw InvariantViolation(Invariant::kConservation,
                             "SimStats delivered " +
                                 std::to_string(s.messages_delivered) +
                                 " != ledger " + std::to_string(delivered_));
  if (s.messages_dropped != dropped_)
    throw InvariantViolation(Invariant::kConservation,
                             "SimStats dropped " + std::to_string(s.messages_dropped) +
                                 " != ledger " + std::to_string(dropped_));
  const int pending = posted_ - delivered_ - dropped_;
  if (pending < 0 || (sim.idle() && pending != 0))
    throw InvariantViolation(Invariant::kConservation,
                             std::to_string(pending) +
                                 " messages unaccounted for on an idle network");
  if (sim.idle()) {
    for (std::size_t c = 0; c < holder_.size(); ++c)
      if (holder_[c] != sim::kInvalidMsg)
        throw InvariantViolation(Invariant::kChannelExclusivity,
                                 "channel still reserved on an idle network",
                                 sim.now(), holder_[c],
                                 static_cast<int>(c) / radix_,
                                 static_cast<int>(c) % radix_);
  }
  if (cfg_.require_contention_free) {
    for (std::size_t i = 0; i < msgs_.size(); ++i)
      if (msgs_[i].delivered && msgs_[i].blocked > 0)
        throw InvariantViolation(Invariant::kContentionFreedom,
                                 "delivered message was head-blocked " +
                                     std::to_string(msgs_[i].blocked) + " cycles",
                                 -1, static_cast<sim::MsgId>(i));
  }
}

void InvariantAuditor::audit_result(const rt::McastResult& res,
                                    std::span<const obs::TraceEvent> events,
                                    std::uint64_t dropped) {
  require_whole_trace(dropped);
  if (res.expected_dests <= 0) return;  // not a run_reliable result
  const int k = static_cast<int>(res.recv_complete.size());
  if (res.expected_dests != k - 1)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "expected_dests disagrees with the tree size");
  int delivered = 0;
  for (const Time t : res.recv_complete) delivered += (t >= 0);
  if (res.delivered_dests != delivered)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "delivered_dests " + std::to_string(res.delivered_dests) +
                                 " != " + std::to_string(delivered) +
                                 " positions with a receive time");
  if (res.complete != (delivered == res.expected_dests))
    throw InvariantViolation(Invariant::kResultConsistency,
                             "complete flag disagrees with delivered count");
  const double fraction =
      k > 0 ? static_cast<double>(1 + delivered) / static_cast<double>(k) : 1.0;
  if (res.delivered_fraction != fraction)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "delivered_fraction arithmetic mismatch");
  if (static_cast<int>(res.dead_nodes.size()) + delivered > res.expected_dests)
    throw InvariantViolation(
        Invariant::kResultConsistency,
        "dead + delivered exceeds the destination count (double-counted ack)");
  if (!std::is_sorted(res.dead_nodes.begin(), res.dead_nodes.end()) ||
      std::adjacent_find(res.dead_nodes.begin(), res.dead_nodes.end()) !=
          res.dead_nodes.end())
    throw InvariantViolation(Invariant::kResultConsistency,
                             "dead_nodes not sorted/unique");

  // Ack-epoch audit over the recorded send lifecycle (kSendAttempt /
  // kSendAcked: a = record, b = attempt).
  auto is_send = [](const obs::TraceEvent& ev) {
    return ev.event_kind() == obs::EventKind::kSendAttempt ||
           ev.event_kind() == obs::EventKind::kSendAcked;
  };
  int max_rec = -1;
  for (const obs::TraceEvent& ev : events)
    if (is_send(ev)) max_rec = std::max(max_rec, ev.a);
  std::vector<int> last_attempt(static_cast<std::size_t>(max_rec + 1), -1);
  std::vector<char> acked(static_cast<std::size_t>(max_rec + 1), 0);
  for (const obs::TraceEvent& ev : events) {
    if (!is_send(ev)) continue;
    const int rec = ev.a;
    const int attempt = ev.b;
    if (rec < 0)
      throw InvariantViolation(Invariant::kAckEpoch, "negative record index",
                               ev.cycle);
    int& last = last_attempt[static_cast<std::size_t>(rec)];
    char& got = acked[static_cast<std::size_t>(rec)];
    if (ev.event_kind() == obs::EventKind::kSendAttempt) {
      if (attempt != last + 1)
        throw InvariantViolation(Invariant::kAckEpoch,
                                 "record " + std::to_string(rec) +
                                     " issued attempt " + std::to_string(attempt) +
                                     " after attempt " + std::to_string(last) +
                                     " (epoch not monotonic)",
                                 ev.cycle);
      if (got)
        throw InvariantViolation(Invariant::kAckEpoch,
                                 "record " + std::to_string(rec) +
                                     " re-issued after its ack",
                                 ev.cycle);
      last = attempt;
    } else {
      if (last < 0)
        throw InvariantViolation(Invariant::kAckEpoch,
                                 "ack for record " + std::to_string(rec) +
                                     " with no issued attempt",
                                 ev.cycle);
      if (attempt > last)
        throw InvariantViolation(Invariant::kAckEpoch,
                                 "ack for attempt " + std::to_string(attempt) +
                                     " of record " + std::to_string(rec) +
                                     " which only reached attempt " +
                                     std::to_string(last),
                                 ev.cycle);
      if (got)
        throw InvariantViolation(Invariant::kAckEpoch,
                                 "record " + std::to_string(rec) +
                                     " acked twice (dropped-ack double count)",
                                 ev.cycle);
      got = 1;
    }
  }
}

void InvariantAuditor::audit_stream(const rt::StreamResult& res,
                                    std::span<const obs::TraceEvent> events,
                                    std::uint64_t dropped) {
  using obs::EventKind;
  require_whole_trace(dropped);
  const int k = static_cast<int>(res.delivered_prefix.size());
  const int slots = res.slots;
  if (slots < 1 || res.window_size < 1 || k < 2)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "stream result with no slots, window, or group");
  if (res.committed < 0 || res.committed > slots)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "committed outside [0, slots]");
  if (res.max_window_occupancy > res.window_size)
    throw InvariantViolation(
        Invariant::kStreamWindow,
        "max occupancy " + std::to_string(res.max_window_occupancy) +
            " exceeds window " + std::to_string(res.window_size));
  if (static_cast<int>(res.commit_time.size()) != slots)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "commit_time size disagrees with slots");
  Time prev = -1;
  for (int s = 0; s < slots; ++s) {
    const Time t = res.commit_time[static_cast<std::size_t>(s)];
    if (s < res.committed) {
      if (t < 0 || t < prev)
        throw InvariantViolation(Invariant::kStreamGap,
                                 "commit_time not monotone at slot " +
                                     std::to_string(s));
      prev = t;
    } else if (t >= 0) {
      throw InvariantViolation(Invariant::kResultConsistency,
                               "uncommitted slot " + std::to_string(s) +
                                   " has a commit time");
    }
  }
  for (int p = 0; p < k; ++p) {
    const int pre = res.delivered_prefix[static_cast<std::size_t>(p)];
    if (pre < 0 || pre > slots)
      throw InvariantViolation(Invariant::kResultConsistency,
                               "delivered_prefix outside [0, slots] at pos " +
                                   std::to_string(p));
  }
  // --- full trace replay ---
  // Per position: delivered slot set, last first-delivery slot.
  std::vector<std::vector<char>> got(
      static_cast<std::size_t>(k),
      std::vector<char>(static_cast<std::size_t>(slots), 0));
  std::vector<int> last_slot(static_cast<std::size_t>(k), -1);
  std::vector<char> dead(static_cast<std::size_t>(k), 0);
  std::vector<char> parted(static_cast<std::size_t>(k), 0);
  int epoch = 0;
  int injected = 0;
  int frontier = 0;
  int epochs_seen = 0;
  int stale_seen = 0;
  int failovers_seen = 0;
  int rejoins_seen = 0;
  int suspects_seen = 0;
  // The position currently allowed to produce (inject) slots: pinned by
  // the first kSlotInject, reassigned only by kFailover.  At most one
  // active source per epoch — an inject from anyone else is split brain.
  int producer = -1;
  // Every position that ever produced: the original source and each
  // failover successor, deposed or not.
  std::vector<char> produced(static_cast<std::size_t>(k), 0);
  // Membership sweeps: a kHeartbeat opens a sweep of `b` verdicts, all
  // recorded before the stream applies any.  The stream applies them in
  // order up to a confirm of its acting source; the failover (or halt)
  // ends the sweep, so the verdicts after that confirm were never applied.
  int sweep_left = 0;
  bool sweep_cut = false;
  auto replayed_prefix = [&](int p) {
    int pre = 0;
    while (pre < slots && got[static_cast<std::size_t>(p)][static_cast<std::size_t>(pre)])
      ++pre;
    return pre;
  };
  // Every epoch transition steps the epoch by exactly one.
  auto next_epoch = [&](int ep, Time t) {
    if (ep != epoch + 1)
      throw InvariantViolation(Invariant::kStreamEpoch,
                               "epoch stepped from " + std::to_string(epoch) +
                                   " to " + std::to_string(ep),
                               t);
    epoch = ep;
    ++epochs_seen;
  };
  // The trace is replayed in *protocol order* (the order the runtime's
  // state machine processed the events).  Timestamps are software
  // completion times and may legally interleave: a retransmitted slot's
  // delivery can carry an earlier `done` than an event recorded before it
  // (t_recv varies with the forwarded interval width).  Payloads follow
  // obs::EventKind; simulator and send-lifecycle events are skipped.
  for (const obs::TraceEvent& ev : events) {
    const Time t = ev.cycle;
    switch (ev.event_kind()) {
      case EventKind::kSlotInject: {
        const int slot = ev.a, ep = ev.b, pos = ev.c;
        if (pos < 0 || pos >= k)
          throw InvariantViolation(Invariant::kResultConsistency,
                                   "injection from outside the group", t);
        if (producer < 0) {
          producer = pos;
          produced[static_cast<std::size_t>(pos)] = 1;
        }
        if (pos != producer)
          throw InvariantViolation(
              Invariant::kStreamEpoch,
              "injection from pos " + std::to_string(pos) +
                  " but the acting source is pos " + std::to_string(producer) +
                  " (split brain / deposed source)",
              t);
        if (slot != injected)
          throw InvariantViolation(Invariant::kStreamOrder,
                                   "slot " + std::to_string(slot) +
                                       " injected out of order (expected " +
                                       std::to_string(injected) + ")",
                                   t);
        if (ep != epoch)
          throw InvariantViolation(Invariant::kStreamEpoch,
                                   "injection under epoch " + std::to_string(ep) +
                                       " while the group is at " +
                                       std::to_string(epoch),
                                   t);
        ++injected;
        if (injected - frontier > res.window_size)
          throw InvariantViolation(
              Invariant::kStreamWindow,
              "occupancy " + std::to_string(injected - frontier) +
                  " exceeds window " + std::to_string(res.window_size) +
                  " at slot " + std::to_string(slot),
              t);
        break;
      }
      case EventKind::kSlotDeliver: {
        const int slot = ev.a, ep = ev.b, pos = ev.c;
        if (ep != epoch)
          throw InvariantViolation(
              Invariant::kStreamEpoch,
              "delivery of slot " + std::to_string(slot) + " under epoch " +
                  std::to_string(ep) +
                  " advanced state while the group is at " +
                  std::to_string(epoch) + " (stale-epoch ack accepted)",
              t);
        if (pos < 0 || pos >= k || slot < 0 || slot >= slots)
          throw InvariantViolation(Invariant::kResultConsistency,
                                   "delivery outside the group/stream", t);
        char& cell =
            got[static_cast<std::size_t>(pos)][static_cast<std::size_t>(slot)];
        if (cell)
          throw InvariantViolation(Invariant::kStreamOrder,
                                   "slot " + std::to_string(slot) +
                                       " first-delivered twice at pos " +
                                       std::to_string(pos),
                                   t);
        cell = 1;
        last_slot[static_cast<std::size_t>(pos)] = slot;
        break;
      }
      case EventKind::kStaleAck:
        if (ev.b >= epoch)
          throw InvariantViolation(Invariant::kStreamEpoch,
                                   "stale ack carries epoch " +
                                       std::to_string(ev.b) +
                                       " but the group is only at " +
                                       std::to_string(epoch),
                                   t);
        ++stale_seen;
        break;
      case EventKind::kSlotCommit: {
        const int slot = ev.a;
        if (slot != frontier)
          throw InvariantViolation(Invariant::kStreamGap,
                                   "frontier advanced past slot " +
                                       std::to_string(slot) + " but stands at " +
                                       std::to_string(frontier),
                                   t);
        if (slot >= injected)
          throw InvariantViolation(Invariant::kStreamGap,
                                   "slot committed before it was injected", t);
        // Commit means every *surviving* receiver holds the slot.
        for (int p = 0; p < k; ++p) {
          if (dead[static_cast<std::size_t>(p)]) continue;
          // The acting source is not a receiver (any committed slot was
          // injected first, so `producer` is pinned by now).
          if (p == producer) continue;
          if (!got[static_cast<std::size_t>(p)][static_cast<std::size_t>(slot)])
            throw InvariantViolation(Invariant::kStreamGap,
                                     "slot " + std::to_string(slot) +
                                         " committed below surviving pos " +
                                         std::to_string(p) + "'s delivery",
                                     t);
        }
        ++frontier;
        break;
      }
      case EventKind::kEpochBump: {
        // c = 1: evicted as unreachable (rejoinable), else fail-stop.
        const int pos = ev.b;
        const bool partition = ev.c != 0;
        next_epoch(ev.a, t);
        if (pos < 0 || pos >= k || dead[static_cast<std::size_t>(pos)])
          throw InvariantViolation(
              Invariant::kStreamEpoch,
              partition ? "partition eviction names an invalid or already-dead "
                          "position"
                        : "epoch bump names an invalid or already-dead position",
              t);
        dead[static_cast<std::size_t>(pos)] = 1;
        if (partition) parted[static_cast<std::size_t>(pos)] = 1;
        break;
      }
      case EventKind::kRejoin: {
        const int pos = ev.b, prefix = ev.c;
        next_epoch(ev.a, t);
        if (pos < 0 || pos >= k || !parted[static_cast<std::size_t>(pos)])
          throw InvariantViolation(
              Invariant::kStreamEpoch,
              "rejoin of a position never evicted as unreachable (crashed "
              "members must not rejoin)",
              t);
        // Prefix continuity: the rejoiner resumes exactly where it stood.
        const int pre = replayed_prefix(pos);
        if (prefix != pre)
          throw InvariantViolation(
              Invariant::kStreamGap,
              "rejoin of pos " + std::to_string(pos) + " claims prefix " +
                  std::to_string(prefix) + " but the trace shows " +
                  std::to_string(pre),
              t);
        dead[static_cast<std::size_t>(pos)] = 0;
        parted[static_cast<std::size_t>(pos)] = 0;
        ++rejoins_seen;
        break;
      }
      case EventKind::kFailover: {
        const int pos = ev.b, prefix = ev.c;
        next_epoch(ev.a, t);
        if (pos < 0 || pos >= k || dead[static_cast<std::size_t>(pos)])
          throw InvariantViolation(Invariant::kStreamEpoch,
                                   "failover elects an invalid or dead successor",
                                   t);
        // Committed prefixes never regress across failover: the successor
        // must hold at least everything the group already committed.
        if (prefix < frontier)
          throw InvariantViolation(
              Invariant::kStreamGap,
              "failover successor prefix " + std::to_string(prefix) +
                  " regresses the committed frontier " +
                  std::to_string(frontier),
              t);
        const int pre = replayed_prefix(pos);
        if (prefix != pre)
          throw InvariantViolation(
              Invariant::kStreamGap,
              "failover claims successor prefix " + std::to_string(prefix) +
                  " but the trace shows " + std::to_string(pre),
              t);
        // The deposed source leaves the group; at most one active source
        // per epoch from here on.
        if (producer >= 0) dead[static_cast<std::size_t>(producer)] = 1;
        producer = pos;
        produced[static_cast<std::size_t>(pos)] = 1;
        ++failovers_seen;
        break;
      }
      case EventKind::kHeartbeat:
        sweep_left = ev.b;
        sweep_cut = false;
        break;
      case EventKind::kSuspect:
      case EventKind::kClear:
      case EventKind::kConfirmCrashed:
      case EventKind::kConfirmUnreachable:
      case EventKind::kHealed: {
        if (sweep_left-- <= 0)
          throw InvariantViolation(Invariant::kResultConsistency,
                                   "membership verdict outside a heartbeat sweep",
                                   t);
        if (sweep_cut) break;
        const EventKind kind = ev.event_kind();
        const int pos = ev.a;  // member index == original chain position
        if (kind == EventKind::kConfirmCrashed ||
            kind == EventKind::kConfirmUnreachable)
          sweep_cut = pos == producer;
        if (kind != EventKind::kSuspect && kind != EventKind::kClear) break;
        if (pos < 0 || pos >= k || dead[static_cast<std::size_t>(pos)])
          throw InvariantViolation(
              Invariant::kResultConsistency,
              kind == EventKind::kSuspect
                  ? "suspicion of an invalid or dead position"
                  : "suspicion cleared on an invalid or dead position",
              t);
        if (kind == EventKind::kSuspect) ++suspects_seen;
        break;
      }
      default:
        break;
    }
  }
  if (epoch != res.epoch || epochs_seen != res.epoch)
    throw InvariantViolation(Invariant::kStreamEpoch,
                             "trace epoch count disagrees with the result");
  if (frontier != res.committed)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "trace frontier disagrees with committed");
  if (stale_seen != res.stale_acks)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "trace stale-ack count disagrees with the result");
  if (failovers_seen != res.failovers)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "trace failover count disagrees with the result");
  if (rejoins_seen != res.rejoins)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "trace rejoin count disagrees with the result");
  if (suspects_seen != res.suspects)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "trace suspect count disagrees with the result");
  if (failovers_seen > 0 && producer >= 0 &&
      res.delivered_prefix[static_cast<std::size_t>(producer)] != slots)
    throw InvariantViolation(Invariant::kResultConsistency,
                             "acting source lacks the full stream");

  // Per-receiver checks over the replayed delivery sets.
  for (int p = 0; p < k; ++p) {
    const auto& row = got[static_cast<std::size_t>(p)];
    if (last_slot[static_cast<std::size_t>(p)] < 0) continue;  // source / silent
    // A failover successor's prefix is regenerated, not delivered; its
    // result row legally exceeds its replayed deliveries, also after a
    // later failover deposed it.
    if (produced[static_cast<std::size_t>(p)]) continue;
    // In-order first deliveries are a *healthy-run* promise: an epoch
    // replay delivers newer slots first, a retry ladder races slots that
    // slipped through a blip, and a halted stream's final drain can land
    // messages that sat blocked at a cut while earlier slots were dropped
    // (zero retries, zero epochs).  Every disturbed run carries at least
    // one of these witnesses.
    if (res.epoch == 0 && res.retries == 0 && res.suspects == 0 &&
        res.complete) {
      int expect = 0;
      for (int s = 0; s < slots; ++s)
        if (row[static_cast<std::size_t>(s)]) {
          if (s != expect)
            throw InvariantViolation(Invariant::kStreamOrder,
                                     "pos " + std::to_string(p) +
                                         " delivered slot " + std::to_string(s) +
                                         " before slot " + std::to_string(expect));
          ++expect;
        }
    }
    int pre = 0;
    while (pre < slots && row[static_cast<std::size_t>(pre)]) ++pre;
    if (pre != res.delivered_prefix[static_cast<std::size_t>(p)])
      throw InvariantViolation(Invariant::kStreamGap,
                               "delivered_prefix " +
                                   std::to_string(res.delivered_prefix
                                                      [static_cast<std::size_t>(p)]) +
                                   " at pos " + std::to_string(p) +
                                   " disagrees with the trace (" +
                                   std::to_string(pre) + ")");
  }
}

}  // namespace pcm::verify
