#include "obs/recorder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace pcm::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kRunBegin: return "run_begin";
    case EventKind::kPost: return "post";
    case EventKind::kReserve: return "reserve";
    case EventKind::kRelease: return "release";
    case EventKind::kBlocked: return "blocked";
    case EventKind::kDeliver: return "deliver";
    case EventKind::kDrop: return "drop";
    case EventKind::kFaultEvent: return "fault";
    case EventKind::kWatchdog: return "watchdog";
    case EventKind::kSendAttempt: return "send_attempt";
    case EventKind::kSendAcked: return "send_acked";
    case EventKind::kSlotInject: return "slot_inject";
    case EventKind::kSlotDeliver: return "slot_deliver";
    case EventKind::kSlotCommit: return "slot_commit";
    case EventKind::kStaleAck: return "stale_ack";
    case EventKind::kEpochBump: return "epoch_bump";
    case EventKind::kFailover: return "failover";
    case EventKind::kRejoin: return "rejoin";
    case EventKind::kHeartbeat: return "heartbeat";
    case EventKind::kSuspect: return "suspect";
    case EventKind::kClear: return "clear";
    case EventKind::kConfirmCrashed: return "confirm_crashed";
    case EventKind::kConfirmUnreachable: return "confirm_unreachable";
    case EventKind::kHealed: return "healed";
    case EventKind::kViolation: return "violation";
    case EventKind::kWait: return "wait";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(RecorderConfig cfg) : capacity_(cfg.capacity) {
  if (capacity_ == 0)
    throw std::invalid_argument("FlightRecorder: capacity must be > 0");
  // Reserve without touching: pages fault in as events arrive, so a
  // short run never pays a memset of the full capacity.
  if (capacity_ != kUnbounded) ring_.reserve(capacity_);
}

void FlightRecorder::record(EventKind k, Time t, std::int32_t a, std::int32_t b,
                            std::int32_t c, std::int32_t d) noexcept {
  TraceEvent ev;
  ev.cycle = t;
  ev.a = a;
  ev.b = b;
  ev.c = c;
  ev.d = d;
  ev.kind = static_cast<std::uint16_t>(k);
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);  // reallocates only when unbounded
  } else {
    ring_[head_] = ev;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  }
  ++recorded_;
}

Time* FlightRecorder::open_span_slot(int router, int out_port) {
  if (router < 0 || out_port < 0) return nullptr;
  const auto r = static_cast<std::size_t>(router);
  const auto p = static_cast<std::size_t>(out_port);
  if (r >= open_spans_.size()) open_spans_.resize(r + 1);
  std::vector<Time>& ports = open_spans_[r];
  if (p >= ports.size()) ports.resize(p + 1, -1);
  return &ports[p];
}

void FlightRecorder::on_post(const sim::Message& m, Time t) {
  record(EventKind::kPost, t, m.id, m.src, m.dst, m.flits);
  if (next_ != nullptr) next_->on_post(m, t);
}

void FlightRecorder::on_deliver(const sim::Message& m, Time t) {
  record(EventKind::kDeliver, t, m.id, m.src, m.dst, m.corrupted ? 1 : 0);
  if (next_ != nullptr) next_->on_deliver(m, t);
}

void FlightRecorder::on_reserve(int router, int out_port, sim::MsgId msg,
                                Time t) {
  record(EventKind::kReserve, t, router, out_port, msg);
  if (Time* slot = open_span_slot(router, out_port); slot != nullptr)
    *slot = t;
  if (next_ != nullptr) next_->on_reserve(router, out_port, msg, t);
}

void FlightRecorder::on_release(int router, int out_port, sim::MsgId msg,
                                Time t) {
  Time reserved_at = t;
  if (Time* slot = open_span_slot(router, out_port);
      slot != nullptr && *slot >= 0) {
    reserved_at = *slot;
    *slot = -1;
  }
  const Time span = t - reserved_at;
  record(EventKind::kRelease, t, router, out_port, msg,
         span <= std::numeric_limits<std::int32_t>::max()
             ? static_cast<std::int32_t>(span)
             : std::numeric_limits<std::int32_t>::max());
  if (next_ != nullptr) next_->on_release(router, out_port, msg, t);
}

void FlightRecorder::on_blocked(int router, int in_port, sim::MsgId msg,
                                Time t) {
  record(EventKind::kWait, t, router, in_port, msg);
  if (next_ != nullptr) next_->on_blocked(router, in_port, msg, t);
}

void FlightRecorder::on_drop(sim::MsgId msg, sim::DropReason reason, Time t) {
  record(EventKind::kDrop, t, msg, static_cast<std::int32_t>(reason));
  if (next_ != nullptr) next_->on_drop(msg, reason, t);
}

void FlightRecorder::on_fault_event(Time t) {
  record(EventKind::kFaultEvent, t);
  if (next_ != nullptr) next_->on_fault_event(t);
}

void FlightRecorder::on_watchdog(const sim::WatchdogReport& report) {
  record(EventKind::kWatchdog, report.cycle,
         report.stalled_cycles <= std::numeric_limits<std::int32_t>::max()
             ? static_cast<std::int32_t>(report.stalled_cycles)
             : std::numeric_limits<std::int32_t>::max());
  if (next_ != nullptr) next_->on_watchdog(report);
}

void FlightRecorder::on_fast_forward(Time from, Time to) {
  // Not recorded: the fast-forwarded interval is an engine artifact, not
  // an observable of the workload, so cycle- and event-engine traces stay
  // byte-identical.
  if (next_ != nullptr) next_->on_fast_forward(from, to);
}

std::vector<TraceEvent> FlightRecorder::snapshot() const {
  std::vector<TraceEvent> out;
  const std::size_t n = ring_.size();
  out.reserve(n);
  const std::size_t start = n < capacity_ ? 0 : head_;  // oldest entry
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(start),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(start));
  return out;
}

std::span<const TraceEvent> FlightRecorder::events(std::vector<TraceEvent>& scratch) const {
  if (head_ == 0) return ring_;
  scratch = snapshot();
  return scratch;
}

void FlightRecorder::append(const FlightRecorder& run) {
  const std::size_t n = run.ring_.size();
  const std::size_t start = n < run.capacity_ ? 0 : run.head_;
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEvent& ev = run.ring_[start + i < n ? start + i : start + i - n];
    if (ring_.size() < capacity_) {
      ring_.push_back(ev);
    } else {
      ring_[head_] = ev;
      head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    }
    ++recorded_;
  }
  recorded_ += run.events_dropped();  // wrapped-away events still count
}

void FlightRecorder::clear() {
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
  open_spans_.clear();
}

}  // namespace pcm::obs
