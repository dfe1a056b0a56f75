#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace pcm::obs {
namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

MetricsRegistry::Metric& MetricsRegistry::metric(std::string_view name,
                                                 Metric::Kind kind) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      if (m.kind != kind)
        throw std::logic_error("metric '" + m.name +
                               "' registered with a different kind");
      return m;
    }
  }
  Metric m;
  m.name = std::string(name);
  m.kind = kind;
  metrics_.push_back(std::move(m));
  return metrics_.back();
}

void MetricsRegistry::count(std::string_view name, long long delta) {
  metric(name, Metric::Kind::kCounter).count += delta;
}

void MetricsRegistry::gauge(std::string_view name, double value) {
  metric(name, Metric::Kind::kGauge).value = value;
}

void MetricsRegistry::observe(std::string_view name, Time bucket_width,
                              Time value) {
  if (bucket_width <= 0)
    throw std::invalid_argument("histogram bucket width must be > 0");
  Metric& m = metric(name, Metric::Kind::kHistogram);
  if (m.bucket_width == 0) m.bucket_width = bucket_width;
  if (m.bucket_width != bucket_width)
    throw std::logic_error("histogram '" + m.name +
                           "' observed with a different bucket width");
  const long long bucket =
      static_cast<long long>(value >= 0 ? value / bucket_width : -1);
  ++m.buckets[bucket];
  ++m.count;
  m.value += static_cast<double>(value);
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> out;
  for (const Metric& m : metrics_) {
    switch (m.kind) {
      case Metric::Kind::kCounter:
        out.push_back({m.name, std::to_string(m.count)});
        break;
      case Metric::Kind::kGauge:
        out.push_back({m.name, format_double(m.value)});
        break;
      case Metric::Kind::kHistogram: {
        out.push_back({m.name + ".count", std::to_string(m.count)});
        out.push_back({m.name + ".mean",
                       format_double(m.count == 0
                                         ? 0.0
                                         : m.value / static_cast<double>(
                                                         m.count))});
        for (const auto& [bucket, n] : m.buckets) {
          const long long lo = bucket * m.bucket_width;
          const long long hi = lo + m.bucket_width;
          out.push_back({m.name + "[" + std::to_string(lo) + "," +
                             std::to_string(hi) + ")",
                         std::to_string(n)});
        }
        break;
      }
    }
  }
  return out;
}

void populate_metrics(std::span<const TraceEvent> events,
                      MetricsRegistry& reg) {
  if (events.empty()) return;

  // Per-kind event counters, in kind order (deterministic and stable).
  std::map<std::uint16_t, long long> per_kind;
  for (const TraceEvent& ev : events) ++per_kind[ev.kind];
  for (const auto& [kind, n] : per_kind)
    reg.count(std::string("events.") +
                  event_kind_name(static_cast<EventKind>(kind)),
              n);

  // Observed cycle range (kRunBegin markers carry the merge structure, not
  // workload time, so they are excluded from the busy-fraction window).
  Time first = kTimeInfinity;
  Time last = 0;
  for (const TraceEvent& ev : events) {
    if (ev.event_kind() == EventKind::kRunBegin) continue;
    first = std::min(first, ev.cycle);
    last = std::max(last, ev.cycle);
  }
  const Time window = first == kTimeInfinity ? 0 : last - first + 1;

  // Channel busy cycles from closed reserve→release spans (kRelease.d).
  std::map<std::pair<std::int32_t, std::int32_t>, long long> busy;
  for (const TraceEvent& ev : events) {
    if (ev.event_kind() != EventKind::kRelease) continue;
    busy[{ev.a, ev.b}] += ev.d;
    reg.observe("hist.span_cycles", 16, ev.d);
  }
  if (!busy.empty() && window > 0) {
    double sum = 0;
    double peak = 0;
    for (const auto& [ch, cycles] : busy) {
      const double frac =
          static_cast<double>(cycles) / static_cast<double>(window);
      sum += frac;
      peak = std::max(peak, frac);
    }
    reg.gauge("channel.busy_frac.mean", sum / static_cast<double>(busy.size()));
    reg.gauge("channel.busy_frac.peak", peak);
    reg.count("channel.active", static_cast<long long>(busy.size()));
  }

  // Retry depth: attempt index of every send attempt (0 = first try).
  for (const TraceEvent& ev : events)
    if (ev.event_kind() == EventKind::kSendAttempt)
      reg.observe("hist.retry_depth", 1, ev.b);

  // Failover latency: fault application → failover commit, per failover.
  Time last_fault = -1;
  for (const TraceEvent& ev : events) {
    if (ev.event_kind() == EventKind::kFaultEvent) last_fault = ev.cycle;
    if (ev.event_kind() == EventKind::kFailover && last_fault >= 0)
      reg.observe("hist.failover_latency", 64, ev.cycle - last_fault);
  }

  // Streaming throughput: committed slots per thousand simulated cycles.
  long long commits = 0;
  for (const TraceEvent& ev : events)
    if (ev.event_kind() == EventKind::kSlotCommit) ++commits;
  if (commits > 0 && window > 0)
    reg.gauge("stream.slots_per_kcycle",
              1000.0 * static_cast<double>(commits) /
                  static_cast<double>(window));
}

}  // namespace pcm::obs
