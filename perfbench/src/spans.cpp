#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

std::int64_t wall_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int SpanLog::open(const char* name, int parent, int op) {
  spans_.push_back({name, now_ns(), 0, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;  // end of the union covered so far
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, reach);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(e, s.end_ns));
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

void write_chrome_spans(std::ostream& os, const std::vector<Span>& spans) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Names are this program's own literals (no characters needing escapes).
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                  "\"args\":{\"span\":%zu,\"parent\":%d,\"op\":%d}}",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  s.op);
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
