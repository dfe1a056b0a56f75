#include "obs/export.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace pcm::obs {
namespace {

constexpr char kMagic[8] = {'P', 'C', 'M', 'T', 'R', 'C', '\0', '\1'};

void put_u64(std::ostream& os, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  os.write(buf, 8);
}

std::uint64_t get_u64(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  if (!is) throw std::runtime_error("pcmtrace: truncated trace header");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

}  // namespace

void write_binary_trace(std::ostream& os, std::span<const TraceEvent> events,
                        std::uint64_t dropped) {
  os.write(kMagic, sizeof(kMagic));
  put_u64(os, events.size());
  put_u64(os, dropped);
  // TraceEvent is 32 bytes with explicit padding (static_asserted), so the
  // raw records *are* the canonical byte representation.
  if (!events.empty())
    os.write(reinterpret_cast<const char*>(events.data()),
             static_cast<std::streamsize>(events.size() * sizeof(TraceEvent)));
}

TraceFile read_binary_trace(std::istream& is) {
  char magic[8];
  is.read(magic, sizeof(magic));
  if (!is || std::memcmp(magic, kMagic, 6) != 0)
    throw std::runtime_error("pcmtrace: not a PCMT trace (bad magic)");
  if (magic[7] != kMagic[7])
    throw std::runtime_error("pcmtrace: unsupported trace version " +
                             std::to_string(static_cast<int>(magic[7])));
  TraceFile tf;
  const std::uint64_t count = get_u64(is);
  tf.dropped = get_u64(is);
  // The header count is untrusted: read in bounded chunks so memory only
  // grows as records actually arrive (and count * 32 is never formed).
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  while (tf.events.size() < count) {
    const std::size_t have = tf.events.size();
    const auto n = static_cast<std::size_t>(std::min(kChunk, count - have));
    tf.events.resize(have + n);
    is.read(reinterpret_cast<char*>(tf.events.data() + have),
            static_cast<std::streamsize>(n * sizeof(TraceEvent)));
    if (!is) throw std::runtime_error("pcmtrace: truncated trace payload");
  }
  return tf;
}

namespace {

std::string json_escape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out.push_back('\\');
    out.push_back(*s);
  }
  return out;
}

// One Chrome trace-event line.  ph "X" = complete span (needs dur),
// ph "i" = instant.  pid groups tracks; tid is the track within it.
void emit_chrome_event(std::ostream& os, bool& first, const char* name,
                       const char* ph, Time ts, Time dur, int pid, int tid,
                       const std::string& args) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << json_escape(name) << R"(","ph":")" << ph
     << R"(","ts":)" << ts << R"(,"pid":)" << pid << R"(,"tid":)" << tid;
  if (ph[0] == 'X') os << R"(,"dur":)" << (dur > 0 ? dur : 1);
  if (ph[0] == 'i') os << R"(,"s":"g")";
  os << R"(,"args":{)" << args << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events) {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Channel spans get pid 1, tid = a dense per-channel track id; all other
  // events land on pid 0 tracks keyed by layer so Perfetto groups them.
  std::map<std::pair<std::int32_t, std::int32_t>, int> channel_track;
  std::map<std::pair<std::int32_t, std::int32_t>, Time> open;
  for (const TraceEvent& ev : events) {
    std::ostringstream args;
    const EventKind k = ev.event_kind();
    switch (k) {
      case EventKind::kReserve:
        open[{ev.a, ev.b}] = ev.cycle;
        continue;  // rendered as the span at release
      case EventKind::kRelease: {
        const auto key = std::make_pair(ev.a, ev.b);
        Time begin = ev.cycle - ev.d;
        if (const auto it = open.find(key); it != open.end()) {
          begin = it->second;
          open.erase(it);
        }
        auto [track, inserted] =
            channel_track.try_emplace(key, static_cast<int>(channel_track.size()));
        if (inserted) {
          // Name the track once so Perfetto shows "router R port P".
          if (!first) os << ",\n";
          first = false;
          os << R"({"name":"thread_name","ph":"M","pid":1,"tid":)"
             << track->second << R"(,"args":{"name":"router )" << ev.a
             << " port " << ev.b << R"("}})";
        }
        args << R"("msg":)" << ev.c << R"(,"span":)" << ev.d;
        emit_chrome_event(os, first, ("msg " + std::to_string(ev.c)).c_str(),
                          "X", begin, ev.cycle - begin, 1, track->second,
                          args.str());
        continue;
      }
      default:
        break;
    }
    args << R"("a":)" << ev.a << R"(,"b":)" << ev.b << R"(,"c":)" << ev.c
         << R"(,"d":)" << ev.d;
    // Layer tracks: sim events on tid 0, runtime on 1, membership on 2,
    // violations on 3.
    int tid = 0;
    if (ev.kind >= static_cast<std::uint16_t>(EventKind::kSendAttempt))
      tid = 1;
    if (ev.kind >= static_cast<std::uint16_t>(EventKind::kHeartbeat)) tid = 2;
    if (k == EventKind::kViolation) tid = 3;
    emit_chrome_event(os, first, event_kind_name(k), "i", ev.cycle, 0, 0, tid,
                      args.str());
  }
  os << "\n]}\n";
}

void write_trace(const std::string& path, std::span<const TraceEvent> events,
                 std::uint64_t dropped) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open trace file: " + path);
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  if (json)
    write_chrome_trace(os, events);
  else
    write_binary_trace(os, events, dropped);
  if (!os) throw std::runtime_error("failed writing trace file: " + path);
}

std::string format_event(const TraceEvent& ev) {
  std::ostringstream os;
  os << "[" << ev.cycle << "] " << event_kind_name(ev.event_kind()) << " a="
     << ev.a << " b=" << ev.b << " c=" << ev.c << " d=" << ev.d;
  return os.str();
}

TraceDiff diff_traces(std::span<const TraceEvent> lhs,
                      std::span<const TraceEvent> rhs) {
  TraceDiff diff;
  const std::size_t n = std::min(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lhs[i] == rhs[i])) {
      diff.identical = false;
      diff.first_divergence = i;
      diff.detail = "record " + std::to_string(i) + ": " + format_event(lhs[i]) +
                    "  vs  " + format_event(rhs[i]);
      return diff;
    }
  }
  if (lhs.size() != rhs.size()) {
    diff.identical = false;
    diff.first_divergence = n;
    diff.detail = "length mismatch: " + std::to_string(lhs.size()) + " vs " +
                  std::to_string(rhs.size()) + " records";
  }
  return diff;
}

}  // namespace pcm::obs
