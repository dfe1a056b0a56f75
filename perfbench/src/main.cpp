// perfbench: one closed-loop benchmark program for the simulator, the
// stream runtime and pcmlint (see README.md).
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|smoke] [--out DIR] [--commit ID]
//
// Builds the workload's inputs from the seed (the set-up, timed apart),
// then runs its ops one at a time in a seeded order, cycling over them
// for --seconds of wall time and until every op has run kMinRuns times;
// an op's host time is the fastest of its runs.  Output
// checks run outside the timed region, on the first run of every op;
// later runs of the same op must reproduce its output digest bit for bit.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 first runs the
// same op sequence untraced for half the time, then again with a span
// around every layer call and a flight recorder on every simulator, and
// reports the per-layer metrics plus the tracing overhead; the spans are
// written as Chrome trace-event JSON under --out.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics.  Exit codes: 0 ran (check "correct"), 2 usage error.
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rng.hpp"
#include "harness/harness.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = pcm::harness::kSeed;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = "perfbench/results";
  std::string commit = "unknown";
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--size full|smoke] [--out DIR] [--commit ID]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string v = argv[++i];
    const char* end = v.data() + v.size();
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (std::from_chars(v.data(), end, a.seed).ptr != end)
        usage_error("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      const auto r = std::from_chars(v.data(), end, a.seconds);
      if (r.ptr != end || r.ec != std::errc{} || !(a.seconds >= 0))
        usage_error("--seconds takes a non-negative number");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "smoke") usage_error("--size takes full or smoke");
      a.size = v == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--out") {
      a.out_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) usage_error("--workload is required");
  return a;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    out += (i == 0 ? "" : ", ") + json_string(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + json_string(ms[i].unit) + "}";
  return out + "}";
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return sorted[std::min(rank, sorted.size()) - 1];
}

/// The highest percentile with at least ten samples beyond it in one
/// pass.  Fixed by the workload's pass size, not by the run's sample
/// count, so every run of a workload reports the same percentile.
double tail_percentile(std::size_t pass_ops) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0})
    if (static_cast<double>(pass_ops) * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report
/// the launching interpreter's peak when that is larger.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Every op runs at least this many times per loop, its runs spread over
/// the loop; its host time is the fastest of them.  A shared host slows
/// the benchmark in bursts that can last seconds, so an op needs only one
/// undisturbed run, not a majority.
constexpr int kMinRuns = 3;

/// The CPUs this process may run on, taken in turn.  On a shared host each
/// CPU is slowed in turn by other tenants for seconds at a time, so
/// spreading an op's runs over CPUs (as well as over time) lets its
/// fastest run find an undisturbed one.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }

  /// Pins the calling thread to CPU number `turn` (modulo the CPU count).
  void pin(std::size_t turn) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[turn % cpus_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort: unpinned on failure
  }

 private:
  std::vector<int> cpus_;
};

/// The op loop's record of every op execution.
struct Loop {
  std::vector<std::size_t> op_index;  ///< op run, in execution order
  std::vector<double> op_ms;          ///< host time of each run
  std::int64_t timed_ns = 0;          ///< sum of op host times
  long long attempted = 0;
  long long failed = 0;

  /// Fastest host time of each op over its runs in this loop.
  [[nodiscard]] std::vector<double> per_op_ms(std::size_t ops) const {
    std::vector<double> best(ops, 0);
    for (std::size_t j = 0; j < op_index.size(); ++j) {
      double& b = best[op_index[j]];
      b = b == 0 ? op_ms[j] : std::min(b, op_ms[j]);
    }
    return best;
  }
};

class Runner {
 public:
  Runner(Workload& w, std::uint64_t seed) : w_(w) {
    order_.resize(w.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    // Seeded order: any stretch of the loop is a representative mix.
    pcm::analysis::Rng rng(pcm::harness::substream_seed(seed, 0x0bdeU));
    rng.shuffle(order_);
    runs_.assign(w.size(), 0);
    work_.assign(w.size(), 0);
    digest_.assign(w.size(), 0);
    bad_.assign(w.size(), false);
    short_ = w.size();
  }

  /// Runs ops in the cyclic order, starting over from its beginning, until
  /// `seconds` of wall time have passed and every op has run kMinRuns
  /// times -- or exactly `count` ops when count > 0.  The budget is wall
  /// time so that a run's length stays bounded on a busy host.  Returns
  /// the number of ops run.  `on_move`, when set, is called untimed after
  /// each move to the next CPU.
  std::size_t run(double seconds, std::size_t count, Tracer* tr, Loop& loop,
                  const std::function<void()>& on_move = {}) {
    const std::int64_t deadline = wall_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::size_t k = 0;
    for (;; ++k) {
      if (count > 0 ? k >= count : wall_ns() >= deadline && short_ == 0) break;
      // Move to the next CPU after every kSliceNs of op time: long ops move
      // every run, short ones keep warm caches for a few hundred runs.
      if (slice_ns_ >= kSliceNs || k == 0) {
        cpus_.pin(turn_++);
        slice_ns_ = 0;
        if (on_move) on_move();
      }
      const std::size_t i = order_[k % order_.size()];
      int span = -1;
      if (tr != nullptr) {
        tr->op = static_cast<int>(k);
        span = tr->log.open("op", -1, tr->op);
        tr->op_span = span;
      }
      const std::int64_t t0 = now_ns();
      const OpResult r = w_.run(i, tr);
      const std::int64_t t1 = now_ns();
      if (tr != nullptr) tr->log.close(span);
      loop.op_index.push_back(i);
      loop.op_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      loop.timed_ns += t1 - t0;
      slice_ns_ += t1 - t0;
      ++loop.attempted;
      if (runs_[i]++ == 0) {
        work_[i] = r.work;
        digest_[i] = r.digest;
        const std::string why = w_.check(i);
        if (!why.empty()) {
          bad_[i] = true;
          failures_.push_back(why);
        }
      } else if (r.digest != digest_[i] && !bad_[i]) {
        bad_[i] = true;
        failures_.push_back("op " + std::to_string(i) +
                            ": output digest changed between runs of one input");
      }
      if (runs_[i] == kMinRuns) --short_;
      if (bad_[i]) ++loop.failed;
    }
    return k;
  }

  /// Messages simulated (send windows derived) by one run of each op.
  [[nodiscard]] const std::vector<long long>& work() const { return work_; }

  /// FNV-1a over the per-op digests in op-index order.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t d : digest_)
      for (int b = 0; b < 8; ++b) {
        h ^= (d >> (8 * b)) & 0xffU;
        h *= 0x100000001b3ULL;
      }
    return h;
  }
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  static constexpr std::int64_t kSliceNs = 250'000'000;

  Workload& w_;
  CpuRotation cpus_;
  std::size_t turn_ = 0;
  std::int64_t slice_ns_ = 0;  ///< op time on the current CPU
  std::vector<std::size_t> order_;
  std::vector<int> runs_;
  std::vector<long long> work_;
  std::vector<std::uint64_t> digest_;
  std::vector<bool> bad_;
  std::size_t short_ = 0;  ///< ops that have not run kMinRuns times yet
  std::vector<std::string> failures_;
};

/// Per-layer metrics of a traced loop (see README.md for the map to the
/// end-to-end metrics they should move).
std::vector<Metric> layer_metrics(const Tracer& tr, double overhead,
                                  std::vector<Metric>& absolute) {
  const std::vector<Span>& spans = tr.log.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, double> busy;  // seconds per span name
  std::map<std::string, double> own;   // self seconds per span name
  for (std::size_t i = 0; i < spans.size(); ++i) {
    busy[spans[i].name] += static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e9;
    own[spans[i].name] += static_cast<double>(self[i]) / 1e9;
  }
  const double ops_s = busy["op"];
  auto share = [&](const char* name) { return ops_s > 0 ? 100.0 * busy[name] / ops_s : 0.0; };
  auto per = [](double s, long long n, double scale) {
    return n > 0 ? s * scale / static_cast<double>(n) : 0.0;
  };
  const double lint_s = busy["lint.tree"] + busy["lint.forest"] + busy["lint.offset"] +
                        busy["lint.stream"];
  const auto d = [](long long v) { return static_cast<double>(v); };

  absolute = {
      {"core.build_s", "s", busy["core.build"]},
      {"runtime.mcast_s", "s", busy["runtime.mcast"]},
      {"runtime.stream_s", "s", busy["runtime.stream"]},
      {"lint.tree_s", "s", busy["lint.tree"]},
      {"lint.forest_s", "s", busy["lint.forest"]},
      {"lint.offset_s", "s", busy["lint.offset"]},
      {"lint.stream_s", "s", busy["lint.stream"]},
      {"obs.export_s", "s", busy["obs.export"]},
      {"op_s", "s", ops_s},
      {"op.self_s", "s", own["op"]},
  };
  return {
      {"core.builds", "count", d(tr.core_builds)},
      {"core.build_share", "%", share("core.build")},
      {"core.us_per_build", "us/build", per(busy["core.build"], tr.core_builds, 1e6)},
      {"sim.messages", "count", d(tr.sim_messages)},
      {"sim.flit_hops", "count", d(tr.sim_flit_hops)},
      {"sim.cycles", "count", d(tr.sim_cycles)},
      {"sim.conflicts", "count", d(tr.sim_conflicts)},
      {"sim.ff_jumps", "count", d(tr.sim_ff_jumps)},
      {"sim.ff_cycles", "count", d(tr.sim_ff_cycles)},
      {"sim.stepped_cycles", "count", d(tr.sim_cycles - tr.sim_ff_cycles)},
      {"sim.ns_per_flit_hop", "ns/hop",
       per(busy["runtime.mcast"] + busy["runtime.stream"], tr.sim_flit_hops, 1e9)},
      {"runtime.mcasts", "count", d(tr.runtime_mcasts)},
      {"runtime.mcast_share", "%", share("runtime.mcast")},
      {"runtime.streams", "count", d(tr.runtime_streams)},
      {"runtime.stream_share", "%", share("runtime.stream")},
      {"runtime.slots", "count", d(tr.runtime_slots)},
      {"runtime.us_per_slot", "us/slot", per(busy["runtime.stream"], tr.runtime_slots, 1e6)},
      {"runtime.retries", "count", d(tr.runtime_retries)},
      {"runtime.retry_ratio", "ratio",
       tr.runtime_streams > 0 && tr.sim_messages > 0
           ? d(tr.runtime_retries) / d(tr.sim_messages)
           : 0.0},
      {"runtime.stale_acks", "count", d(tr.runtime_stale_acks)},
      {"runtime.epochs", "count", d(tr.runtime_epochs)},
      {"runtime.failovers", "count", d(tr.runtime_failovers)},
      {"lint.trees", "count", d(tr.lint_trees)},
      {"lint.tree_share", "%", share("lint.tree")},
      {"lint.forests", "count", d(tr.lint_forests)},
      {"lint.forest_share", "%", share("lint.forest")},
      {"lint.offsets", "count", d(tr.lint_offsets)},
      {"lint.offset_share", "%", share("lint.offset")},
      {"lint.streams", "count", d(tr.lint_streams)},
      {"lint.stream_share", "%", share("lint.stream")},
      {"lint.analyzed_slots", "count", d(tr.lint_analyzed_slots)},
      {"lint.sends", "count", d(tr.lint_sends)},
      {"lint.us_per_send", "us/send", per(lint_s, tr.lint_sends, 1e6)},
      {"obs.events", "count", d(tr.obs_events)},
      {"obs.dropped", "count", d(tr.obs_dropped)},
      {"obs.export_share", "%", share("obs.export")},
      {"obs.ns_per_event", "ns/event", per(busy["obs.export"], tr.obs_events, 1e9)},
      {"obs.trace_overhead", "x", overhead},
      {"op.self_share", "%", ops_s > 0 ? 100.0 * own["op"] / ops_s : 0.0},
  };
}

int run_main(int argc, char** argv) {
  wall_ns();  // start the wall clock at process start
  const Args args = parse_args(argc, argv);

  // Set-up: build the inputs the ops run on, then build them again each
  // time the untimed loop moves to the next CPU, and report the median.  A
  // shared host slows one CPU or another for seconds at a time; set-ups
  // spread over the whole run and every CPU do not all land in one slow
  // phase.
  std::vector<double> setup_runs;
  auto set_up = [&] {
    const std::int64_t t0 = now_ns();
    std::unique_ptr<Workload> built = make_workload(args.workload, args.seed, args.size);
    setup_runs.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return built;
  };
  const std::unique_ptr<Workload> w = set_up();
  if (!w) usage_error("unknown workload " + args.workload);
  const std::int64_t loop_wall = wall_ns();

  Runner runner(*w, args.seed);
  Loop loop;
  Loop traced;
  Tracer tracer;
  const std::size_t ran = runner.run(args.trace ? args.seconds / 2 : args.seconds, 0,
                                     nullptr, loop, [&] { set_up(); });
  const double wall_s = static_cast<double>(wall_ns() - loop_wall) / 1e9;
  std::vector<double> setup_s = setup_runs;
  std::sort(setup_s.begin(), setup_s.end());
  const std::int64_t traced_start = now_ns();
  if (args.trace) runner.run(0, ran, &tracer, traced);
  const std::int64_t traced_host = now_ns() - traced_start;

  // Host times are per-op bests over the op's runs; one sample per op.
  const std::size_t pass = w->size();
  const std::vector<double> op_ms = loop.per_op_ms(pass);
  std::vector<double> sorted = op_ms;
  std::sort(sorted.begin(), sorted.end());
  double op_s = 0;
  double work = 0;
  for (std::size_t i = 0; i < pass; ++i) {
    op_s += op_ms[i] / 1e3;
    work += static_cast<double>(runner.work()[i]);
  }
  const double tail_p = tail_percentile(pass);
  const long long attempted = loop.attempted + traced.attempted;
  const long long failed = loop.failed + traced.failed;

  const std::vector<Metric> e2e = {
      {"setup_s", "s", setup_s[setup_s.size() / 2]},
      {"msgs_per_s", "1/s", op_s > 0 ? work / op_s : 0},
      {"op_p50_ms", "ms", percentile(sorted, 50)},
      {"op_tail_ms", "ms", percentile(sorted, tail_p)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
  };
  std::vector<Metric> absolute;
  double overhead = 0;
  if (args.trace) {
    const std::vector<double> traced_ms = traced.per_op_ms(pass);
    double traced_s = 0;
    for (const double m : traced_ms) traced_s += m / 1e3;
    overhead = op_s > 0 ? traced_s / op_s : 0;
  }
  const std::vector<Metric> layers =
      args.trace ? layer_metrics(tracer, overhead, absolute) : std::vector<Metric>{};

  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(runner.digest()));
  const double fail_ratio =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;

  // --- human-readable report ----------------------------------------------
  std::cout << "perfbench " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << (args.trace ? 1 : 0) << "\n"
            << "env: nproc " << std::thread::hardware_concurrency() << ", compiler "
            << compiler() << ", build " << PERFBENCH_BUILD_TYPE << ", commit "
            << args.commit << ", seed " << args.seed << "\n"
            << "ops: " << pass << " per pass, " << loop.attempted
            << " timed runs (closed loop, one at a time, each op >= " << kMinRuns
            << " runs), first op " << static_cast<double>(loop_wall) / 1e9
            << " s wall after start\n"
            << "loop: " << static_cast<double>(loop.timed_ns) / 1e9
            << " s host (thread CPU) time in ops, " << wall_s << " s wall\n";
  auto print = [](const Metric& m, const std::string& note = "") {
    std::printf("  %-26s %16.6g %-9s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                note.c_str());
  };
  std::cout << "end-to-end (untraced):\n";
  for (const Metric& m : e2e) {
    std::string note;
    if (m.name == "setup_s")
      note = "median of " + std::to_string(setup_runs.size()) + " set-ups";
    if (m.name == "op_tail_ms")
      note = "p" + num(tail_p) + " of " + std::to_string(sorted.size()) +
             " per-op times";
    print(m, note);
  }
  print({"fail_ratio", "ratio", fail_ratio},
        std::to_string(failed) + " of " + std::to_string(attempted) + " ops");
  const std::vector<Metric> simulated = w->simulated();
  std::cout << "simulated / static (deterministic per seed):\n";
  for (const Metric& m : simulated) print(m);
  std::cout << "  digest                     " << digest << "\n";
  if (args.trace) {
    std::cout << "per-layer (traced, " << traced.attempted << " op runs):\n";
    for (const Metric& m : absolute) print(m);
    for (const Metric& m : layers) print(m);
    std::cout << "  op spans cover "
              << num(traced_host > 0 ? 100.0 * static_cast<double>(traced.timed_ns) /
                                           static_cast<double>(traced_host)
                                     : 0)
              << " % of the traced loop's host time\n";
  }
  for (const std::string& f : runner.failures()) std::cout << "FAILED " << f << "\n";

  // --- result file (and span file) ------------------------------------------
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  std::vector<Metric> all = e2e;
  all.push_back({"fail_ratio", "ratio", fail_ratio});
  all.insert(all.end(), simulated.begin(), simulated.end());
  all.insert(all.end(), absolute.begin(), absolute.end());
  all.insert(all.end(), layers.begin(), layers.end());
  {
    std::ofstream f(stem + ".json");
    f << "{\"workload\": " << json_string(args.workload) << ", \"seed\": " << args.seed
      << ", \"seconds\": " << num(args.seconds) << ", \"trace\": " << args.trace
      << ",\n \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(compiler())
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_string(args.commit) << ", \"seed\": " << args.seed
      << "},\n \"wall_s\": " << num(wall_s) << ", \"ops_per_pass\": " << pass
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"tail_percentile\": " << num(tail_p)
      << ", \"digest\": \"" << digest << "\",\n \"metrics\": " << metrics_json(all)
      << ",\n \"setup_runs_s\": [";
    for (std::size_t i = 0; i < setup_runs.size(); ++i)
      f << (i == 0 ? "" : ",") << num(setup_runs[i]);
    f << "],\n \"op_index\": [";
    for (std::size_t i = 0; i < loop.op_index.size(); ++i)
      f << (i == 0 ? "" : ",") << loop.op_index[i];
    f << "],\n \"op_ms\": [";
    for (std::size_t i = 0; i < loop.op_ms.size(); ++i)
      f << (i == 0 ? "" : ",") << num(loop.op_ms[i]);
    f << "],\n \"failures\": [";
    for (std::size_t i = 0; i < runner.failures().size(); ++i)
      f << (i == 0 ? "" : ", ") << json_string(runner.failures()[i]);
    f << "]}\n";
    if (!f) std::cerr << "perfbench: cannot write " << stem << ".json\n";
  }
  if (args.trace) {
    std::ofstream f(stem + ".spans.json");
    write_chrome_spans(f, tracer.log.spans());
    std::cout << "spans: " << stem << ".spans.json (" << tracer.log.spans().size()
              << " spans; open in ui.perfetto.dev)\n";
  }
  std::cout << "result: " << stem << ".json\n";

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(args.trace ? layers : e2e) << "}"
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
