#include "harness/harness.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/model.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"

namespace pcm::harness {

Options parse_options(std::span<const char* const> args) {
  Options opt;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string_view a = args[i];
    auto value = [&]() -> std::string_view {
      if (i + 1 >= args.size())
        throw std::invalid_argument("missing value for " + std::string(a));
      return args[++i];
    };
    if (a == "--help" || a == "-h") {
      opt.help = true;
    } else if (a == "--jobs" || a == "-j") {
      const std::string_view v = value();
      int jobs = 0;
      const auto [ptr, ec] = std::from_chars(v.data(), v.data() + v.size(), jobs);
      if (ec != std::errc{} || ptr != v.data() + v.size() || jobs < 1)
        throw std::invalid_argument("--jobs expects a positive integer, got '" +
                                    std::string(v) + "'");
      opt.jobs = jobs;
    } else if (a == "--json") {
      opt.json_path = std::string(value());
      if (opt.json_path.empty() || opt.json_path.substr(0, 2) == "--")
        throw std::invalid_argument("--json expects a file path");
    } else if (a == "--engine") {
      const std::string_view v = value();
      if (v == "cycle") {
        opt.engine = sim::EngineKind::kCycle;
      } else if (v == "event") {
        opt.engine = sim::EngineKind::kEvent;
      } else {
        throw std::invalid_argument("--engine expects 'cycle' or 'event', got '" +
                                    std::string(v) + "'");
      }
    } else if (a == "--faults") {
      opt.faults = std::string(value());
      try {
        (void)sim::FaultPlan::parse(opt.faults);
      } catch (const std::exception& e) {
        throw std::invalid_argument("bad --faults spec: " + std::string(e.what()));
      }
    } else if (a == "--trace") {
      opt.trace_path = std::string(value());
      if (opt.trace_path.empty() || opt.trace_path.substr(0, 2) == "--")
        throw std::invalid_argument("--trace expects a file path");
    } else if (a == "--metrics") {
      opt.metrics = true;
    } else {
      throw std::invalid_argument("unknown option '" + std::string(a) +
                                  "' (try --help)");
    }
  }
  return opt;
}

std::string bench_usage(const std::string& bench_name) {
  return bench_name +
         " — IPPS'97 multicast experiment (see EXPERIMENTS.md)\n\n"
         "usage: " +
         bench_name +
         " [options]\n"
         "  --jobs N     worker threads for the placement sweep\n"
         "               (default: one per hardware thread; 1 = serial;\n"
         "               results are bit-identical at any job count)\n"
         "  --json FILE  also write tables + wall-clock as JSON\n"
         "  --engine E   simulator kernel: 'cycle' (reference) or 'event'\n"
         "               (hybrid event-driven fast-forward; bit-identical\n"
         "               results, much faster on large topologies)\n"
         "  --faults SPEC  fault plan for fault-aware benches (clauses\n"
         "               link:R,P@C | node:N@C | drop:RATE | corrupt:RATE |\n"
         "               seed:S, ';'-separated); others ignore it\n"
         "  --trace FILE flight-recorder trace of every run (merged in\n"
         "               placement order; bit-identical at any --jobs and\n"
         "               across engines).  '.json' = Chrome trace-event\n"
         "               JSON (Perfetto), else compact binary (pcmtrace)\n"
         "  --metrics    derive deterministic metrics (occupancy, retry\n"
         "               depth, span histograms) from the trace and report\n"
         "               them (works without --trace)\n"
         "  --help       this text\n";
}

// --- JsonReport ---------------------------------------------------------

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_string_array(std::string& out, const std::vector<std::string>& xs) {
  out += '[';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ',';
    append_escaped(out, xs[i]);
  }
  out += ']';
}

}  // namespace

void JsonReport::set_meta(const std::string& key, const std::string& value) {
  for (auto& [k, v] : meta_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  meta_.emplace_back(key, value);
}

void JsonReport::add_table(const std::string& title, const std::string& csv_path,
                           const analysis::Table& table) {
  entries_.push_back(Entry{title, csv_path, table.headers(), table.rows()});
}

std::string JsonReport::to_json() const {
  std::string out;
  out += "{\n  \"bench\": ";
  append_escaped(out, name_);
  // Envelope contract (EXPERIMENTS.md): every report carries
  // schema_version plus the engine/seed/jobs meta, so downstream tooling
  // can parse all benches uniformly.
  out += ",\n  \"schema_version\": 1";
  out += ",\n  \"jobs\": " + std::to_string(jobs_);
  for (const auto& [key, value] : meta_) {
    out += ",\n  ";
    append_escaped(out, key);
    out += ": ";
    append_escaped(out, value);
  }
  {
    std::ostringstream ws;
    ws << wall_seconds_;
    out += ",\n  \"wall_seconds\": " + ws.str();
  }
  out += ",\n  \"tables\": [";
  for (std::size_t t = 0; t < entries_.size(); ++t) {
    const Entry& e = entries_[t];
    out += t == 0 ? "\n" : ",\n";
    out += "    {\"title\": ";
    append_escaped(out, e.title);
    if (!e.csv_path.empty()) {
      out += ", \"csv\": ";
      append_escaped(out, e.csv_path);
    }
    out += ",\n     \"headers\": ";
    append_string_array(out, e.headers);
    out += ",\n     \"rows\": [";
    for (std::size_t r = 0; r < e.rows.size(); ++r) {
      if (r != 0) out += ',';
      out += "\n       ";
      append_string_array(out, e.rows[r]);
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void JsonReport::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path + " for writing");
  f << to_json();
}

// --- Harness ------------------------------------------------------------

std::string engine_name(sim::EngineKind engine) {
  return engine == sim::EngineKind::kEvent ? "event" : "cycle";
}

void export_trace(const obs::FlightRecorder& recorder, const std::string& path,
                  std::ostream& os, std::ostream& err, const std::string& tool) {
  if (path.empty()) return;
  try {
    const std::vector<obs::TraceEvent> events = recorder.snapshot();
    obs::write_trace(path, events, recorder.events_dropped());
    os << "trace:   " << path << " (" << events.size() << " events";
    if (recorder.events_dropped() > 0)
      os << ", " << recorder.events_dropped() << " dropped by ring wrap";
    os << ")\n";
  } catch (const std::exception& e) {
    err << tool << ": " << e.what() << "\n";
  }
}

void write_report_tail(const ReportTail& tail, JsonReport& report, std::ostream& os,
                       std::ostream& err) {
  if (tail.csv_rows != nullptr && !tail.csv.empty()) {
    std::ofstream f(tail.csv);
    if (!f) throw std::runtime_error(tail.tool + ": cannot open " + tail.csv);
    f << tail.csv_rows->to_csv();
    os << "csv:     " << tail.csv << "\n";
  }
  if (tail.recorder != nullptr) {
    if (tail.metrics) {
      obs::MetricsRegistry reg;
      obs::populate_metrics(tail.recorder->snapshot(), reg);
      analysis::Table t({"metric", "value"});
      for (const obs::MetricSample& s : reg.snapshot()) t.add_row({s.name, s.value});
      const std::string title = "metrics (deterministic, from the flight recorder)";
      if (tail.bench_start) {
        os << "\n== " << title << " ==\n" << t.to_string();
        report.add_table(title, "", t);
      } else {
        os << "\n" << title << ":\n" << t.to_string();
        report.add_table("metrics", "", t);
      }
    }
    export_trace(*tail.recorder, tail.trace, os, err, tail.tool);
  }
  if (tail.json.empty()) return;
  if (tail.bench_start) {
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - *tail.bench_start;
    report.set_wall_seconds(wall.count());
  }
  report.write(tail.json);
  os << "json:    " << tail.json << "\n";
}

Harness::Harness(std::string bench_name, const Options& opt)
    : bench_name_(std::move(bench_name)),
      opt_(opt),
      pool_(opt.jobs),
      json_(bench_name_, pool_.jobs()),
      start_(std::chrono::steady_clock::now()) {
  json_.set_meta("engine", engine_name(opt_.engine));
  json_.set_meta("seed", std::to_string(kSeed));
  if (!opt_.trace_path.empty() || opt_.metrics)
    recorder_ = std::make_unique<obs::FlightRecorder>();
}

namespace {

Options parse_or_exit(const std::string& bench_name, int argc, char** argv) {
  try {
    const Options opt =
        parse_options(std::span<const char* const>(argv + 1, argv + argc));
    if (opt.help) {
      std::cout << bench_usage(bench_name);
      std::exit(0);
    }
    if (!opt.json_path.empty()) {
      // Fail fast: the report is written at exit, far too late to tell
      // the user their path is bad.
      std::ofstream probe(opt.json_path, std::ios::app);
      if (!probe)
        throw std::runtime_error("cannot open " + opt.json_path + " for writing");
    }
    if (!opt.trace_path.empty()) {
      std::ofstream probe(opt.trace_path, std::ios::app);
      if (!probe)
        throw std::runtime_error("cannot open " + opt.trace_path +
                                 " for writing");
    }
    return opt;
  } catch (const std::exception& e) {
    std::cerr << bench_name << ": " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace

Harness::Harness(std::string bench_name, int argc, char** argv)
    : Harness(bench_name, parse_or_exit(bench_name, argc, argv)) {}

Harness::~Harness() {
  try {
    ReportTail tail;
    tail.tool = bench_name_;
    tail.recorder = recorder_.get();
    tail.metrics = opt_.metrics;
    tail.trace = opt_.trace_path;
    tail.json = opt_.json_path;
    tail.bench_start = start_;
    write_report_tail(tail, json_, std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << bench_name_ << ": " << e.what() << "\n";
  }
}

Point Harness::run_point(const sim::Topology& topo, const MeshShape* shape,
                         const rt::MulticastRuntime& rtm, McastAlgorithm alg,
                         std::span<const analysis::Placement> placements,
                         Bytes payload) {
  const std::size_t n = placements.size();
  std::vector<double> lat(n), model(n), conflicts(n);
  traced_runs(
      n, [alg](std::size_t) { return alg; },
      [&](std::size_t i, obs::FlightRecorder* trace) {
        sim::Simulator sim(topo, sim_config());
        sim.set_observer(trace);
        const rt::McastResult res = rtm.run_algorithm(
            sim, alg, placements[i].source, placements[i].dests, payload, shape);
        lat[i] = static_cast<double>(res.latency);
        model[i] = static_cast<double>(res.model_latency);
        conflicts[i] = static_cast<double>(res.channel_conflicts);
      });
  Point pt;
  pt.latency = analysis::summarize(lat);
  pt.model = analysis::summarize(model);
  // Summed in placement order so the value is independent of the job
  // count (floating-point addition is not associative).
  double total = 0;
  for (const double c : conflicts) total += c;
  pt.mean_conflicts = n > 0 ? total / static_cast<double>(n) : 0;
  return pt;
}

void Harness::traced_runs(
    std::size_t n, const std::function<McastAlgorithm(std::size_t)>& alg_of,
    const std::function<void(std::size_t, obs::FlightRecorder*)>& body) {
  std::vector<std::unique_ptr<obs::FlightRecorder>> runs(recorder_ ? n : 0);
  pool_.parallel_for(n, [&](std::size_t i) {
    obs::FlightRecorder* trace = nullptr;
    if (recorder_) {
      runs[i] = std::make_unique<obs::FlightRecorder>(
          obs::RecorderConfig{obs::kRunRingCapacity});
      trace = runs[i].get();
      trace->record(obs::EventKind::kRunBegin, 0,
                    static_cast<std::int32_t>(run_counter_ + i),
                    static_cast<std::int32_t>(alg_of(i)));
    }
    body(i, trace);
  });
  if (recorder_) {
    for (const auto& run : runs) recorder_->append(*run);
    run_counter_ += n;
  }
}

void Harness::preamble(const std::string& what, const rt::RuntimeConfig& cfg,
                       Bytes ref_bytes, int reps) const {
  std::cout << what << "\n"
            << "machine: " << describe(cfg.machine, ref_bytes) << "\n"
            << "reps/point: " << reps << " random placements (seed " << kSeed
            << "), wormhole flit-level simulation\n"
            << "jobs:    " << jobs() << "\n"
            << "engine:  " << engine_name(opt_.engine) << "\n";
}

void Harness::report(const analysis::Table& t, const std::string& title,
                     const std::string& csv_path) {
  // Bench CSVs are named by bare filename; they land under results/
  // (gitignored) instead of littering the working directory.  A path the
  // caller qualified (anything containing '/') is honoured verbatim.
  std::string path = csv_path;
  if (!path.empty() && path.find('/') == std::string::npos) {
    std::error_code ec;
    std::filesystem::create_directories("results", ec);
    if (!ec) path = "results/" + path;
  }
  t.print(title, path);
  json_.add_table(title, path, t);
}

std::string size_label(Bytes b) {
  if (b % 1024 == 0) return std::to_string(b / 1024) + "k";
  return std::to_string(b);
}

}  // namespace pcm::harness
