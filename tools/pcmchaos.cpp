// pcmchaos: seeded random fault-scenario fuzzer for the multicast runtime.
//
// Generates scenarios from RNG substreams of (--seed, index), executes
// each under the InvariantAuditor, delta-debugs any failure to a minimal
// reproducer, and prints the `pcmcast --audit` command that replays it.
// The report is bit-identical at any --jobs value.  Exits 0 when every
// scenario is clean, 1 when any invariant was violated, 2 on bad usage.
#include <exception>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/table.hpp"
#include "harness/harness.hpp"
#include "harness/spec.hpp"
#include "verify/chaos.hpp"

namespace {

using pcm::harness::parse_int;
using pcm::harness::parse_uint_flag;

constexpr std::string_view kTool = "pcmchaos";
constexpr std::string_view kUsage =
    "pcmchaos — randomized fault-injection fuzzer with invariant auditing\n\n"
    "usage: pcmchaos [options]\n"
    "  --scenarios N   scenarios to run (default 1000)\n"
    "  --seed S        root seed; scenario i uses substream (S, i) (default 42)\n"
    "  --jobs N        worker threads (0 = one per hardware thread; default 0;\n"
    "                  results are identical at any N)\n"
    "  --minimize N    delta-debug at most N failures (default 5)\n"
    "  --stream        sweep streaming scenarios instead: multi-slot windowed\n"
    "                  streams with mid-stream faults, audited end to end\n"
    "                  (reproducers replay via pcmcast --stream)\n"
    "  --json PATH     also write the report as the unified JSON envelope\n"
    "                  (schema_version/engine/seed/jobs + summary table)\n"
    "  --quiet         only print the summary line\n"
    "  --help          this text\n";

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    pcm::verify::ChaosConfig cfg;
    bool quiet = false;
    std::string json_path;
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string_view a = args[i];
      auto value = [&]() -> std::string_view {
        if (i + 1 >= args.size())
          throw std::invalid_argument("pcmchaos: missing value for " +
                                      std::string(a));
        return args[++i];
      };
      if (a == "--help" || a == "-h") {
        std::cout << kUsage;
        return 0;
      } else if (a == "--scenarios") {
        cfg.scenarios =
            static_cast<int>(parse_uint_flag(a, value(), 0, 1'000'000, kTool));
      } else if (a == "--seed") {
        cfg.seed = static_cast<std::uint64_t>(parse_int(a, value(), kTool));
      } else if (a == "--jobs" || a == "-j") {
        cfg.jobs = static_cast<int>(parse_uint_flag(a, value(), 0, 4096, kTool));
      } else if (a == "--minimize") {
        cfg.max_minimized = static_cast<int>(
            parse_uint_flag(a, value(), 0, std::numeric_limits<int>::max(), kTool));
      } else if (a == "--stream") {
        cfg.streaming = true;
      } else if (a == "--json") {
        json_path = std::string(value());
      } else if (a == "--quiet") {
        quiet = true;
      } else {
        throw std::invalid_argument("pcmchaos: unknown option '" + std::string(a) +
                                    "' (try --help)");
      }
    }

    const pcm::verify::ChaosReport rep =
        pcm::verify::run_chaos(cfg, quiet ? nullptr : &std::cout);
    std::cout << "pcmchaos: " << rep.scenarios << " scenarios, seed " << cfg.seed
              << ": " << rep.violations << " violations (" << rep.watchdogs
              << " watchdogs), mean delivered "
              << pcm::analysis::Table::num(rep.mean_delivered, 4) << ", "
              << rep.retries << " retries, " << rep.repairs << " repairs, "
              << rep.dropped << " messages dropped";
    if (cfg.streaming)
      std::cout << ", " << rep.epochs << " epochs, " << rep.stale_acks
                << " stale acks, " << rep.failovers << " failovers, "
                << rep.rejoins << " rejoins";
    std::cout << "\n";
    if (!json_path.empty()) {
      // Same report envelope as pcmcast/pcmlint/pcmtrace.
      pcm::harness::JsonReport report("pcmchaos", cfg.jobs);
      report.set_meta("engine", "cycle");  // run_scenario uses pcmcast defaults
      report.set_meta("seed", std::to_string(cfg.seed));
      report.set_meta("mode", cfg.streaming ? "stream" : "one-shot");
      pcm::analysis::Table t({"scenarios", "violations", "watchdogs", "retries",
                              "repairs", "dropped", "epochs", "failovers",
                              "rejoins", "mean delivered"});
      t.add_row({std::to_string(rep.scenarios), std::to_string(rep.violations),
                 std::to_string(rep.watchdogs), std::to_string(rep.retries),
                 std::to_string(rep.repairs), std::to_string(rep.dropped),
                 std::to_string(rep.epochs), std::to_string(rep.failovers),
                 std::to_string(rep.rejoins),
                 pcm::analysis::Table::num(rep.mean_delivered, 4)});
      report.add_table("summary", "", t);
      report.write(json_path);
      std::cout << "json: " << json_path << "\n";
    }
    return rep.violations == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
