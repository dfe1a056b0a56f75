// Command-line surfaces of pcmchaos (the seeded fault-scenario fuzzer)
// and pcmtrace (the flight-recorder trace inspector): their flag tables,
// which harness::parse_flags reads, and their drivers.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "verify/chaos.hpp"

namespace pcm::cli {

/// pcmchaos's options: the sweep's ChaosConfig plus the report flags.
struct ChaosOptions : verify::ChaosConfig {
  std::string json;    ///< --json PATH: also write the JSON report envelope
  bool quiet = false;  ///< --quiet: print only the summary line
  bool help = false;
};
harness::FlagTable<ChaosOptions> chaos_flags();

/// Runs the sweep and prints its report; returns 0 when every scenario
/// is clean, 1 when any invariant was violated.
int run_chaos_cli(const ChaosOptions& opt, std::ostream& os);

/// pcmtrace's options: `dump FILE`, `diff A B` or `stats FILE`, and the
/// flags of each command.
struct TraceOptions {
  std::vector<std::string> operands;            ///< the command, then its files
  std::optional<std::int64_t> msg;              ///< dump --msg M
  std::optional<harness::IntPair> channel;      ///< dump --channel R,P
  std::optional<harness::IntPair> cycle_range;  ///< dump --cycle-range A:B
  std::optional<std::int64_t> limit;            ///< dump --limit N
  std::string json;                             ///< stats --json PATH
  bool help = false;
};
/// The modes are the commands; a command with the wrong number of files
/// is a usage error.
harness::FlagTable<TraceOptions> trace_flags();

/// Runs the command; returns 0, or for diff 1 when the traces differ.
/// A file that cannot be read throws.
int run_trace_cli(const TraceOptions& opt, std::ostream& os);

}  // namespace pcm::cli
