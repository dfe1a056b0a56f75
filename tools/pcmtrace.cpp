// pcmtrace: inspect and compare binary flight-recorder traces (PCMT
// format, produced by `pcmcast --trace` and the bench harness); see
// --help.  Exit codes: dump/stats 0; diff 0 identical, 1 different;
// 2 usage or I/O error.
#include <exception>
#include <iostream>
#include <string_view>
#include <vector>

#include "cli/tools.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    const pcm::cli::TraceOptions opt =
        pcm::harness::parse_flags(pcm::cli::trace_flags(), args);
    return pcm::cli::run_trace_cli(opt, std::cout);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
