// pcmchaos: seeded random fault-scenario fuzzer for the multicast runtime
// (see --help and cli/tools.hpp).  Exits 0 when every scenario is clean,
// 1 when any invariant was violated, 2 on bad usage.
#include <exception>
#include <iostream>
#include <string_view>
#include <vector>

#include "cli/tools.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string_view> args(argv + 1, argv + argc);
  try {
    const pcm::cli::ChaosOptions opt =
        pcm::harness::parse_flags(pcm::cli::chaos_flags(), args);
    return pcm::cli::run_chaos_cli(opt, std::cout);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
