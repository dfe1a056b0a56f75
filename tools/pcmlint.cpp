// pcmlint: static contention & deadlock analysis of multicast schedules.
//
// Accepts the same options as pcmcast (see --help) but never simulates a
// flit: every schedule is derived symbolically and interval-checked.
// v2 modes: --forest SPEC [--offset-search] certifies concurrent trees on
// a shared channel timeline; --stream N [--window W] reports the exact
// steady-state pipeline interval of the windowed streaming schedule.
// Exit codes: 0 all schedules certified clean, 1 diagnostics on an
// unguaranteed algorithm (or any forest/windowed-stream finding),
// 2 usage/internal error, 3 a Theorem 1-2 guaranteed algorithm was
// flagged (one-shot trees, or streams at window 1).
#include <exception>
#include <iostream>
#include <string_view>
#include <vector>

#include "cli/options.hpp"

int main(int argc, char** argv) {
  // Lead with --lint so parse_args applies the lint-mode validation rules
  // (e.g. --stream without an explicit placement is fine statically).
  std::vector<std::string_view> args{"--lint"};
  args.insert(args.end(), argv + 1, argv + argc);
  try {
    const pcm::cli::CliOptions opt = pcm::cli::parse_args(args, "pcmlint");
    return pcm::cli::run_lint_cli(opt, std::cout, "pcmlint");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
