// The flag grammar of the command-line tools: which flag combinations
// parse and which are usage errors.
//
// AcceptRejectMatrixIsPinned runs every pcmcast flag alone and every pair
// of flags, each with one valid value, through parse_args on top of the
// base argv of each of the five modes, and compares which cells throw
// std::invalid_argument with a matrix recorded from the hand-written
// parser this grammar replaced.  The bench flags are pinned the same way
// through parse_options.  MutatedArgvOnlyThrowsInvalidArgument walks
// every tool's flag table with a seeded argv mutator.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/rng.hpp"
#include "cli/options.hpp"
#include "cli/tools.hpp"
#include "harness/harness.hpp"

namespace pcm {
namespace {

/// A flag with one valid value (nullptr for a switch).
struct FlagArg {
  const char* flag;
  const char* value;
};

constexpr FlagArg kCliFlags[] = {
    {"--help", nullptr},         {"--topology", "mesh:8"},
    {"--algorithm", "u-mesh"},   {"--nodes", "8"},
    {"--bytes", "256"},          {"--reps", "2"},
    {"--seed", "7"},             {"--collective", "reduce"},
    {"--compare", nullptr},      {"--gantt", nullptr},
    {"--faults", "node:3@100"},  {"--max-retries", "5"},
    {"--allow-partial", nullptr}, {"--audit", nullptr},
    {"--lint", nullptr},         {"--forest", "0:opt-mesh:0:1,2"},
    {"--offset-search", nullptr}, {"--source", "0"},
    {"--dests", "1,2"},          {"--stream", "4"},
    {"--window", "2"},           {"--heartbeat", "500"},
    {"--failover", nullptr},     {"--rejoin", nullptr},
    {"--shuffle-chain", nullptr}, {"--csv", "out.csv"},
    {"--json", "out.json"},      {"--trace", "out.pcmt"},
    {"--metrics", nullptr},      {"--engine", "event"},
    {"--jobs", "2"},             {"--probe", nullptr},
};

constexpr FlagArg kBenchFlags[] = {
    {"--help", nullptr},        {"--jobs", "2"},         {"--json", "out.json"},
    {"--engine", "event"},      {"--faults", "node:3@100"},
    {"--trace", "out.pcmt"},    {"--metrics", nullptr},
};

/// The base argv of each pcmcast mode; pcmlint runs the --lint ones.
const std::vector<std::vector<const char*>> kModeBases = {
    {},                                                // one-shot
    {"--stream", "4", "--source", "0", "--dests", "1"},  // --stream
    {"--lint"},                                        // --lint
    {"--lint", "--forest", "0:opt-mesh:0:1,2"},        // --lint --forest
    {"--lint", "--stream", "4"},                       // --lint --stream
};

void push(std::vector<std::string_view>& args, const FlagArg& f) {
  args.emplace_back(f.flag);
  if (f.value != nullptr) args.emplace_back(f.value);
}

/// Row i, column j: 'x' when the base plus flags i and j (flag i alone on
/// the diagonal) is rejected, '.' when it parses.
template <class Parse>
std::vector<std::string> matrix(std::span<const FlagArg> flags,
                                const std::vector<const char*>& base, Parse parse) {
  std::vector<std::string> rows(flags.size(), std::string(flags.size(), '.'));
  for (std::size_t i = 0; i < flags.size(); ++i) {
    for (std::size_t j = 0; j < flags.size(); ++j) {
      std::vector<std::string_view> args(base.begin(), base.end());
      push(args, flags[i]);
      if (j != i) push(args, flags[j]);
      try {
        parse(args);
      } catch (const std::invalid_argument&) {
        rows[i][j] = 'x';
      }
    }
  }
  return rows;
}

std::string show(const std::vector<std::string>& rows) {
  std::string out;
  for (const std::string& r : rows) out += "      \"" + r + "\",\n";
  return out;
}

// clang-format off
const std::vector<std::vector<std::string>> kCliMatrix = {
    {  // one-shot
      "................................",
      "...............xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "..........x..xxxxxxxxxxxx.......",
      "...............xxxxxxxxx........",
      "..............xxxxxxxxxx........",
      ".......x......xxxxxxxxxx........",
      "..............xxxxxxxxxx........",
      "..............xxxxxxxxxx........",
      ".......x......xxxxxxxxxx........",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".xxxxxxxxxxxxx.xxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxx.xxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxx.xxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxx.xxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.......xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "...............xxxxxxxxx........",
      "..............xxxxxxxxxx........",
      "..............xxxxxxxxxx........",
      "..............xxxxxxxxxx........",
      "..............xxxxxxxxxx........",
      "..............xxxxxxxxxx........",
    },
    {  // --stream
      "................................",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxx.xxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......xxx....xxx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".......x.xxxxx.xx....xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx....xxx.......x......x",
      ".xxxxxxxxxxxxxxxxxxxx.xxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxx.xxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......xxx.....xx.....xxx......x",
      ".......xxx.....xx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".......xxx....xxx.....xxx......x",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    },
    {  // --lint
      "................................",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxx.xxxx...xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".xxxxxxxxxxxxxx.xxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxx.xxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxx.xxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxx.xxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxxxxxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".......x.xxxxx..xxx.xxxx...xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    },
    {  // --lint --forest
      "................................",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".......xxxxxxx...xxxxxxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    },
    {  // --lint --stream
      "................................",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxx.xxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxx.xxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".......x.xxxxx.xxxx..xxxx..xxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
      ".xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
    },
};

const std::vector<std::string> kBenchMatrix = {
    ".......",
    ".......",
    ".......",
    ".......",
    ".......",
    ".......",
    ".......",
};
// clang-format on

TEST(CliFlags, AcceptRejectMatrixIsPinned) {
  const auto parse_cli = [](std::span<const std::string_view> args) {
    (void)cli::parse_args(args);
  };
  for (std::size_t m = 0; m < kModeBases.size(); ++m) {
    const std::vector<std::string> got = matrix(kCliFlags, kModeBases[m], parse_cli);
    EXPECT_EQ(got, kCliMatrix[m]) << "mode " << m << ":\n" << show(got);
  }
  const auto parse_bench = [](std::span<const std::string_view> args) {
    std::vector<const char*> argv;
    std::vector<std::string> owned(args.begin(), args.end());
    for (const std::string& a : owned) argv.push_back(a.c_str());
    (void)harness::parse_options(argv);
  };
  const std::vector<std::string> got = matrix(kBenchFlags, {}, parse_bench);
  EXPECT_EQ(got, kBenchMatrix) << "bench:\n" << show(got);
}

std::string usage_error_of(const std::function<void()>& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CliFlags, AValueNeverStartsWithDashes) {
  // "--json --quiet" is a missing path, not a report written to a file
  // named "--quiet", in every tool.
  const auto chaos = [](std::vector<std::string_view> args) {
    return usage_error_of([&] { (void)harness::parse_flags(cli::chaos_flags(), args); });
  };
  const auto trace = [](std::vector<std::string_view> args) {
    return usage_error_of([&] { (void)harness::parse_flags(cli::trace_flags(), args); });
  };
  EXPECT_EQ(chaos({"--scenarios", "1", "--json", "--quiet"}),
            "pcmchaos: missing value for --json");
  EXPECT_EQ(chaos({"-j", "--stream"}), "pcmchaos: missing value for -j");
  EXPECT_EQ(trace({"stats", "t.pcmt", "--json", "--limit"}),
            "pcmtrace: missing value for --json");
  EXPECT_EQ(usage_error_of([] { (void)cli::parse_args(std::vector<std::string_view>{
                                    "--csv", "--gantt"}); }),
            "pcmcast: missing value for --csv");
  const char* bench[] = {"--trace", "--metrics"};
  EXPECT_EQ(usage_error_of([&] { (void)harness::parse_options(bench, "bench_x"); }),
            "bench_x: missing value for --trace");
}

TEST(CliFlags, PcmtraceCommandsTakeOnlyTheirFlags) {
  const cli::TraceOptions parsed = harness::parse_flags(
      cli::trace_flags(), std::vector<std::string_view>{"dump", "t.pcmt", "--channel",
                                                        "3,1", "--cycle-range", "5:9"});
  EXPECT_EQ(parsed.operands, (std::vector<std::string>{"dump", "t.pcmt"}));
  EXPECT_EQ(parsed.channel, (harness::IntPair{3, 1}));
  EXPECT_EQ(parsed.cycle_range, (harness::IntPair{5, 9}));
  const std::vector<std::vector<std::string_view>> commands = {
      {"dump", "t.pcmt"}, {"diff", "a.pcmt", "b.pcmt"}, {"stats", "t.pcmt"}};
  const std::vector<std::vector<std::string_view>> flags = {
      {"--msg", "3"}, {"--channel", "1,2"}, {"--cycle-range", "0:5"}, {"--limit", "4"},
      {"--json", "out.json"}};
  // Row: command; column: flag; 'x' = a usage error naming both.
  const std::vector<std::string> expected = {"....x", "xxxxx", "xxxx."};
  for (std::size_t c = 0; c < commands.size(); ++c) {
    for (std::size_t f = 0; f < flags.size(); ++f) {
      std::vector<std::string_view> args = commands[c];
      args.insert(args.end(), flags[f].begin(), flags[f].end());
      const std::string err = usage_error_of(
          [&] { (void)harness::parse_flags(cli::trace_flags(), args); });
      EXPECT_EQ(err.empty() ? '.' : 'x', expected[c][f]) << err;
      if (!err.empty()) {
        EXPECT_EQ(err, "pcmtrace: " + std::string(flags[f][0]) + " does not apply to " +
                           std::string(commands[c][0]) + " (only to " +
                           (f == 4 ? "stats" : "dump") + ")");
      }
    }
  }
  for (const std::vector<std::string_view>& args :
       std::vector<std::vector<std::string_view>>{
           {}, {"view", "t.pcmt"}, {"dump"}, {"diff", "a.pcmt"}, {"stats", "a", "b"}})
    EXPECT_TRUE(usage_error_of([&] {
                  (void)harness::parse_flags(cli::trace_flags(), args);
                }).starts_with("pcmtrace: "));
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(CliFlags, HelpIsPrintedFromTheTables) {
  // Byte-identical to the hand-formatted usage texts the tables replaced;
  // pcmlint's differs from pcmcast's only in its first four lines, and
  // pcmtrace's lists its flags in one table.
  EXPECT_EQ(fnv1a(harness::flag_usage(cli::cli_flags())), 0x3a3bfd84e4bd3579ULL);
  EXPECT_EQ(fnv1a(harness::flag_usage(cli::chaos_flags())), 0x3cb7d3ccfa7e18c8ULL);
  EXPECT_EQ(fnv1a(harness::flag_usage(harness::bench_flags("bench_fig1_example"))),
            0xebd659c97f2ab5abULL);
  const std::string cast = harness::flag_usage(cli::cli_flags());
  const std::string lint = harness::flag_usage(cli::cli_flags("pcmlint"));
  EXPECT_TRUE(lint.starts_with("pcmlint — "));
  EXPECT_NE(lint.find("usage: pcmlint [options]\n"), std::string::npos);
  EXPECT_EQ(lint.substr(lint.find("  --topology")), cast.substr(cast.find("  --topology")));
  const std::string trace = harness::flag_usage(cli::trace_flags());
  for (const auto& f : cli::trace_flags().flags)
    EXPECT_NE(trace.find("  " + std::string(f.name) + " "), std::string::npos) << f.name;
}

// --- the seeded argv mutator -------------------------------------------------

/// `v + by` as text, past the int64 range too.
std::string shifted(std::int64_t v, int by) {
  if (by < 0 && v == std::numeric_limits<std::int64_t>::min()) return "-9223372036854775809";
  if (by > 0 && v == std::numeric_limits<std::int64_t>::max()) return "9223372036854775808";
  return std::to_string(v + by);
}

/// Values for `f`: a valid one first, then malformed, out-of-range and
/// "--"-prefixed ones.  Switches take none.
template <class Opts>
std::vector<std::string> values_for(const harness::Flag<Opts>& f) {
  return std::visit(
      [&](auto field) -> std::vector<std::string> {
        using T = std::remove_reference_t<decltype(std::declval<Opts&>().*field)>;
        const std::string lo = std::to_string(f.lo), hi = std::to_string(f.hi);
        const std::vector<std::string> bad = {"", "--x", "-", "abc", "1x", " 1",
                                              "9223372036854775808", "-9223372036854775809"};
        std::vector<std::string> out;
        if constexpr (std::is_same_v<T, bool>) {
          return {};
        } else if constexpr (std::is_same_v<T, std::string>) {
          out = {"x", "mesh:8", "0:opt-mesh:0:1,2", "node:3@100", "1,2", "reduce"};
        } else if constexpr (std::is_same_v<T, sim::EngineKind>) {
          out = {"event", "cycle", "warp", "EVENT"};
        } else if constexpr (std::is_same_v<T, std::optional<harness::IntPair>>) {
          const std::string sep(1, f.sep);
          out = {lo + sep + hi, lo, lo + sep, sep + hi, shifted(f.lo, -1) + sep + lo,
                 lo + sep + shifted(f.hi, 1), lo + sep + "x", sep};
        } else {
          out = {lo, hi, shifted(f.lo, -1), shifted(f.hi, 1)};
        }
        out.insert(out.end(), bad.begin(), bad.end());
        return out;
      },
      f.field);
}

/// Runs every mutant of `t`'s flags through `parse` on each base argv:
/// each flag alone with each value, with its value missing, duplicated,
/// and spelled by its alias, then `random` seeded mixes of several flags
/// and stray tokens.  A mutant may parse or throw std::invalid_argument
/// "<tool>: ..."; anything else fails.  Returns the mutants run.
template <class Opts>
int walk(const harness::FlagTable<Opts>& t,
         const std::vector<std::vector<std::string>>& bases,
         const std::function<void(std::span<const std::string_view>)>& parse, int random) {
  int mutants = 0;
  const auto run = [&](const std::vector<std::string>& argv) {
    ++mutants;
    const std::vector<std::string_view> args(argv.begin(), argv.end());
    std::string shown;
    for (const std::string& a : argv) shown += " '" + a + "'";
    try {
      parse(args);
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with(t.tool + ": ")) << e.what() << shown;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " on" << shown;
    } catch (...) {
      ADD_FAILURE() << "threw a non-exception on" << shown;
    }
  };
  for (const std::vector<std::string>& base : bases) {
    for (const harness::Flag<Opts>& f : t.flags) {
      std::vector<std::string> argv = base;
      argv.emplace_back(f.name);
      run(argv);  // alone, or with its value missing
      for (const std::string& v : values_for(f)) {
        std::vector<std::string> with = argv;
        with.push_back(v);
        run(with);
        with.insert(with.end(), {std::string(f.name), v});
        run(with);  // duplicated
        if (!f.alias.empty()) {
          with = base;
          with.insert(with.end(), {std::string(f.alias), v});
          run(with);
        }
      }
    }
  }
  analysis::Rng rng(0x5eed);
  const std::vector<std::string> stray = {"--help", "-h", "--", "-", "", "--bogus", "x"};
  for (int m = 0; m < random; ++m) {
    std::vector<std::string> argv = bases[rng.next() % bases.size()];
    for (std::uint64_t k = 1 + rng.next() % 4; k > 0; --k) {
      if (rng.next() % 8 == 0) {
        argv.push_back(stray[rng.next() % stray.size()]);
        continue;
      }
      const harness::Flag<Opts>& f = t.flags[rng.next() % t.flags.size()];
      argv.emplace_back(f.name);
      const std::vector<std::string> values = values_for(f);
      if (!values.empty() && rng.next() % 6 != 0)
        argv.push_back(values[rng.next() % values.size()]);
    }
    run(argv);
  }
  return mutants;
}

TEST(CliFlags, MutatedArgvOnlyThrowsInvalidArgument) {
  // In-process only: every mutant is parsed, never run.
  const std::vector<std::vector<std::string>> cast_bases = {
      {}, {"--stream", "4", "--source", "0", "--dests", "1"}, {"--lint"},
      {"--lint", "--forest", "0:opt-mesh:0:1,2"}, {"--lint", "--stream", "4"}};
  int mutants = walk(cli::cli_flags(), cast_bases,
                     [](std::span<const std::string_view> args) {
                       (void)cli::parse_args(args);
                     },
                     1500);
  mutants += walk(cli::cli_flags("pcmlint"), {{"--lint"}},
                  [](std::span<const std::string_view> args) {
                    (void)cli::parse_args(args, "pcmlint");
                  },
                  500);
  mutants += walk(harness::bench_flags("bench_x"), {{}},
                  [](std::span<const std::string_view> args) {
                    const std::vector<std::string> owned(args.begin(), args.end());
                    std::vector<const char*> argv;
                    for (const std::string& a : owned) argv.push_back(a.c_str());
                    (void)harness::parse_options(argv, "bench_x");
                  },
                  500);
  mutants += walk(cli::chaos_flags(), {{}},
                  [](std::span<const std::string_view> args) {
                    (void)harness::parse_flags(cli::chaos_flags(), args);
                  },
                  500);
  mutants += walk(cli::trace_flags(),
                  {{"dump", "t.pcmt"}, {"diff", "a.pcmt", "b.pcmt"}, {"stats", "t.pcmt"}},
                  [](std::span<const std::string_view> args) {
                    (void)harness::parse_flags(cli::trace_flags(), args);
                  },
                  500);
  EXPECT_GT(mutants, 5000);
}

}  // namespace
}  // namespace pcm
