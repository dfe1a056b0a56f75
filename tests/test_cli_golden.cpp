// Byte-identity pins for every pcmcast/pcmlint driver mode: the FNV-1a
// hash of stdout, stderr and every file the run writes (JSON report, CSV,
// flight-recorder trace) plus the exit code.  The hashes were recorded
// before the audited run and the report tail were shared between the
// drivers, so any refactor of those paths must keep every byte.
//
// Output files live under testing::TempDir(); that prefix is stripped
// from stdout and the JSON (both echo the paths) before hashing, so the
// pins do not depend on where the tests run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/options.hpp"

namespace pcm::cli {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string strip(std::string s, const std::string& prefix) {
  for (std::size_t at = s.find(prefix); at != std::string::npos;
       at = s.find(prefix, at))
    s.erase(at, prefix.size());
  return s;
}

/// Hash of a file's bytes; 0 when the run did not write it.
std::uint64_t file_hash(const std::string& path, const std::string& prefix) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return 0;
  return fnv1a(strip(std::string((std::istreambuf_iterator<char>(f)),
                                 std::istreambuf_iterator<char>()),
                     prefix));
}

struct Golden {
  int exit_code = 0;
  std::uint64_t out = 0, err = 0, json = 0, csv = 0, trace = 0;
  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{%d, 0x%016llxULL, 0x%016llxULL, 0x%016llxULL, "
                "0x%016llxULL, 0x%016llxULL}",
                g.exit_code, static_cast<unsigned long long>(g.out),
                static_cast<unsigned long long>(g.err),
                static_cast<unsigned long long>(g.json),
                static_cast<unsigned long long>(g.csv),
                static_cast<unsigned long long>(g.trace));
  return os << buf;
}

/// Runs `args` as pcmcast would (parse_args + run_cli), adding --json and
/// --csv, plus --trace (with extension `trace_ext`) and --metrics unless
/// `trace_ext` is empty, all pointed at per-case files.
Golden run_case(const std::string& name, std::vector<std::string> args,
                const std::string& trace_ext) {
  const std::string prefix = testing::TempDir();
  const std::string base = prefix + "pcm_golden_" + name;
  const std::string json = base + ".json", csv = base + ".csv",
                    trace = base + "_trace" + trace_ext;
  args.insert(args.end(), {"--json", json, "--csv", csv});
  if (!trace_ext.empty()) args.insert(args.end(), {"--trace", trace, "--metrics"});
  for (const std::string& path : {json, csv, trace}) std::remove(path.c_str());

  const std::vector<std::string_view> views(args.begin(), args.end());
  std::ostringstream os, err;
  Golden g;
  g.exit_code = run_cli(parse_args(views), os, err);
  g.out = fnv1a(strip(os.str(), prefix));
  g.err = fnv1a(err.str());
  g.json = file_hash(json, prefix);
  g.csv = file_hash(csv, prefix);
  if (!trace_ext.empty()) g.trace = file_hash(trace, prefix);
  return g;
}

TEST(CliGolden, OneShotSampled) {
  const Golden g = run_case(
      "oneshot", {"--topology", "mesh:8", "--algorithm", "opt-mesh", "--nodes", "8",
                  "--bytes", "512", "--reps", "3", "--seed", "5", "--jobs", "2"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{0, 0x11e48f3fe9145dc0ULL, 0xcbf29ce484222325ULL,
                       0x4a4676af94df64c7ULL, 0xbb94e6acc2098a97ULL, 0xb3fbfed0398e219fULL}))
      << g;
}

TEST(CliGolden, Compare) {
  const Golden g = run_case(
      "compare", {"--topology", "bmin:32", "--compare", "--nodes", "6", "--bytes",
                  "256", "--reps", "2", "--jobs", "1"},
      ".json");
  EXPECT_EQ(g, (Golden{0, 0xf7a4c530a9be672fULL, 0xcbf29ce484222325ULL,
                       0x9afae95ebe9b0d36ULL, 0x4192f07ed554229cULL, 0x91aac02b54a973e4ULL}))
      << g;
}

TEST(CliGolden, Reduce) {
  const Golden g = run_case(
      "reduce", {"--topology", "mesh:8", "--collective", "reduce", "--nodes", "6",
                 "--bytes", "256", "--reps", "2", "--jobs", "1"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{0, 0xb754a2d445c79650ULL, 0xcbf29ce484222325ULL,
                       0x8caa1b58333be9aaULL, 0xba3cc9ae38b0d002ULL, 0xe0eaac8b6708014bULL}))
      << g;
}

TEST(CliGolden, Barrier) {
  const Golden g = run_case(
      "barrier", {"--topology", "mesh:8", "--collective", "barrier", "--nodes", "6",
                  "--bytes", "256", "--reps", "2", "--jobs", "1"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{0, 0xdf6d925dacad9c57ULL, 0xcbf29ce484222325ULL,
                       0xb760fde35e04936eULL, 0x0906b05e668ef60bULL, 0xfb686f159bb5701cULL}))
      << g;
}

TEST(CliGolden, FaultsAuditGanttProbe) {
  const Golden g = run_case(
      "faults", {"--topology", "mesh:8", "--nodes", "8", "--bytes", "512", "--reps",
                 "2", "--jobs", "1", "--faults", "node:3@300;drop:0.001;seed:1",
                 "--audit", "--gantt", "--probe", "--engine", "event"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{0, 0x04bdd3c3bcf64e83ULL, 0xcbf29ce484222325ULL,
                       0x7d63b42f21e59592ULL, 0x1711d920f4009178ULL, 0x1c7485d2344ccca7ULL}))
      << g;
}

TEST(CliGolden, EmptyFaultPlanKeepsReliableColumns) {
  // A --faults flag selects the reliable path even when its plan is empty.
  const Golden g = run_case(
      "emptyplan", {"--topology", "mesh:8", "--nodes", "8", "--bytes", "512",
                    "--reps", "2", "--jobs", "1", "--faults", "seed:3", "--audit"},
      "");
  EXPECT_EQ(g, (Golden{0, 0xe5c65fde50b631e4ULL, 0xcbf29ce484222325ULL,
                       0x468284bfcd1c6a18ULL, 0x1711d920f4009178ULL, 0x0000000000000000ULL}))
      << g;
}

TEST(CliGolden, ShuffledChainAuditViolation) {
  const Golden g = run_case(
      "shuffle", {"--reps", "1", "--seed", "7", "--shuffle-chain", "--audit",
                  "--jobs", "1"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{3, 0x171b45ed3db6cd9dULL, 0xcbf29ce484222325ULL,
                       0x0000000000000000ULL, 0x0000000000000000ULL, 0x1beb4f5092012609ULL}))
      << g;
}

TEST(CliGolden, StreamPlain) {
  const Golden g = run_case(
      "stream", {"--topology", "mesh:8", "--source", "0", "--dests", "9,18,27",
                 "--bytes", "256", "--stream", "8", "--window", "2", "--engine",
                 "event"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{0, 0xf2c6959224a1dc67ULL, 0xcbf29ce484222325ULL,
                       0xc84204282a82343fULL, 0x2c2a5efc6b48e004ULL, 0xc7b5669caac2968eULL}))
      << g;
}

TEST(CliGolden, StreamFaults) {
  const Golden g = run_case(
      "streamfaults", {"--topology", "mesh:8", "--source", "0", "--dests", "1,2,3",
                       "--bytes", "256", "--stream", "6", "--window", "2",
                       "--faults", "node:3@50"},
      ".pcmt");
  EXPECT_EQ(g, (Golden{1, 0x727033751377ffeaULL, 0xcbf29ce484222325ULL,
                       0x7289470835d39fdbULL, 0x652ff881de650251ULL, 0xd8b9676274f88d85ULL}))
      << g;
}

TEST(CliGolden, StreamMembershipAudit) {
  const Golden g = run_case(
      "membership",
      {"--topology", "mesh:8", "--source", "0", "--dests", "9,18,27", "--bytes",
       "256", "--stream", "16", "--window", "4", "--heartbeat", "600", "--failover",
       "--rejoin", "--faults", "node:0@4000", "--audit"},
      ".json");
  EXPECT_EQ(g, (Golden{0, 0x2da3b0e9125cd636ULL, 0xcbf29ce484222325ULL,
                       0xfdc776f7a3c95061ULL, 0xfdc7fdbbfeee578fULL, 0x809905568d5b1394ULL}))
      << g;
}

TEST(CliGolden, LintTree) {
  const Golden g = run_case(
      "linttree", {"--lint", "--topology", "mesh:8", "--compare", "--nodes", "8",
                   "--bytes", "512", "--reps", "3"},
      "");
  EXPECT_EQ(g, (Golden{0, 0x7bd01607318fc950ULL, 0xcbf29ce484222325ULL,
                       0xec3bc32199f5fc85ULL, 0xa399dbe6c8d48a38ULL, 0x0000000000000000ULL}))
      << g;
}

TEST(CliGolden, LintShuffledChain) {
  const Golden g = run_case(
      "lintshuffle", {"--lint", "--reps", "2", "--seed", "7", "--shuffle-chain"}, "");
  EXPECT_EQ(g, (Golden{3, 0xd05337114ee2144cULL, 0xcbf29ce484222325ULL,
                       0x182e1d131c1bad26ULL, 0x8a4accc189e4eadeULL, 0x0000000000000000ULL}))
      << g;
}

TEST(CliGolden, LintForestOffsetSearch) {
  const Golden g = run_case(
      "lintforest",
      {"--lint", "--topology", "mesh:8", "--forest",
       "0:opt-mesh:0:9,18,27;0:u-mesh:5:6,7,40;100:opt-tree:63:1,2",
       "--offset-search"},
      "");
  EXPECT_EQ(g, (Golden{0, 0x5795f391caffef67ULL, 0xcbf29ce484222325ULL,
                       0x7dac7462c9d84551ULL, 0x4d74329a6751f870ULL, 0x0000000000000000ULL}))
      << g;
}

TEST(CliGolden, LintStreamCompare) {
  const Golden g = run_case(
      "lintstream", {"--lint", "--topology", "mesh:8", "--stream", "16", "--window",
                     "1", "--compare", "--nodes", "6", "--bytes", "256"},
      "");
  EXPECT_EQ(g, (Golden{0, 0xf1691d28a7170c1eULL, 0xcbf29ce484222325ULL,
                       0xccf98956f097c904ULL, 0x3fd4383080f1148eULL, 0x0000000000000000ULL}))
      << g;
}

}  // namespace
}  // namespace pcm::cli
