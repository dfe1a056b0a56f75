// Tests for the pcmcast CLI library (argument parsing, topology factory,
// and the experiment driver).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "bmin/bmin_topology.hpp"
#include "butterfly/butterfly_topology.hpp"
#include "core/algorithms.hpp"
#include "cli/options.hpp"
#include "lint/lint.hpp"
#include "mesh/mesh_topology.hpp"

namespace pcm::cli {
namespace {

std::vector<std::string_view> sv(std::initializer_list<const char*> xs) {
  return {xs.begin(), xs.end()};
}

TEST(CliParse, Defaults) {
  const CliOptions o = parse_args({});
  EXPECT_EQ(o.topology, "mesh:16");
  EXPECT_EQ(o.algorithm, "opt-mesh");
  EXPECT_EQ(o.nodes, 32);
  EXPECT_EQ(o.bytes, 4096);
  EXPECT_EQ(o.reps, 16);
  EXPECT_FALSE(o.probe);
}

TEST(CliParse, AllOptions) {
  const auto args = sv({"--topology", "bmin:128:adaptive", "--algorithm", "u-min",
                        "--nodes", "64", "--bytes", "8192", "--reps", "4", "--seed",
                        "7", "--csv", "out.csv", "--probe"});
  const CliOptions o = parse_args(args);
  EXPECT_EQ(o.topology, "bmin:128:adaptive");
  EXPECT_EQ(o.algorithm, "u-min");
  EXPECT_EQ(o.nodes, 64);
  EXPECT_EQ(o.bytes, 8192);
  EXPECT_EQ(o.reps, 4);
  EXPECT_EQ(o.seed, 7u);
  EXPECT_EQ(o.csv, "out.csv");
  EXPECT_TRUE(o.probe);
}

TEST(CliParse, Rejections) {
  EXPECT_THROW(parse_args(sv({"--bogus"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--nodes"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--nodes", "abc"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--nodes", "1"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--algorithm", "magic"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--reps", "0"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--bytes", "-5"})), std::invalid_argument);
}

TEST(CliParse, HardenedRejections) {
  // Every malformed input must raise invalid_argument with a one-line
  // message (main() turns that into exit(2) + a stderr diagnostic).
  EXPECT_THROW(parse_args(sv({"--jobs", "-1"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--jobs", "9999"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--jobs", "two"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--json"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--json", "--probe"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--csv", "--gantt"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--faults", "node:5"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--faults", "bogus:1"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--faults", "drop:2.0"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--max-retries", "-2"})), std::invalid_argument);
  // Faults drive the fault-tolerant *multicast* runtime only.
  EXPECT_THROW(parse_args(sv({"--faults", "node:1@5", "--collective", "reduce"})),
               std::invalid_argument);
}

TEST(CliParse, FaultsAccepted) {
  const CliOptions o =
      parse_args(sv({"--faults", "node:42@1500;drop:0.001;seed:7", "--max-retries",
                     "5"}));
  EXPECT_EQ(o.faults, "node:42@1500;drop:0.001;seed:7");
  EXPECT_EQ(o.max_retries, 5);
}

TEST(CliParse, VerifyFlagsAccepted) {
  const CliOptions o = parse_args(
      sv({"--audit", "--allow-partial", "--shuffle-chain", "--source", "5",
          "--dests", "1,2,3"}));
  EXPECT_TRUE(o.audit);
  EXPECT_TRUE(o.allow_partial);
  EXPECT_TRUE(o.shuffle_chain);
  EXPECT_EQ(o.source, 5);
  EXPECT_EQ(o.dests, "1,2,3");
}

TEST(CliParse, VerifyFlagsValidated) {
  // --source and --dests come as a pair.
  EXPECT_THROW(parse_args(sv({"--source", "5"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--dests", "1,2"})), std::invalid_argument);
  // Auditing covers the multicast runtime only.
  EXPECT_THROW(parse_args(sv({"--audit", "--collective", "reduce"})),
               std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--shuffle-chain", "--collective", "barrier"})),
               std::invalid_argument);
}

TEST(CliParse, HelpSkipsValidation) {
  const CliOptions o = parse_args(sv({"--algorithm", "magic", "--help"}));
  EXPECT_TRUE(o.help);
}

TEST(CliParse, PcmlintNamesItself) {
  // pcmlint parses pcmcast's flags under its own name: every usage error
  // and its --help say pcmlint.
  for (const std::vector<std::string_view>& args :
       {sv({"--lint", "--bogus"}), sv({"--lint", "--audit"}), sv({"--lint", "--nodes"}),
        sv({"--lint", "--algorithm", "magic"})}) {
    try {
      (void)parse_args(args, "pcmlint");
      ADD_FAILURE() << args.back() << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_TRUE(std::string(e.what()).starts_with("pcmlint: ")) << e.what();
    }
  }
  const CliOptions o = parse_args(sv({"--lint", "--help"}), "pcmlint");
  std::ostringstream os;
  EXPECT_EQ(run_lint_cli(o, os), 0);
  EXPECT_NE(os.str().find("usage: pcmlint [options]"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("pcmcast ["), std::string::npos) << os.str();
}

TEST(CliRun, RunTimeErrorsNameTheTool) {
  // Errors found after parsing (the topology, the placement, the forest,
  // the algorithm) name the tool that ran: pcmlint, or pcmcast --lint
  // through run_cli as the pcmcast binary calls it.
  const std::pair<std::vector<std::string_view>, const char*> cases[] = {
      {sv({"--lint", "--topology", "bogus"}), "unknown topology kind 'bogus'"},
      {sv({"--lint", "--topology", "mesh:4", "--nodes", "99"}),
       "--nodes exceeds topology size"},
      {sv({"--lint", "--topology", "mesh:4", "--forest", "0:opt-mesh:0:99"}),
       "--forest destination outside the topology"},
      {sv({"--lint", "--topology", "bmin:64", "--algorithm", "opt-mesh"}),
       "opt-mesh requires a mesh/hypercube topology"}};
  for (const std::string_view tool : {"pcmlint", "pcmcast"}) {
    for (const auto& [args, what] : cases) {
      std::ostringstream os;
      try {
        (void)(tool == "pcmlint" ? run_lint_cli(parse_args(args, tool), os, tool)
                                 : run_cli(parse_args(args), os));
        ADD_FAILURE() << args.back() << " was accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), std::string(tool) + ": " + what);
      }
    }
  }
}

TEST(CliAlgorithms, NamesRoundTrip) {
  for (McastAlgorithm a : {McastAlgorithm::kOptMesh, McastAlgorithm::kUMesh,
                           McastAlgorithm::kOptMin, McastAlgorithm::kUMin,
                           McastAlgorithm::kOptTree, McastAlgorithm::kBinomial,
                           McastAlgorithm::kSequential}) {
    std::string lower(algorithm_name(a));
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    EXPECT_EQ(algorithm_from_name(lower), a) << lower;
  }
  EXPECT_EQ(algorithm_from_name("nope"), std::nullopt);
}

TEST(CliTopology, FactoryProducesRightKinds) {
  EXPECT_NE(dynamic_cast<mesh::MeshTopology*>(make_topology("mesh:8").get()), nullptr);
  EXPECT_NE(dynamic_cast<mesh::MeshTopology*>(make_topology("hypercube:5").get()),
            nullptr);
  EXPECT_NE(dynamic_cast<bmin::BminTopology*>(make_topology("bmin:64").get()), nullptr);
  EXPECT_NE(dynamic_cast<butterfly::ButterflyTopology*>(
                make_topology("butterfly:32").get()),
            nullptr);
  EXPECT_EQ(make_topology("mesh:8")->num_nodes(), 64);
  EXPECT_EQ(make_topology("hypercube:5")->num_nodes(), 32);
}

TEST(CliTopology, BminPolicies) {
  const auto ada = make_topology("bmin:32:adaptive");
  EXPECT_EQ(dynamic_cast<bmin::BminTopology*>(ada.get())->up_policy(),
            bmin::UpPolicy::kAdaptive);
  const auto dst = make_topology("bmin:32:dest");
  EXPECT_EQ(dynamic_cast<bmin::BminTopology*>(dst.get())->up_policy(),
            bmin::UpPolicy::kDestAddress);
  EXPECT_THROW(make_topology("bmin:32:warp"), std::invalid_argument);
}

TEST(CliTopology, RejectsUnknown) {
  EXPECT_THROW(make_topology("torus:8"), std::invalid_argument);
  EXPECT_THROW(make_topology(""), std::invalid_argument);
  EXPECT_THROW(make_topology("mesh:abc"), std::invalid_argument);
  // Sizes past 2^31 must not wrap onto a valid topology (mesh:4, bmin:64,
  // hypercube:3), and a mesh past INT_MAX nodes must not overflow its
  // node count; each message names the spec.
  for (const char* spec : {"mesh:4294967300", "bmin:4294967360",
                           "hypercube:4294967299", "mesh:50000"}) {
    try {
      (void)make_topology(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos) << e.what();
    }
  }
}

TEST(CliShape, MeshShapeOnlyForMeshes) {
  const auto m = make_topology("mesh:8");
  EXPECT_NE(mesh_shape_of(*m), nullptr);
  const auto b = make_topology("bmin:32");
  EXPECT_EQ(mesh_shape_of(*b), nullptr);
}

TEST(CliRun, HelpPrintsUsage) {
  CliOptions o;
  o.help = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("usage: pcmcast"), std::string::npos);
}

TEST(CliRun, SmallExperimentReports) {
  CliOptions o;
  o.topology = "mesh:8";
  o.algorithm = "opt-mesh";
  o.nodes = 8;
  o.bytes = 512;
  o.reps = 2;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("OPT-Mesh"), std::string::npos);
  EXPECT_NE(out.find("sim/model"), std::string::npos);
  EXPECT_NE(out.find("blocked"), std::string::npos);
}

TEST(CliRun, FaultedExperimentReportsDegradation) {
  CliOptions o;
  o.topology = "mesh:8";
  o.algorithm = "opt-mesh";
  o.nodes = 8;
  o.bytes = 512;
  o.reps = 2;
  o.jobs = 1;
  o.faults = "node:3@300;seed:1";  // node 3 fail-stops mid-run
  o.allow_partial = true;          // a dead destination must not fail the run
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  EXPECT_NE(out.find("faults:"), std::string::npos);
  EXPECT_NE(out.find("delivered"), std::string::npos);
  EXPECT_NE(out.find("retries"), std::string::npos);
  EXPECT_NE(out.find("repairs"), std::string::npos);
}

TEST(CliRun, ExplicitPlacementRunsOneRep) {
  CliOptions o;
  o.topology = "mesh:8";
  o.algorithm = "opt-mesh";
  o.source = 0;
  o.dests = "9,18,27";
  o.bytes = 256;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("k=4"), std::string::npos);
  EXPECT_NE(os.str().find("1 reps"), std::string::npos);
  // Placement nodes must exist in the topology.
  o.dests = "9,999";
  std::ostringstream os2;
  EXPECT_THROW(run_cli(o, os2), std::invalid_argument);
}

TEST(CliRun, PartialDeliveryFailsUnlessAllowed) {
  CliOptions o;
  o.topology = "mesh:8";
  o.algorithm = "opt-mesh";
  o.source = 0;
  o.dests = "1,2,3";
  o.bytes = 256;
  o.faults = "node:3@50";  // destination 3 dies before delivery
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 1);
  EXPECT_NE(os.str().find("partial delivery"), std::string::npos);
  o.allow_partial = true;
  std::ostringstream os2;
  EXPECT_EQ(run_cli(o, os2), 0);
}

TEST(CliRun, AuditCleanRunPassesAndShuffledChainFails) {
  CliOptions o;
  o.topology = "mesh:16";
  o.algorithm = "opt-mesh";
  o.nodes = 32;
  o.bytes = 4096;
  o.reps = 1;
  o.seed = 7;
  o.audit = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0) << os.str();
  EXPECT_NE(os.str().find("audited"), std::string::npos);
  // The same run over the shuffled caller-order chain loses the Theorem 1
  // precondition; the auditor objects and the exit code says so.
  o.shuffle_chain = true;
  std::ostringstream os2;
  EXPECT_EQ(run_cli(o, os2), 3);
  EXPECT_NE(os2.str().find("AUDIT VIOLATION"), std::string::npos);
  EXPECT_NE(os2.str().find("contention-freedom"), std::string::npos);
}

TEST(CliRun, CompareListsAllAlgorithms) {
  CliOptions o;
  o.topology = "mesh:8";
  o.compare = true;
  o.nodes = 8;
  o.bytes = 256;
  o.reps = 2;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  const std::string out = os.str();
  for (const char* name : {"OPT-Mesh", "U-Mesh", "OPT-Tree", "Binomial", "Sequential"})
    EXPECT_NE(out.find(name), std::string::npos) << name;
}

TEST(CliRun, CompareOnBminUsesMinAlgorithms) {
  CliOptions o;
  o.topology = "bmin:32";
  o.compare = true;
  o.nodes = 6;
  o.bytes = 128;
  o.reps = 1;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("OPT-Min"), std::string::npos);
  EXPECT_EQ(os.str().find("OPT-Mesh"), std::string::npos);
}

TEST(CliRun, ReduceAndBarrierCollectives) {
  for (const char* kind : {"reduce", "barrier"}) {
    CliOptions o;
    o.topology = "mesh:8";
    o.algorithm = "opt-mesh";
    o.collective = kind;
    o.nodes = 6;
    o.bytes = 256;
    o.reps = 2;
    std::ostringstream os;
    EXPECT_EQ(run_cli(o, os), 0) << kind;
    EXPECT_NE(os.str().find(kind), std::string::npos);
  }
}

TEST(CliRun, GanttPrintsTimeline) {
  CliOptions o;
  o.topology = "mesh:8";
  o.nodes = 6;
  o.bytes = 256;
  o.reps = 1;
  o.gantt = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("message timeline"), std::string::npos);
  EXPECT_NE(os.str().find("->"), std::string::npos);
}

TEST(CliParse, CollectiveValidation) {
  EXPECT_THROW(parse_args(sv({"--collective", "allgather"})), std::invalid_argument);
  const CliOptions o = parse_args(sv({"--collective", "barrier", "--compare"}));
  EXPECT_EQ(o.collective, "barrier");
  EXPECT_TRUE(o.compare);
}

TEST(CliRun, ProbeLineAppears) {
  CliOptions o;
  o.topology = "bmin:32";
  o.algorithm = "opt-min";
  o.nodes = 6;
  o.bytes = 256;
  o.reps = 1;
  o.probe = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0);
  EXPECT_NE(os.str().find("probe:   t_net="), std::string::npos);
}

TEST(CliRun, MeshAlgorithmOnBminRejected) {
  CliOptions o;
  o.topology = "bmin:32";
  o.algorithm = "opt-mesh";
  o.nodes = 4;
  std::ostringstream os;
  EXPECT_THROW(run_cli(o, os), std::invalid_argument);
}

TEST(CliRun, NodesBeyondTopologyRejected) {
  CliOptions o;
  o.topology = "mesh:4";
  o.nodes = 99;
  std::ostringstream os;
  EXPECT_THROW(run_cli(o, os), std::invalid_argument);
}

// --- streaming (--stream / --window) --------------------------------------

TEST(CliParse, StreamFlagsAccepted) {
  const auto args = sv({"--stream", "16", "--window", "4", "--source", "0",
                        "--dests", "1,2,3"});
  const CliOptions o = parse_args(args);
  EXPECT_EQ(o.stream, 16);
  EXPECT_EQ(o.window, 4);
}

TEST(CliParse, StreamRejectionsNameTheFlag) {
  // Each malformed combination must throw (main() maps that to exit 2)
  // with a message naming the offending flag.
  auto message_of = [](std::initializer_list<const char*> xs) {
    try {
      const std::vector<std::string_view> args(xs.begin(), xs.end());
      (void)parse_args(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  EXPECT_NE(message_of({"--stream", "0", "--source", "0", "--dests", "1"})
                .find("--stream"),
            std::string::npos);
  EXPECT_NE(message_of({"--stream", "abc"}).find("--stream"), std::string::npos);
  EXPECT_NE(message_of({"--stream", "4", "--window", "0", "--source", "0",
                        "--dests", "1"})
                .find("--window"),
            std::string::npos);
  EXPECT_NE(message_of({"--stream", "4", "--window", "-3", "--source", "0",
                        "--dests", "1"})
                .find("--window"),
            std::string::npos);
  EXPECT_NE(message_of({"--stream", "4", "--window", "x", "--source", "0",
                        "--dests", "1"})
                .find("--window"),
            std::string::npos);
  // --stream without an explicit placement.
  EXPECT_NE(message_of({"--stream", "4"}).find("--stream"), std::string::npos);
  // --window without --stream.
  EXPECT_NE(message_of({"--window", "4"}).find("--window"), std::string::npos);
  // Streams are multicast-only workloads.
  EXPECT_THROW(parse_args(sv({"--stream", "4", "--source", "0", "--dests", "1",
                              "--collective", "reduce"})),
               std::invalid_argument);
  // --lint --stream is the static pipeline analyzer: it parses, and it
  // relaxes the explicit-placement and --compare restrictions.
  EXPECT_TRUE(parse_args(sv({"--stream", "4", "--source", "0", "--dests", "1",
                             "--lint"}))
                  .lint);
  EXPECT_TRUE(parse_args(sv({"--stream", "4", "--lint", "--compare"})).compare);
  EXPECT_THROW(parse_args(sv({"--stream", "4", "--source", "0", "--dests", "1",
                              "--compare"})),
               std::invalid_argument);
  // But the membership machinery stays dynamic-only.
  EXPECT_THROW(parse_args(sv({"--stream", "4", "--lint", "--heartbeat", "50"})),
               std::invalid_argument);
  // Forest certification: --lint only, carries its own placements, and
  // --offset-search needs it.
  EXPECT_TRUE(parse_args(sv({"--lint", "--forest", "0:opt-mesh:0:1,2"}))
                  .forest.size() > 0);
  EXPECT_THROW(parse_args(sv({"--forest", "0:opt-mesh:0:1,2"})),
               std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--lint", "--forest", "0:opt-mesh:0:1,2",
                              "--stream", "4"})),
               std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--lint", "--offset-search"})),
               std::invalid_argument);
}

TEST(CliParse, NarrowedFlagsRejectValuesPastInt) {
  // Values past 2^31 must not wrap onto a valid node, size or count.
  EXPECT_THROW(parse_args(sv({"--nodes", "4294967298"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--reps", "4294967297"})), std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--source", "4294967296", "--dests", "1"})),
               std::invalid_argument);
  EXPECT_THROW(parse_args(sv({"--source", "-3", "--dests", "1"})),
               std::invalid_argument);
  EXPECT_EQ(parse_args(sv({"--nodes", "2147483647"})).nodes, 2147483647);

  auto lint_run = [](const char* topology, const char* forest,
                     const char* source, const char* dests) {
    CliOptions o;
    o.lint = true;
    o.topology = topology;
    if (forest != nullptr) o.forest = forest;
    if (source != nullptr) {
      o.source = std::stoi(source);
      o.dests = dests;
    }
    std::ostringstream os;
    return run_lint_cli(o, os);
  };
  EXPECT_THROW(lint_run("mesh:16", nullptr, "0", "4294967313,2"),
               std::invalid_argument);
  EXPECT_THROW(lint_run("mesh:16", "0:opt-mesh:4294967301:6", nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW(lint_run("mesh:16", "0:opt-mesh:5:4294967302", nullptr, nullptr),
               std::invalid_argument);
  EXPECT_THROW(lint_run("mesh:16", "9223372036854775807:opt-mesh:5:6", nullptr,
                        nullptr),
               std::invalid_argument);
  EXPECT_THROW(lint_run("mesh:16", "99999999999999999999:opt-mesh:5:6", nullptr,
                        nullptr),
               std::invalid_argument);
  // The largest admitted start still certifies, exactly as at offset 0.
  const std::string at_max =
      std::to_string(lint::kMaxStartOffset) + ":opt-mesh:5:6";
  EXPECT_EQ(lint_run("mesh:16", at_max.c_str(), nullptr, nullptr), 0);
  const std::string past_max =
      std::to_string(lint::kMaxStartOffset + 1) + ":opt-mesh:5:6";
  EXPECT_THROW(lint_run("mesh:16", past_max.c_str(), nullptr, nullptr),
               std::invalid_argument);
  // lint_forest itself bounds the offset for library callers.
  const mesh::MeshTopology topo(MeshShape::square2d(4));
  std::vector<lint::ForestMember> members(1);
  members[0].tree = build_multicast(McastAlgorithm::kOptMesh, 5,
                                    std::vector<NodeId>{6}, TwoParam{10, 20},
                                    &topo.shape());
  members[0].start = lint::kMaxStartOffset + 1;
  EXPECT_THROW(lint::lint_forest(members, topo, rt::RuntimeConfig{},
                                 sim::SimConfig{}),
               std::invalid_argument);
}

TEST(CliRun, StreamReportsThroughput) {
  CliOptions o;
  o.topology = "mesh:8";
  o.source = 0;
  o.dests = "9,18,27";
  o.bytes = 256;
  o.stream = 8;
  o.window = 2;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0) << os.str();
  EXPECT_NE(os.str().find("8 slots"), std::string::npos);
  EXPECT_NE(os.str().find("window 2"), std::string::npos);
  EXPECT_NE(os.str().find("slots/kcycle"), std::string::npos);
}

TEST(CliRun, StreamAuditedStopAndWaitPasses) {
  CliOptions o;
  o.topology = "mesh:8";
  o.source = 0;
  o.dests = "9,18,27";
  o.bytes = 256;
  o.stream = 4;
  o.window = 1;
  o.audit = true;
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0) << os.str();
  EXPECT_NE(os.str().find("audited"), std::string::npos);
}

class CliEventEngine : public testing::TestWithParam<std::string> {};

TEST_P(CliEventEngine, RunsSilentlyWithTheCycleStdout) {
  // --engine event runs a stream or a fault plan on the event engine: no
  // notice on stderr, "event" in the JSON, and the --engine cycle stdout.
  CliOptions o;
  if (GetParam() == "stream") {
    o.dests = "9,18";
    o.stream = 4;
  } else {
    o.dests = "1,2,3";
    o.faults = "drop:0.01;seed:4";
  }
  o.topology = "mesh:8";
  o.source = 0;
  o.bytes = 256;
  o.json = testing::TempDir() + "pcm_event_engine_" + GetParam() + ".json";
  std::string outs[2];
  for (const sim::EngineKind engine : {sim::EngineKind::kCycle, sim::EngineKind::kEvent}) {
    o.engine = engine;
    std::ostringstream os, err;
    EXPECT_EQ(run_cli(o, os, err), 0) << os.str();
    EXPECT_EQ(err.str(), "");
    outs[engine == sim::EngineKind::kEvent ? 1 : 0] = os.str();
  }
  std::ifstream f(o.json);
  const std::string json((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"engine\": \"event\""), std::string::npos) << json;
  EXPECT_EQ(outs[0], outs[1]);
}

INSTANTIATE_TEST_SUITE_P(Workloads, CliEventEngine,
                         testing::Values("stream", "fault_plan"),
                         [](const auto& p) { return p.param; });

TEST(CliRun, JsonReportsLeapCountersOutsideTheTables) {
  // Contended OPT-Tree runs stream long worms past blocked heads, which
  // the cycle engine leaps over; the counters are engine internals, so
  // they go to the JSON envelope and never to stdout.
  CliOptions o;
  o.topology = "mesh:16";
  o.algorithm = "opt-tree";
  o.bytes = 16384;
  o.reps = 2;
  o.jobs = 1;
  o.json = testing::TempDir() + "pcm_leap_counters.json";
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 0) << os.str();
  EXPECT_EQ(os.str().find("leaps"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("leaped"), std::string::npos) << os.str();
  std::ifstream f(o.json);
  const std::string json((std::istreambuf_iterator<char>(f)),
                         std::istreambuf_iterator<char>());
  const std::size_t at = json.find("\"leaps\": \"");
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_NE(json[at + 10], '0') << json;
  EXPECT_NE(json.find("\"leaped_cycles\": \""), std::string::npos) << json;
}

TEST(CliRun, StreamPartialDeliveryFailsUnlessAllowed) {
  // A destination dies before its first delivery; the reliable stream
  // finishes over the survivors and reports the per-receiver prefix.
  CliOptions o;
  o.topology = "mesh:8";
  o.source = 0;
  o.dests = "1,2,3";
  o.bytes = 256;
  o.stream = 6;
  o.window = 2;
  o.faults = "node:3@50";
  std::ostringstream os;
  EXPECT_EQ(run_cli(o, os), 1) << os.str();
  EXPECT_NE(os.str().find("partial stream delivery"), std::string::npos);
  EXPECT_NE(os.str().find("delivered_prefix"), std::string::npos);
  o.allow_partial = true;
  std::ostringstream os2;
  EXPECT_EQ(run_cli(o, os2), 0) << os2.str();
}

// --- membership flags (--heartbeat / --failover / --rejoin) ----------------

TEST(CliParse, MembershipFlagsAccepted) {
  const auto args = sv({"--stream", "8", "--heartbeat", "500", "--failover",
                        "--rejoin", "--source", "0", "--dests", "1,2,3"});
  const CliOptions o = parse_args(args);
  EXPECT_EQ(o.heartbeat, 500);
  EXPECT_TRUE(o.failover);
  EXPECT_TRUE(o.rejoin);
}

TEST(CliParse, MembershipFlagsValidated) {
  auto message_of = [](std::initializer_list<const char*> xs) {
    try {
      const std::vector<std::string_view> args(xs.begin(), xs.end());
      (void)parse_args(args);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // Membership is a streaming feature.
  EXPECT_NE(message_of({"--heartbeat", "500"}).find("--heartbeat"),
            std::string::npos);
  // Failover/rejoin need a failure detector to act on.
  EXPECT_NE(message_of({"--stream", "8", "--failover", "--source", "0",
                        "--dests", "1"})
                .find("--heartbeat"),
            std::string::npos);
  EXPECT_NE(message_of({"--stream", "8", "--rejoin", "--source", "0", "--dests",
                        "1"})
                .find("--heartbeat"),
            std::string::npos);
  // Range and integer validation via the shared parse_uint_flag helper.
  EXPECT_NE(message_of({"--stream", "8", "--heartbeat", "0", "--source", "0",
                        "--dests", "1"})
                .find("--heartbeat"),
            std::string::npos);
  EXPECT_NE(message_of({"--stream", "8", "--heartbeat", "-5", "--source", "0",
                        "--dests", "1"})
                .find("--heartbeat"),
            std::string::npos);
  EXPECT_NE(message_of({"--stream", "8", "--heartbeat", "x", "--source", "0",
                        "--dests", "1"})
                .find("--heartbeat"),
            std::string::npos);
}

TEST(CliRun, StreamFailoverRunReportsSuccession) {
  // A mid-stream source kill under --heartbeat --failover completes via
  // succession: exit 0, every survivor holds the whole stream, and the
  // summary reports the failover.
  CliOptions o;
  o.topology = "mesh:8";
  o.source = 0;
  o.dests = "9,18,27";
  o.bytes = 256;
  o.stream = 16;
  o.window = 4;
  o.heartbeat = 600;
  o.failover = true;
  o.faults = "node:0@4000";
  o.audit = true;
  std::ostringstream os, err;
  EXPECT_EQ(run_cli(o, os, err), 0) << os.str();
  EXPECT_NE(os.str().find("failover"), std::string::npos);
}

TEST(CliRun, StreamBlipIsEngineInvariantOnStdout) {
  // A sub-threshold partition blip absorbed by retries: --engine event
  // runs it on the event engine, silently, and its stdout is
  // byte-identical to the --engine cycle run.
  CliOptions base;
  base.topology = "mesh:4";
  base.source = 0;
  base.dests = "5,10,15";
  base.bytes = 256;
  base.stream = 12;
  base.window = 4;
  base.heartbeat = 800;
  base.faults = "partition:4,1|5,1|6,1|7,1@1500;heal:4,1|5,1|6,1|7,1@2300";
  base.audit = true;

  std::string outs[2];
  for (int i = 0; i < 2; ++i) {
    CliOptions o = base;
    o.engine = i == 0 ? sim::EngineKind::kCycle : sim::EngineKind::kEvent;
    std::ostringstream os, err;
    EXPECT_EQ(run_cli(o, os, err), 0) << os.str() << err.str();
    EXPECT_EQ(os.str().find("epochs"), os.str().rfind("epochs"))
        << "summary table present exactly once";
    outs[i] = os.str();
    EXPECT_EQ(err.str(), "");
  }
  EXPECT_EQ(outs[0], outs[1]);
}

}  // namespace
}  // namespace pcm::cli
