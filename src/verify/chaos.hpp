// Chaos harness: seeded random fault scenarios executed under the
// InvariantAuditor, with automatic delta-debugging of failures down to a
// minimal reproducer.
//
// A scenario is (topology x algorithm x placement x payload x FaultPlan),
// generated from an RNG substream of (root seed, index) so any scenario
// can be regenerated in isolation and the whole sweep is bit-identical at
// any thread fan-out.  On a violation the minimizer greedily strips plan
// events, rates, and destinations while the violation persists, then
// serializes the survivor as a `pcmcast --audit` command line whose
// `--faults` spec (FaultPlan::to_spec) replays it deterministically:
// scenarios and pcmcast placements both execute verify::run_placement,
// on topologies built by the one spec parser (harness/spec.hpp).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "sim/fault.hpp"
#include "verify/run.hpp"

namespace pcm::verify {

/// One chaos scenario, fully self-describing and replayable.
struct ChaosScenario {
  int index = 0;                  ///< substream index it was generated from
  std::string topology;           ///< "mesh:S" | "bmin:N" (harness::make_topology)
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  NodeId source = 0;
  std::vector<NodeId> dests;      ///< execution order (pre-shuffled if any)
  Bytes bytes = 1024;
  int max_retries = 3;
  /// Build the split tree of `alg` over the caller-order chain instead of
  /// the sorted one — deliberately breaking the Theorem-1/2 precondition.
  /// The generator never sets this; tests and the auditor's self-check use
  /// it to prove violations are caught (pcmcast --shuffle-chain replays it).
  bool shuffle_chain = false;
  std::uint64_t shuffle_seed = 0;  ///< RNG seed for the dest permutation
  sim::FaultPlan plan;
  /// Streaming scenario (pcmcast --stream): push `stream_len` slots
  /// through a `stream_window`-slot ring instead of one message.  0 keeps
  /// the legacy one-shot semantics (and the existing golden outcomes).
  int stream_len = 0;
  int stream_window = 0;
  /// Membership axes (streaming only): a non-zero heartbeat enables the
  /// lease-based failure detector; failover/rejoin mirror the pcmcast
  /// flags of the same name.  The generator mixes in source-kill-with-
  /// failover and partition-then-heal scenario families.
  Time heartbeat = 0;
  bool failover = false;
  bool rejoin = false;
};

/// Deterministically generates scenario `index` of root seed `root_seed`.
ChaosScenario make_scenario(std::uint64_t root_seed, int index);

/// Streaming variant: windowed multi-slot scenarios with mid-stream
/// faults, run through StreamRuntime and checked with audit_stream on top
/// of the channel-level audit.  Same substream discipline as
/// make_scenario, so sweeps stay bit-identical at any --jobs.
ChaosScenario make_stream_scenario(std::uint64_t root_seed, int index);

/// One member of a forest scenario: a (algorithm, placement, payload)
/// group plus its activation offset, what run_concurrent calls a GroupRun
/// and lint_forest a ForestMember.
struct ForestScenarioGroup {
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  NodeId source = 0;
  std::vector<NodeId> dests;
  Bytes bytes = 1024;
  Time start = 0;
};

/// Concurrent-multicast scenario for the static==dynamic forest
/// differential sweep: 2-4 trees on one topology, sampled with the same
/// substream discipline as make_scenario (fault-free — lint_forest
/// models the fault-free shared timeline).  Sources and destinations of
/// different groups may collide; starts mix zero and staggered offsets.
struct ForestScenario {
  int index = 0;
  std::string topology;  ///< "mesh:S" | "bmin:N"
  std::vector<ForestScenarioGroup> groups;
};

/// Deterministically generates forest scenario `index` of `root_seed`.
ForestScenario make_forest_scenario(std::uint64_t root_seed, int index);

struct ScenarioOutcome {
  bool violated = false;
  std::string violation;  ///< what() of the violation; empty when clean
  bool watchdog = false;  ///< the violation was a watchdog expiry
  double delivered = 1.0;
  int retries = 0;
  int repairs = 0;
  int dropped = 0;
  int epochs = 0;      ///< stream reconfigurations (streaming scenarios)
  int stale_acks = 0;  ///< old-epoch deliveries rejected (streaming)
  int failovers = 0;   ///< source successions performed (streaming)
  int rejoins = 0;     ///< healed receivers re-admitted (streaming)
};

/// Executes one scenario under the auditor through run_placement, the
/// run `pcmcast` executes too, so repro_command replays it bit-exactly.
/// Only a non-empty plan counts as given (repro_command omits an empty
/// one), so fault-free scenarios get the strict audit.
ScenarioOutcome run_scenario(const ChaosScenario& s);

struct MinimizeResult {
  ChaosScenario scenario;  ///< minimal still-violating scenario
  std::string violation;   ///< the violation the minimal scenario raises
  int runs = 0;            ///< scenario executions the search used
  int removed = 0;         ///< plan events + destinations shed
};

/// Delta-debugs `s` (which must violate) to a locally minimal scenario:
/// no single plan event, rate, or destination can be removed without
/// losing the violation.
MinimizeResult minimize(const ChaosScenario& s);

/// The `pcmcast` invocation that replays the scenario under --audit.
std::string repro_command(const ChaosScenario& s);

struct ChaosConfig {
  int scenarios = 1000;
  std::uint64_t seed = 42;
  int jobs = 0;            ///< ThreadPool fan-out; 0 = hardware
  int max_minimized = 5;   ///< delta-debug at most this many failures
  bool streaming = false;  ///< sweep make_stream_scenario instead
};

struct ChaosReport {
  int scenarios = 0;
  int violations = 0;
  int watchdogs = 0;
  long long retries = 0;
  long long repairs = 0;
  long long dropped = 0;
  long long epochs = 0;
  long long stale_acks = 0;
  long long failovers = 0;
  long long rejoins = 0;
  double mean_delivered = 1.0;
  std::vector<int> violating_indices;      ///< scenario order
  std::vector<MinimizeResult> minimized;   ///< first max_minimized failures
};

/// Runs the sweep (scenario i uses substream i, outcomes aggregated in
/// index order, so the report is identical at any `jobs`), then minimizes
/// the first failures serially.  Progress/violations are logged to `log`
/// when non-null.
ChaosReport run_chaos(const ChaosConfig& cfg, std::ostream* log = nullptr);

}  // namespace pcm::verify
