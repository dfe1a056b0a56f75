// One placement run, one-shot or stream, optionally under the invariant
// auditor: what `pcmcast` executes per placement and what the chaos
// harness executes per scenario.  Both call run_placement, so a chaos
// reproducer replayed through `pcmcast --audit` runs this same code.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "runtime/stream_runtime.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace pcm::verify {

struct PlacementRun {
  McastAlgorithm alg = McastAlgorithm::kOptMesh;
  const MeshShape* shape = nullptr;  ///< required by the mesh-tuned algorithms
  NodeId source = 0;
  std::span<const NodeId> dests;
  Bytes bytes = 1024;
  int max_retries = 3;
  /// Run under the InvariantAuditor; a violation throws InvariantViolation.
  bool audit = false;
  /// Split the seed-shuffled caller-order chain instead of the sorted one,
  /// deliberately voiding the Theorem 1/2 precondition (one-shot only).
  bool shuffle_chain = false;
  std::uint64_t shuffle_seed = 0;
  /// The fault plan when one was given, else null.  A given plan selects
  /// the reliable protocol and relaxes strict contention freedom even when
  /// it is empty (`pcmcast --faults "seed:3"`).
  const sim::FaultPlan* plan = nullptr;
  int slots = 0;  ///< stream length; 0 = one-shot
  int window = 8;
  Time heartbeat = 0;  ///< membership lease cadence (streams; 0 = off)
  bool failover = false;
  bool rejoin = false;
  /// The simulator's observer (in front of the auditor, so a violation's
  /// trace ends at the offending event) and the protocol log the audit
  /// replays.  Audited runs need it unbounded.  When null, an audited
  /// run keeps a detached protocol-only log of its own.
  obs::FlightRecorder* trace = nullptr;
};

/// What a run produced: `shot` for one-shot runs, `stream` for streams.
struct PlacementResult {
  rt::McastResult shot;
  rt::StreamResult stream;
};

/// The --shuffle-chain permutation of a destination list: the seeded
/// shuffle the chaos harness and pcmcast/pcmlint apply alike.
std::vector<NodeId> shuffle_dests(std::vector<NodeId> dests, std::uint64_t seed);

/// The tree a one-shot run of `run` executes: `alg` over the placement,
/// or its split rule over the shuffled chain under shuffle_chain.
MulticastTree placement_tree(const PlacementRun& run, const rt::MulticastRuntime& rtm);

/// Executes `run` on the fresh simulator `sim`: installs the auditor
/// (contention freedom demanded of the guaranteed algorithms on runs
/// without a plan, streams at window 1 only) and the fault plan, runs the
/// plain, reliable or stream path, re-certifies every tree a stream
/// adopts (pcmlint, Theorem 1), then finalizes the auditor and replays
/// the protocol log.  `out` is filled before the closing audit, so it
/// keeps the run's figures when that audit throws.
void run_placement(const rt::MulticastRuntime& rtm, sim::Simulator& sim,
                   const PlacementRun& run, PlacementResult& out);

}  // namespace pcm::verify
