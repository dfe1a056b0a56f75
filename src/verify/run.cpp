#include "verify/run.hpp"

#include <optional>
#include <string>
#include <vector>

#include "analysis/rng.hpp"
#include "core/chain.hpp"
#include "lint/lint.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm::verify {

std::vector<NodeId> shuffle_dests(std::vector<NodeId> dests, std::uint64_t seed) {
  analysis::Rng rng(seed);
  rng.shuffle(dests);
  return dests;
}

MulticastTree placement_tree(const PlacementRun& run, const rt::MulticastRuntime& rtm) {
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(run.bytes, 1));
  if (run.shuffle_chain) {
    const std::vector<NodeId> dests = shuffle_dests(
        std::vector<NodeId>(run.dests.begin(), run.dests.end()), run.shuffle_seed);
    const Chain chain = make_chain(run.source, dests, ChainOrder::kAsGiven);
    return build_chain_split_tree(chain, split_table_for(run.alg, tp, chain.size()));
  }
  return build_multicast(run.alg, run.source, run.dests, tp, run.shape);
}

void run_placement(const rt::MulticastRuntime& rtm, sim::Simulator& sim,
                   const PlacementRun& run, PlacementResult& out) {
  const bool guaranteed = guarantees_contention_free(run.alg);
  std::optional<InvariantAuditor> auditor;
  if (run.audit) {
    AuditConfig acfg;
    // Theorems 1-2 cover one healthy tree at a time: a retransmission
    // shares its receiver's sub-network, and with window > 1 consecutive
    // stream slots legally share channels.
    acfg.require_contention_free =
        guaranteed && run.plan == nullptr && (run.slots == 0 || run.window == 1);
    acfg.plan_known = run.plan != nullptr;
    if (run.plan != nullptr) acfg.plan = *run.plan;
    auditor.emplace(sim.topology(), acfg);
    sim.set_observer(&*auditor);
  }
  if (run.trace != nullptr) {
    run.trace->chain(auditor ? &*auditor : nullptr);
    sim.set_observer(run.trace);
  }
  if (run.plan != nullptr) sim.set_fault_plan(*run.plan);

  // The protocol log the audit replays: the trace when there is one, else
  // a detached recorder that sees the protocol events only.
  std::optional<obs::FlightRecorder> own_log;
  obs::FlightRecorder* log = run.trace;
  if (run.audit && log == nullptr)
    log = &own_log.emplace(obs::RecorderConfig{obs::kUnbounded});

  if (run.slots > 0) {
    rt::StreamConfig scfg;
    scfg.window_size = run.window;
    scfg.slots = run.slots;
    scfg.bytes = run.bytes;
    scfg.alg = run.alg;
    scfg.shape = run.shape;
    scfg.reliable = run.plan != nullptr || run.heartbeat > 0;
    scfg.ft.max_retries = run.max_retries;
    scfg.recorder = log;
    scfg.membership.heartbeat_period = run.heartbeat;
    scfg.failover = run.failover;
    scfg.rejoin = run.rejoin;
    // Every epoch rebuild re-splits the chain; a guaranteed algorithm must
    // stay contention-free over any sorted sub-chain, which pcmlint proves
    // for each adopted tree without simulating a flit.
    if (run.audit && guaranteed) {
      scfg.on_reconfigure = [&](const MulticastTree& tree) {
        lint::LintOptions lopts;
        lopts.max_diagnostics = 1;
        lopts.keep_schedule = false;
        const lint::LintReport lr = lint::lint_tree(
            tree, sim.topology(), rtm.config(), sim::SimConfig{}, run.bytes, lopts);
        if (!lr.clean()) {
          std::string detail = lr.describe(tree, sim.topology());
          if (const std::size_t nl = detail.find('\n'); nl != std::string::npos)
            detail.resize(nl);
          throw InvariantViolation(Invariant::kContentionFreedom,
                                   "pcmlint rejects an epoch tree: " + detail);
        }
      };
    }
    out.stream = rt::StreamRuntime(rtm).run(sim, run.source, run.dests, scfg, sim.now());
    if (auditor) {
      auditor->finalize(sim);
      InvariantAuditor::audit_stream(out.stream, log->snapshot(), log->events_dropped());
    }
    return;
  }

  const MulticastTree tree = placement_tree(run, rtm);
  if (run.plan == nullptr) {
    out.shot = rtm.run(sim, tree, run.bytes, sim.now());
    if (auditor) auditor->finalize(sim);
    return;
  }
  rt::FtConfig ft;
  ft.max_retries = run.max_retries;
  ft.recorder = log;
  out.shot = rtm.run_reliable(sim, tree, run.bytes, ft, sim.now());
  if (auditor) {
    auditor->finalize(sim);
    InvariantAuditor::audit_result(out.shot, log->snapshot(), log->events_dropped());
  }
}

}  // namespace pcm::verify
