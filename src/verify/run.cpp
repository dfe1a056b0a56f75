#include "verify/run.hpp"

#include <optional>
#include <span>
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
  // An audited run records into one unbounded recorder, the trace when
  // there is one: the simulator's observer and the runtime's protocol log
  // at once, which the audit replays after the run.
  std::optional<obs::FlightRecorder> own_log;
  obs::FlightRecorder* log = run.trace;
  if (run.audit && log == nullptr)
    log = &own_log.emplace(obs::RecorderConfig{obs::kUnbounded});
  if (log != nullptr) sim.set_observer(log);
  if (run.plan != nullptr) sim.set_fault_plan(*run.plan);

  // The stream, plain or reliable path.
  auto execute = [&] {
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
      if (run.audit && guarantees_contention_free(run.alg)) {
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
      return;
    }
    const MulticastTree tree = placement_tree(run, rtm);
    if (run.plan == nullptr) {
      out.shot = rtm.run(sim, tree, run.bytes, sim.now());
      return;
    }
    rt::FtConfig ft;
    ft.max_retries = run.max_retries;
    out.shot = rtm.run_reliable(sim, tree, run.bytes, ft, sim.now(), log);
  };
  if (!run.audit) {
    execute();
    return;
  }

  AuditConfig acfg;
  // Theorems 1-2 cover one healthy tree at a time: a retransmission
  // shares its receiver's sub-network, and with window > 1 consecutive
  // stream slots legally share channels.
  acfg.require_contention_free = guarantees_contention_free(run.alg) &&
                                 run.plan == nullptr &&
                                 (run.slots == 0 || run.window == 1);
  acfg.plan_known = run.plan != nullptr;
  if (run.plan != nullptr) acfg.plan = *run.plan;
  const InvariantAuditor auditor(sim.topology(), std::move(acfg));
  // A run cut short is replayed as far as it got: a violation found there
  // happened before the exception, so it is the verdict.  A watchdog's
  // report must also agree with the replayed ledger.  The replay reads the
  // recording in place; only a bounded trace that wrapped is copied.
  std::vector<obs::TraceEvent> wrapped_copy;
  try {
    execute();
  } catch (const sim::WatchdogError& e) {
    auditor.audit_partial(log->events(wrapped_copy), log->events_dropped(), &e.report());
    throw;
  } catch (...) {
    auditor.audit_partial(log->events(wrapped_copy), log->events_dropped());
    throw;
  }
  const std::span<const obs::TraceEvent> events = log->events(wrapped_copy);
  auditor.audit_run(events, log->events_dropped(), sim.stats(), sim.idle(), sim.now());
  if (run.slots > 0)
    InvariantAuditor::audit_stream(out.stream, events, log->events_dropped());
  else if (run.plan != nullptr)
    InvariantAuditor::audit_result(out.shot, events, log->events_dropped());
}

}  // namespace pcm::verify
