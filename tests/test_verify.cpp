// The verify subsystem: invariant auditing and the chaos harness.
//
//   * zero-fault golden scenarios (mesh + BMIN, OPT/U trees) pass the
//     strict auditor untouched;
//   * the algorithm's split rule over a *shuffled* (caller-order) chain
//     on the 16x16 mesh violates contention freedom — and the auditor
//     says so;
//   * fabricated traces (phantom deliveries and drops, corruption,
//     channel-exclusivity breaches, watchdog mismatches, double-counted
//     acks) are each caught with the right Invariant tag, and a wrapped
//     recorder is refused, never audited;
//   * the chaos sweep is bit-deterministic at any thread fan-out and
//     clean on the current builders;
//   * the minimizer shrinks a known-bad scenario to a reproducer that
//     replays (and still fails) under `pcmcast --audit`.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/sampling.hpp"
#include "cli/options.hpp"
#include "mesh/mesh_topology.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "verify/chaos.hpp"
#include "verify/invariant_auditor.hpp"

namespace pcm {
namespace {

using verify::Invariant;
using verify::InvariantAuditor;
using verify::InvariantViolation;

/// One trace record as the flight recorder writes it (obs::EventKind
/// gives each kind's payload).
obs::TraceEvent make_event(obs::EventKind kind, Time t, int a = 0, int b = 0,
                           int c = 0, int d = 0) {
  return {.cycle = t, .a = a, .b = b, .c = c, .d = d,
          .kind = static_cast<std::uint16_t>(kind)};
}
obs::TraceEvent post(sim::MsgId msg) {
  return make_event(obs::EventKind::kPost, 0, msg, 0, 1, 4);
}
obs::TraceEvent deliver(Time t, sim::MsgId msg, bool corrupted = false) {
  return make_event(obs::EventKind::kDeliver, t, msg, 0, 1, corrupted ? 1 : 0);
}
obs::TraceEvent reserve(Time t, int router, int port, sim::MsgId msg) {
  return make_event(obs::EventKind::kReserve, t, router, port, msg);
}
obs::TraceEvent release(Time t, int router, int port, sim::MsgId msg) {
  return make_event(obs::EventKind::kRelease, t, router, port, msg);
}

Invariant catch_invariant(const std::function<void()>& f) {
  try {
    f();
  } catch (const InvariantViolation& v) {
    return v.invariant();
  }
  ADD_FAILURE() << "expected an InvariantViolation";
  return Invariant::kConservation;
}

// --- strictness mapping --------------------------------------------------

TEST(Verify, ContentionFreedomGuaranteeMapsToSortedChains) {
  EXPECT_TRUE(verify::guarantees_contention_free(McastAlgorithm::kOptMesh));
  EXPECT_TRUE(verify::guarantees_contention_free(McastAlgorithm::kUMesh));
  EXPECT_TRUE(verify::guarantees_contention_free(McastAlgorithm::kOptMin));
  EXPECT_TRUE(verify::guarantees_contention_free(McastAlgorithm::kUMin));
  EXPECT_FALSE(verify::guarantees_contention_free(McastAlgorithm::kOptTree));
  EXPECT_FALSE(verify::guarantees_contention_free(McastAlgorithm::kBinomial));
  EXPECT_FALSE(verify::guarantees_contention_free(McastAlgorithm::kSequential));
}

// --- zero-fault golden scenarios -----------------------------------------

TEST(Verify, ZeroFaultGoldenScenariosPassStrictAudit) {
  struct Case {
    const char* topology;
    McastAlgorithm alg;
  };
  const Case cases[] = {
      {"mesh:16", McastAlgorithm::kOptMesh}, {"mesh:16", McastAlgorithm::kUMesh},
      {"bmin:32", McastAlgorithm::kOptMin},  {"bmin:32", McastAlgorithm::kUMin},
      {"mesh:16", McastAlgorithm::kOptTree}, {"bmin:64", McastAlgorithm::kOptTree},
  };
  for (const Case& c : cases) {
    verify::ChaosScenario s;
    s.topology = c.topology;
    s.alg = c.alg;
    const int n = std::string(c.topology) == "mesh:16" ? 256
                  : std::string(c.topology) == "bmin:32" ? 32
                                                         : 64;
    const analysis::Placement p = analysis::sample_placements(17, n, 16, 1)[0];
    s.source = p.source;
    s.dests = p.dests;
    s.bytes = 1024;
    const verify::ScenarioOutcome out = verify::run_scenario(s);
    EXPECT_FALSE(out.violated) << c.topology << ": " << out.violation;
    EXPECT_EQ(out.delivered, 1.0);
    EXPECT_EQ(out.dropped, 0);
  }
}

TEST(Verify, AuditorLedgerMatchesSimStats) {
  const auto topo = mesh::make_mesh2d(8);
  sim::Simulator sim(*topo);
  obs::FlightRecorder log(obs::RecorderConfig{obs::kUnbounded});
  sim.set_observer(&log);
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const analysis::Placement p = analysis::sample_placements(3, 64, 12, 1)[0];
  (void)rtm.run_algorithm(sim, McastAlgorithm::kOptMesh, p.source, p.dests, 512,
                          &topo->shape());
  const std::vector<obs::TraceEvent> events = log.snapshot();
  EXPECT_EQ(std::ranges::count(events, static_cast<std::uint16_t>(obs::EventKind::kPost),
                               &obs::TraceEvent::kind),
            11);
  const InvariantAuditor auditor(*topo);
  auditor.audit_run(events, 0, sim.stats(), sim.idle(), sim.now());
  // The replayed ledger, not the engine's counters, is the reference.
  sim::SimStats off = sim.stats();
  ++off.messages_delivered;
  EXPECT_EQ(catch_invariant([&] { auditor.audit_run(events, 0, off, true, sim.now()); }),
            Invariant::kConservation);
}

// --- the shuffled-chain violation ----------------------------------------

verify::ChaosScenario shuffled_mesh16_scenario() {
  verify::ChaosScenario s;
  s.topology = "mesh:16";
  s.alg = McastAlgorithm::kOptMesh;
  const analysis::Placement p = analysis::sample_placements(7, 256, 32, 1)[0];
  s.source = p.source;
  s.dests = p.dests;
  s.bytes = 4096;
  s.shuffle_chain = true;
  s.shuffle_seed = 7;
  return s;
}

TEST(Verify, ShuffledChainOnMesh16ViolatesContentionFreedom) {
  const verify::ScenarioOutcome out = verify::run_scenario(shuffled_mesh16_scenario());
  ASSERT_TRUE(out.violated);
  EXPECT_NE(out.violation.find("contention-freedom"), std::string::npos)
      << out.violation;
  // The identical destinations through the sorted-chain builder are clean.
  verify::ChaosScenario sorted = shuffled_mesh16_scenario();
  sorted.shuffle_chain = false;
  const verify::ScenarioOutcome ok = verify::run_scenario(sorted);
  EXPECT_FALSE(ok.violated) << ok.violation;
}

// --- fabricated event-stream violations ----------------------------------

/// The invariant a replay of `events` on the 4x4 mesh breaks.
Invariant replay_verdict(const std::vector<obs::TraceEvent>& events,
                         const verify::AuditConfig& cfg = {},
                         const sim::WatchdogReport* watchdog = nullptr) {
  const auto topo = mesh::make_mesh2d(4);
  return catch_invariant(
      [&] { InvariantAuditor(*topo, cfg).audit_partial(events, 0, watchdog); });
}

TEST(Verify, PhantomDeliveryCaught) {
  // Delivery of a message never posted.
  EXPECT_EQ(replay_verdict({deliver(10, 0)}), Invariant::kPhantomDelivery);
  // Delivery twice.
  EXPECT_EQ(replay_verdict({post(0), deliver(10, 0), deliver(11, 0)}),
            Invariant::kPhantomDelivery);
}

TEST(Verify, CorruptionMismatchCaught) {
  // No plan known: nothing may corrupt.
  EXPECT_EQ(replay_verdict({post(0), deliver(5, 0, /*corrupted=*/true)}),
            Invariant::kCorruptionMismatch);
}

TEST(Verify, PhantomDropCaught) {
  // Healthy run: any drop is a violation.
  EXPECT_EQ(replay_verdict({post(0), make_event(obs::EventKind::kDrop, 5, 0,
                                         static_cast<int>(sim::DropReason::kNodeDead))}),
            Invariant::kPhantomDrop);
}

TEST(Verify, ChannelExclusivityCaught) {
  auto held_then = [](const obs::TraceEvent& next) {
    return std::vector<obs::TraceEvent>{post(0), post(1), reserve(3, 2, 1, 0), next};
  };
  // Double reservation by another message.
  EXPECT_EQ(replay_verdict(held_then(reserve(4, 2, 1, 1))), Invariant::kChannelExclusivity);
  // Release by a non-holder.
  EXPECT_EQ(replay_verdict(held_then(release(5, 2, 1, 1))), Invariant::kChannelExclusivity);
  // The holder may release.
  const auto topo = mesh::make_mesh2d(4);
  EXPECT_NO_THROW(InvariantAuditor(*topo).audit_partial(held_then(release(6, 2, 1, 0)), 0));
  // A fault purges a worm only after releasing every channel it held.
  const obs::TraceEvent purge = make_event(obs::EventKind::kDrop, 6, 0,
                                           static_cast<int>(sim::DropReason::kNodeDead));
  EXPECT_EQ(replay_verdict(held_then(purge), {.plan_known = true, .plan = {}}),
            Invariant::kChannelExclusivity);
}

TEST(Verify, WatchdogReportMismatchCaught) {
  sim::WatchdogReport rep;  // one pending message the report fails to list
  rep.cycle = 100;
  EXPECT_EQ(replay_verdict({post(0)}, {}, &rep), Invariant::kWatchdogMismatch);
}

TEST(Verify, ViolationCarriesStructuredFields) {
  const auto topo = mesh::make_mesh2d(4);
  try {
    InvariantAuditor(*topo).audit_partial(
        std::vector<obs::TraceEvent>{post(0), post(1), reserve(3, 2, 1, 0),
                                     reserve(4, 2, 1, 1)},
        0);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), Invariant::kChannelExclusivity);
    EXPECT_EQ(v.cycle(), 4);
    EXPECT_EQ(v.msg(), 1);
    EXPECT_EQ(v.router(), 2);
    EXPECT_EQ(v.port(), 1);
    EXPECT_NE(std::string(v.what()).find("channel-exclusivity"), std::string::npos);
  }
}

// --- McastResult / ack-epoch audits --------------------------------------

rt::McastResult healthy_two_node_result() {
  rt::McastResult res;
  res.recv_complete = {-1, 100};  // source + one destination
  res.expected_dests = 1;
  res.delivered_dests = 1;
  res.complete = true;
  res.delivered_fraction = 1.0;
  return res;
}

// One send-lifecycle record as run_reliable writes it to the flight
// recorder: a = record, b = attempt, c = receiver position, d = -1.
obs::TraceEvent issue(Time t, int record, int attempt) {
  return make_event(obs::EventKind::kSendAttempt, t, record, attempt, 1, -1);
}
obs::TraceEvent ack(Time t, int record, int attempt) {
  return make_event(obs::EventKind::kSendAcked, t, record, attempt, 1, -1);
}

Invariant audit_result_verdict(const rt::McastResult& res,
                               const std::vector<obs::TraceEvent>& events) {
  return catch_invariant(
      [&] { InvariantAuditor::audit_result(res, events, 0); });
}

TEST(Verify, DroppedAckDoubleCountCaught) {
  const rt::McastResult res = healthy_two_node_result();
  const std::vector<obs::TraceEvent> events = {
      issue(0, 0, 0), ack(90, 0, 0),
      ack(95, 0, 0)};  // the dropped-ack double count
  try {
    InvariantAuditor::audit_result(res, events, 0);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& v) {
    EXPECT_EQ(v.invariant(), Invariant::kAckEpoch);
    EXPECT_NE(std::string(v.what()).find("double count"), std::string::npos);
  }
}

TEST(Verify, AckEpochRegressionsCaught) {
  const rt::McastResult res = healthy_two_node_result();
  // Re-issuing the same attempt: the epoch did not advance.
  EXPECT_EQ(audit_result_verdict(res, {issue(0, 0, 0), issue(50, 0, 0)}),
            Invariant::kAckEpoch);
  // An ack with no issued attempt.
  EXPECT_EQ(audit_result_verdict(res, {ack(10, 0, 0)}), Invariant::kAckEpoch);
  // An ack for an attempt beyond the last issued one.
  EXPECT_EQ(audit_result_verdict(res, {issue(0, 0, 0), ack(10, 0, 3)}),
            Invariant::kAckEpoch);
  // A re-issue after the ack arrived.
  EXPECT_EQ(audit_result_verdict(
                res, {issue(0, 0, 0), ack(10, 0, 0), issue(20, 0, 1)}),
            Invariant::kAckEpoch);
}

TEST(Verify, ResultConsistencyCaught) {
  rt::McastResult res = healthy_two_node_result();
  res.delivered_fraction = 0.5;  // contradicts recv_complete
  EXPECT_EQ(audit_result_verdict(res, {}), Invariant::kResultConsistency);
  res = healthy_two_node_result();
  res.dead_nodes = {3};  // dead + delivered > expected: an ack double count
  EXPECT_EQ(audit_result_verdict(res, {}), Invariant::kResultConsistency);
}

TEST(Verify, RealReliableRunTracePassesAudit) {
  const auto topo = mesh::make_mesh2d(16);
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const analysis::Placement p = analysis::sample_placements(5, 256, 32, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(4096, 1));
  const MulticastTree tree =
      build_multicast(McastAlgorithm::kOptMesh, p.source, p.dests, tp,
                      &topo->shape());
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.node_events.push_back({300, p.dests[5]});
  sim.set_fault_plan(plan);
  obs::FlightRecorder rec(obs::RecorderConfig{obs::kUnbounded});
  const rt::McastResult res = rtm.run_reliable(sim, tree, 4096, {}, 0, &rec);
  EXPECT_GT(rec.events_recorded(), 0u);
  // must not throw
  InvariantAuditor::audit_result(res, rec.snapshot(), rec.events_dropped());
}

TEST(Verify, AuditRefusesAWrappedRecorder) {
  // A ring smaller than the run overwrote its oldest send events; the
  // replay would see acks without their issues.  The audit refuses the
  // trace instead of reporting a false violation.
  const auto topo = mesh::make_mesh2d(8);
  const rt::MulticastRuntime rtm{rt::RuntimeConfig{}};
  const analysis::Placement p = analysis::sample_placements(5, 64, 16, 1)[0];
  const TwoParam tp = rtm.config().machine.two_param(rtm.wire_bytes(256, 1));
  const MulticastTree tree = build_multicast(McastAlgorithm::kOptMesh, p.source,
                                             p.dests, tp, &topo->shape());
  sim::Simulator sim(*topo);
  sim::FaultPlan plan;
  plan.drop_rate = 0.01;
  plan.seed = 3;
  sim.set_fault_plan(plan);
  obs::FlightRecorder rec(obs::RecorderConfig{8});
  const rt::McastResult res = rtm.run_reliable(sim, tree, 256, {}, 0, &rec);
  ASSERT_GT(rec.events_dropped(), 0u);
  EXPECT_THROW(
      InvariantAuditor::audit_result(res, rec.snapshot(), rec.events_dropped()),
      std::invalid_argument);
}

// --- chaos sweep ----------------------------------------------------------

TEST(Chaos, ScenarioGenerationIsAPureFunctionOfSeedAndIndex) {
  const verify::ChaosScenario a = verify::make_scenario(42, 663);
  const verify::ChaosScenario b = verify::make_scenario(42, 663);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.alg, b.alg);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.dests, b.dests);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_TRUE(a.plan == b.plan);
  const verify::ChaosScenario c = verify::make_scenario(42, 664);
  EXPECT_FALSE(a.topology == c.topology && a.source == c.source &&
               a.dests == c.dests && a.plan == c.plan);
}

TEST(Chaos, SweepIsDeterministicAcrossJobsAndCleanOnCurrentBuilders) {
  verify::ChaosConfig cfg;
  cfg.scenarios = 120;
  cfg.seed = 1;
  cfg.jobs = 1;
  const verify::ChaosReport serial = verify::run_chaos(cfg);
  cfg.jobs = 4;
  const verify::ChaosReport parallel = verify::run_chaos(cfg);
  EXPECT_EQ(serial.violations, 0) << "first violating scenario: "
                                  << (serial.violating_indices.empty()
                                          ? -1
                                          : serial.violating_indices[0]);
  EXPECT_EQ(serial.violations, parallel.violations);
  EXPECT_EQ(serial.watchdogs, parallel.watchdogs);
  EXPECT_EQ(serial.retries, parallel.retries);
  EXPECT_EQ(serial.repairs, parallel.repairs);
  EXPECT_EQ(serial.dropped, parallel.dropped);
  EXPECT_EQ(serial.mean_delivered, parallel.mean_delivered);
  EXPECT_EQ(serial.violating_indices, parallel.violating_indices);
  // Faults actually exercised the protocol.
  EXPECT_GT(serial.retries, 0);
  EXPECT_LT(serial.mean_delivered, 1.0);
}

// --- delta-debugging ------------------------------------------------------

TEST(Chaos, MinimizeRejectsCleanScenarios) {
  verify::ChaosScenario s = shuffled_mesh16_scenario();
  s.shuffle_chain = false;
  EXPECT_THROW((void)verify::minimize(s), std::invalid_argument);
}

TEST(Chaos, MinimizerShrinksToReplayableRepro) {
  const verify::MinimizeResult mr = verify::minimize(shuffled_mesh16_scenario());
  EXPECT_GT(mr.runs, 1);
  EXPECT_GT(mr.removed, 0);
  EXPECT_LT(mr.scenario.dests.size(), 31u);
  EXPECT_NE(mr.violation.find("contention-freedom"), std::string::npos);
  // Local minimum: it still violates...
  const verify::ScenarioOutcome out = verify::run_scenario(mr.scenario);
  ASSERT_TRUE(out.violated);
  // ...and the serialized command replays it under `pcmcast --audit`,
  // exit code 3 (the audit-violation code).
  const std::string cmd = verify::repro_command(mr.scenario);
  EXPECT_NE(cmd.find("--shuffle-chain"), std::string::npos);
  EXPECT_NE(cmd.find("--audit"), std::string::npos);
  std::vector<std::string> tokens;
  std::istringstream is(cmd);
  for (std::string tok; is >> tok;) tokens.push_back(tok);
  ASSERT_EQ(tokens.front(), "pcmcast");
  std::vector<std::string_view> args(tokens.begin() + 1, tokens.end());
  const cli::CliOptions opt = cli::parse_args(args);
  std::ostringstream os;
  EXPECT_EQ(cli::run_cli(opt, os), 3);
  EXPECT_NE(os.str().find("AUDIT VIOLATION"), std::string::npos);
}

// --- replay fidelity -----------------------------------------------------

/// Runs a repro_command line through pcmcast's parser and driver.
int replay(const std::string& cmd, std::string* out) {
  std::vector<std::string> tokens;
  std::istringstream is(cmd);
  for (std::string tok; is >> tok;) {
    if (tok.size() >= 2 && tok.front() == '"' && tok.back() == '"')
      tok = tok.substr(1, tok.size() - 2);
    tokens.push_back(tok);
  }
  EXPECT_EQ(tokens.front(), "pcmcast");
  const std::vector<std::string_view> args(tokens.begin() + 1, tokens.end());
  std::ostringstream os, err;
  const int code = cli::run_cli(cli::parse_args(args), os, err);
  *out = os.str();
  return code;
}

TEST(Chaos, ReproCommandsReplayThroughPcmcast) {
  // Every reproducer must exit as its scenario ran: 3 on a violation, 1
  // on partial delivery, 0 otherwise.  One-shot scenarios also replay a
  // fault-free shuffled-chain copy, so the violation path is covered.
  std::vector<verify::ChaosScenario> scenarios;
  for (int i = 0; i < 40; ++i) {
    scenarios.push_back(verify::make_scenario(1, i));
    verify::ChaosScenario shuffled = scenarios.back();
    shuffled.plan = {};
    shuffled.shuffle_chain = true;
    shuffled.shuffle_seed = static_cast<std::uint64_t>(i);
    scenarios.push_back(shuffled);
    scenarios.push_back(verify::make_stream_scenario(7, i));
    scenarios.push_back(verify::make_stream_scenario(11, i));
  }
  int seen[4] = {0, 0, 0, 0};
  for (const verify::ChaosScenario& s : scenarios) {
    const verify::ScenarioOutcome o = verify::run_scenario(s);
    const int expected = o.violated ? 3 : o.delivered < 1.0 ? 1 : 0;
    const std::string cmd = verify::repro_command(s);
    std::string out;
    EXPECT_EQ(replay(cmd, &out), expected) << cmd << "\n" << out;
    ++seen[expected];
  }
  // The sample exercises every exit code the contract defines.
  EXPECT_GT(seen[0], 0);
  EXPECT_GT(seen[1], 0);
  EXPECT_GT(seen[3], 0);
}

}  // namespace
}  // namespace pcm
