// The benchmark's workloads: seeded inputs, one timed op at a time, and
// the untimed output checks (see README.md for why each workload exists).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Per-layer instrumentation of the traced mode.  Workloads receive a
/// null Tracer when tracing is off and then record nothing.
struct Tracer {
  SpanLog log;
  int op_span = -1;  ///< span of the op in progress (parent of layer spans)
  int op = -1;       ///< id of the op in progress

  // Work counts, read from the public results of each layer call.
  long long core_builds = 0;
  long long runtime_mcasts = 0;
  long long runtime_streams = 0;
  long long runtime_slots = 0;  ///< committed stream slots
  long long runtime_retries = 0;
  long long runtime_stale_acks = 0;
  long long runtime_epochs = 0;
  long long runtime_failovers = 0;
  long long lint_trees = 0;
  long long lint_forests = 0;
  long long lint_offsets = 0;
  long long lint_streams = 0;
  long long lint_analyzed_slots = 0;
  long long lint_sends = 0;  ///< send windows derived by every lint call
  long long sim_messages = 0;
  long long sim_flit_hops = 0;
  long long sim_cycles = 0;
  long long sim_conflicts = 0;
  long long sim_ff_jumps = 0;   ///< SimObserver::on_fast_forward calls
  long long sim_ff_cycles = 0;  ///< cycles those jumps skipped
  long long obs_events = 0;
  long long obs_dropped = 0;
};

/// What one op reports besides its host time.
struct OpResult {
  long long work = 0;         ///< messages simulated, or send windows derived
  std::uint64_t digest = 0;   ///< FNV-1a over every output the op computed
};

/// A named metric with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Ops in one pass over the inputs.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Runs op `i`: the timed region.
  virtual OpResult run(std::size_t i, Tracer* tr) = 0;

  /// Checks the outputs of the op `run` executed last (untimed).  Returns
  /// "" when they pass, else a one-line reproducer of the failed op.
  virtual std::string check(std::size_t i) = 0;

  /// Deterministic (simulated or static) metrics over the checked, first
  /// run of every op.
  [[nodiscard]] virtual std::vector<Metric> simulated() const = 0;
};

enum class Size { kFull, kSmoke };

/// Builds the inputs of workload `name` from `seed`; nullptr when the name
/// is unknown.  Besides the workloads BENCHMARK.json lists there are
/// "stream_clean" and "stall_repro", the one reliable stream known to
/// stall (it must report a failure).
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Size size);

}  // namespace perfbench
