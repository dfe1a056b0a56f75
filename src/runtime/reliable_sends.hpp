// The tracked-send core of every reliable protocol (DESIGN.md §6.2):
// MulticastRuntime::run_reliable is its one-slot user and the reliable
// stream its many-slot user.  What differs stays with the callers: what a
// first delivery means to them (deliver's callback) and what to do with a
// send out of retries (sweep's callback).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "core/multicast_tree.hpp"
#include "core/opt_tree.hpp"
#include "obs/recorder.hpp"
#include "runtime/mcast_runtime.hpp"
#include "sim/simulator.hpp"

namespace pcm::rt {

class ReliableSends {
 public:
  /// One tracked send.  Retransmissions reuse the record (and its tag:
  /// the record index); records are append-only, so indices stay stable.
  struct Send {
    int slot = 0;
    int sender = 0;             ///< original chain position
    int recv = 0;               ///< original chain position
    /// Current-tree position of the receiver of a primary send (its
    /// interval comes from the tree, and its first delivery forwards along
    /// the tree); -1 for a repair re-split or a catch-up.
    int recv_cur = -1;
    std::vector<int> interval;  ///< original positions, ascending, incl recv
    int attempt = 0;
    bool acked = false;
    bool closed = false;
    Time ack_deadline = 0;
    Time subtree_deadline = kTimeInfinity;
  };

  /// Tracks sends of slots first_slot .. first_slot + slots - 1 of
  /// `orig`'s payload (run_reliable's multicast is slot -1, the label its
  /// trace carries); `orig` is the initial current tree.  `rtm`, `sim`,
  /// `orig` and `recorder` (nullable) must outlive this object.  The one
  /// check of a retry policy: throws std::invalid_argument unless
  /// ft.max_retries is in [0, 40], timeout_scale >= 1, timeout_slack >= 0.
  ReliableSends(const MulticastRuntime& rtm, sim::Simulator& sim,
                const MulticastTree& orig, Bytes payload, const FtConfig& ft,
                int first_slot, int slots, obs::FlightRecorder* recorder);
  ReliableSends(const ReliableSends&) = delete;  // the handlers hold `this`
  ReliableSends& operator=(const ReliableSends&) = delete;

  /// Follows `cur` (a tree over original chain nodes, kept alive by the
  /// caller) from now on.
  void retarget(const MulticastTree& cur);
  /// The tree activate() follows.
  [[nodiscard]] const MulticastTree& tree() const { return *cur_; }

  /// Issues the primary sends of current-tree position `cpos` for `slot`,
  /// active from `at`.  A send whose receiver already holds the slot (or
  /// is dead) collapses into a repair re-split of its owed interval.
  void activate(int slot, int cpos, Time at);
  /// Tracks a single-address send of `slot` from `sender` to `recv`.
  void catch_up(int slot, int sender, int recv, Time at) {
    track(slot, sender, recv, -1, {recv}, at);
  }

  /// The delivery handler's core.  Skips a corrupted message (the ack
  /// timeout retransmits it) and counts a duplicate, acking its record if
  /// need be.  A first delivery marks the receiver, calls
  /// on_first(slot, pos, done), acks the record and forwards the slot
  /// (primary sends, or a re-split of the repair interval); only then is
  /// `done` returned.
  template <typename OnFirst>
  std::optional<Time> deliver(const sim::Message& m, OnFirst&& on_first);

  /// The drop handler's core.  A fail-stopped sender cannot run its retry
  /// ladder: its record closes with no verdict on the receiver, and the
  /// ancestor whose subtree deadline watches the interval takes over.
  /// Every other drop is invisible, as on a real machine.
  void drop(const sim::Message& m) {
    if (m.drop_reason == sim::DropReason::kSenderDead)
      sends_[static_cast<std::size_t>(m.tag)].closed = true;
  }

  /// Forgets closed records; returns the earliest deadline of the open
  /// ones (kTimeInfinity if none).
  Time horizon();
  /// No record open, as of the last horizon().
  [[nodiscard]] bool idle() const { return open_.empty(); }

  /// Expiry sweep at `now` over the open records, ascending: a send served
  /// through another record is acked, an expired unacked one retransmitted
  /// (backed off), and an acked one whose subtree went quiet hands its
  /// owed interval to its receiver to re-split.  A send out of retries
  /// goes to exhausted(ri); a false from it abandons the sweep, and sweep
  /// returns false, before anything is reissued.
  template <typename OnExhausted>
  bool sweep(Time now, OnExhausted&& exhausted);

  /// Closes record `ri` and queues, for the end of the current sweep, a
  /// re-split of its owed interval (receiver excluded) from `sender`.
  void reassign(std::size_t ri, int sender);

  /// Closes every open record (an epoch transition).
  void close_all() {
    for (const std::size_t ri : open_) sends_[ri].closed = true;
    open_.clear();
  }

  [[nodiscard]] const Send& send(std::size_t ri) const { return sends_[ri]; }
  [[nodiscard]] std::size_t size() const { return sends_.size(); }
  /// Finish-receive time of delivered message `m`.
  [[nodiscard]] Time done(const sim::Message& m) const {
    const Send& s = sends_[static_cast<std::size_t>(m.tag)];
    const Bytes wire = rtm_.wire_bytes(payload_, static_cast<int>(s.interval.size()));
    return m.delivered + rtm_.config().machine.t_recv(wire);
  }

  [[nodiscard]] bool delivered(int pos, int slot) const {
    return delivered_[cell(pos, slot)] != 0;
  }
  [[nodiscard]] bool dead(int pos) const {
    return dead_[static_cast<std::size_t>(pos)] != 0;
  }
  void mark_dead(int pos) { dead_[static_cast<std::size_t>(pos)] = 1; }
  void revive(int pos) { dead_[static_cast<std::size_t>(pos)] = 0; }
  /// `pos` holds every slot (an acting source).
  void hold_all(int pos) {
    std::fill_n(&delivered_[cell(pos, first_slot_)], slots_, char{1});
  }
  /// Contiguous slots `pos` holds from first_slot on.
  [[nodiscard]] int prefix(int pos) const {
    const char* row = &delivered_[cell(pos, first_slot_)];
    return static_cast<int>(std::find(row, row + slots_, char{0}) - row);
  }

  struct Counts {
    long long messages = 0;  ///< posts, retransmissions included
    int retries = 0;
    int repairs = 0;  ///< orphan re-splits
    int duplicates = 0;
  };
  [[nodiscard]] const Counts& counts() const { return counts_; }

 private:
  struct Job {
    int slot;
    int sender;
    std::vector<int> list;
  };

  [[nodiscard]] std::size_t cell(int pos, int slot) const {
    return static_cast<std::size_t>(pos) * static_cast<std::size_t>(slots_) +
           static_cast<std::size_t>(slot - first_slot_);
  }
  /// `pos` still needs `slot`: neither holds it nor is dead.
  [[nodiscard]] bool owed(int pos, int slot) const {
    return !delivered(pos, slot) && !dead(pos);
  }
  /// The owed positions of `s`'s interval other than its receiver.
  [[nodiscard]] std::vector<int> orphans(const Send& s) const;
  void track(int slot, int sender, int recv, int recv_cur,
             std::vector<int> interval, Time at);
  void issue(std::size_t ri, Time base);
  void repair_split(int slot, int sender, std::vector<int> list, Time at);
  void ack(std::size_t ri, Time t);
  void forward(std::size_t ri, Time done);
  // The retry deadlines.  An ack is due timeout_scale * t_end(wire) +
  // timeout_slack after its send op starts, backed off (2^attempt - 1)
  // holds.  Once acked, a receiver owes its whole interval of n nodes
  // within the scaled model latency of a multicast among n nodes (from
  // the repair split table), plus the slack and fuel for one full retry
  // ladder of single-address messages.
  [[nodiscard]] Time scaled(Time model) const {
    return static_cast<Time>(scale_ * static_cast<double>(model));
  }
  [[nodiscard]] Time ack_due(Time op_start, Bytes wire, int attempt) const {
    const MachineParams& mp = rtm_.config().machine;
    return op_start + scaled(mp.t_end(wire)) + slack_ +
           ((Time{1} << attempt) - 1) * mp.t_hold(wire);
  }
  [[nodiscard]] Time subtree_due(Time from, int n) const {
    return from + scaled(repair_.latency(std::min(n, repair_.size()))) + slack_ +
           retry_budget_;
  }

  const MulticastRuntime& rtm_;
  sim::Simulator& sim_;
  const MulticastTree& orig_;
  const MulticastTree* cur_;
  Bytes payload_;
  int max_retries_;
  double scale_;
  Time slack_;
  int first_slot_;
  int slots_;
  int engines_;
  obs::FlightRecorder* recorder_;
  // Repair re-splits use the OPT rule for this machine's (t_hold, t_end);
  // the chain order is kept, so repaired sub-chains stay dimension-ordered
  // and the contention-freedom argument carries over.
  SplitTable repair_;
  Time retry_budget_;

  std::vector<Send> sends_;
  /// Indices of the records not yet known closed, ascending: new records
  /// are appended and horizon() drops closed ones, so a sweep visits the
  /// open records in the order a scan of every record would.
  std::vector<std::size_t> open_;
  std::vector<std::size_t> retx_;  ///< the current sweep's retransmissions
  std::vector<Job> jobs_;          ///< the current sweep's re-splits
  /// Per original position and send engine: the earliest cycle the engine
  /// may start its next send op; engine_rr_ is the position's next engine.
  std::vector<Time> next_op_;
  std::vector<int> engine_rr_;
  std::vector<char> delivered_;   ///< (position, slot) bitmap
  std::vector<char> dead_;        ///< per position
  std::vector<int> orig_of_;      ///< current-tree position -> original
  std::vector<int> orig_pos_of_;  ///< node -> original position (retarget)
  Counts counts_;
};

template <typename OnFirst>
std::optional<Time> ReliableSends::deliver(const sim::Message& m, OnFirst&& on_first) {
  if (m.corrupted) return std::nullopt;
  const auto ri = static_cast<std::size_t>(m.tag);
  const int slot = sends_[ri].slot;
  const int pos = sends_[ri].recv;
  const Time t = done(m);
  char& got = delivered_[cell(pos, slot)];
  if (got != 0) {
    // A slow earlier attempt (or an overlapping repair) landed after the
    // position was already served.
    ++counts_.duplicates;
    if (!sends_[ri].acked) ack(ri, t);
    return std::nullopt;
  }
  got = 1;
  on_first(slot, pos, t);
  ack(ri, t);
  forward(ri, t);
  return t;
}

template <typename OnExhausted>
bool ReliableSends::sweep(Time now, OnExhausted&& exhausted) {
  retx_.clear();
  jobs_.clear();
  for (const std::size_t ri : open_) {
    Send& s = sends_[ri];
    if (s.closed) continue;
    if (s.acked) {
      if (std::none_of(s.interval.begin(), s.interval.end(),
                       [&](int p) { return owed(p, s.slot); }))
        s.closed = true;  // the whole interval is served or dead
      else if (now >= s.subtree_deadline)
        reassign(ri, s.recv);  // the receiver lives, its subtree went quiet
    } else if (delivered(s.recv, s.slot)) {
      ack(ri, now);  // served via another record; keep watching the interval
    } else if (now >= s.ack_deadline) {
      if (s.attempt < max_retries_)
        retx_.push_back(ri);
      else if (!exhausted(ri))
        return false;
    }
  }
  for (const std::size_t ri : retx_) {
    ++sends_[ri].attempt;
    ++counts_.retries;
    issue(ri, now);
  }
  for (Job& job : jobs_) repair_split(job.slot, job.sender, std::move(job.list), now);
  return true;
}

}  // namespace pcm::rt
