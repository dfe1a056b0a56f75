#include "runtime/reliable_sends.hpp"

#include <numeric>
#include <stdexcept>

namespace pcm::rt {
namespace {

const FtConfig& validated(const FtConfig& ft) {
  if (ft.max_retries < 0 || ft.max_retries > 40)
    throw std::invalid_argument("FtConfig: max_retries out of [0, 40]");
  if (ft.timeout_scale < 1.0)
    throw std::invalid_argument("FtConfig: timeout_scale must be >= 1");
  if (ft.timeout_slack < 0)
    throw std::invalid_argument("FtConfig: timeout_slack must be >= 0");
  return ft;
}

}  // namespace

ReliableSends::ReliableSends(const MulticastRuntime& rtm, sim::Simulator& sim,
                             const MulticastTree& orig, Bytes payload,
                             const FtConfig& ft, int first_slot, int slots,
                             obs::FlightRecorder* recorder)
    : rtm_(rtm),
      sim_(sim),
      orig_(orig),
      cur_(&orig),
      payload_(payload),
      max_retries_(validated(ft).max_retries),
      scale_(ft.timeout_scale),
      slack_(ft.timeout_slack),
      first_slot_(first_slot),
      slots_(slots),
      engines_(std::max(1, rtm.config().send_engines)),
      recorder_(recorder) {
  const MachineParams& mp = rtm.config().machine;
  const Bytes wire1 = rtm.wire_bytes(payload, 1);
  const TwoParam tp = mp.two_param(wire1);
  repair_ = opt_split_table(tp.t_hold, tp.t_end, std::max(2, orig.num_nodes()));
  retry_budget_ = (ft.max_retries + 1) * (scaled(mp.t_end(wire1)) + slack_) +
                  ((Time{1} << ft.max_retries) - 1) * mp.t_hold(wire1);
  const auto k = static_cast<std::size_t>(orig.num_nodes());
  next_op_.assign(k * static_cast<std::size_t>(engines_), 0);
  engine_rr_.assign(k, 0);
  delivered_.assign(k * static_cast<std::size_t>(slots), 0);
  dead_.assign(k, 0);
  orig_of_.resize(k);
  std::iota(orig_of_.begin(), orig_of_.end(), 0);
}

void ReliableSends::retarget(const MulticastTree& cur) {
  if (orig_pos_of_.empty()) {
    orig_pos_of_.assign(static_cast<std::size_t>(sim_.topology().num_nodes()), -1);
    for (int p = 0; p < orig_.num_nodes(); ++p)
      orig_pos_of_[static_cast<std::size_t>(orig_.node(p))] = p;
  }
  cur_ = &cur;
  orig_of_.resize(static_cast<std::size_t>(cur.num_nodes()));
  for (int cp = 0; cp < cur.num_nodes(); ++cp)
    orig_of_[static_cast<std::size_t>(cp)] =
        orig_pos_of_[static_cast<std::size_t>(cur.node(cp))];
}

void ReliableSends::track(int slot, int sender, int recv, int recv_cur,
                          std::vector<int> interval, Time at) {
  sends_.push_back({slot, sender, recv, recv_cur, std::move(interval)});
  open_.push_back(sends_.size() - 1);
  issue(sends_.size() - 1, at);
}

// Posts one attempt of sends_[ri]; `base` lower-bounds the send-op start.
void ReliableSends::issue(std::size_t ri, Time base) {
  const MachineParams& mp = rtm_.config().machine;
  Send& s = sends_[ri];
  const int n = static_cast<int>(s.interval.size());
  const Bytes wire = rtm_.wire_bytes(payload_, n);
  int& e = engine_rr_[static_cast<std::size_t>(s.sender)];
  Time& op = next_op_[static_cast<std::size_t>(s.sender * engines_ + e)];
  op = std::max(op, base);
  sim::Message m;
  m.src = orig_.node(s.sender);
  m.dst = orig_.node(s.recv);
  m.flits = rtm_.wire_flits(payload_, n);
  m.ready_time = op + mp.t_send(wire);
  m.tag = static_cast<int>(ri);
  sim_.post(m);
  ++counts_.messages;
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::kSendAttempt, op, static_cast<std::int32_t>(ri),
                      s.attempt, s.recv, s.slot);
  s.ack_deadline = ack_due(op, wire, s.attempt);
  op += mp.t_hold(wire);
  e = (e + 1) % engines_;
}

// Re-splits `list` (sorted owed positions, all on one side of `sender` —
// orphan intervals never contain their sender) with the OPT table,
// mirroring the expand() loop of build_chain_split_tree on the virtual
// chain {sender} ∪ list.
void ReliableSends::repair_split(int slot, int sender, std::vector<int> list, Time at) {
  while (!list.empty()) {
    const int i = static_cast<int>(list.size()) + 1;
    const int j = repair_.split(std::min(i, repair_.size()));
    if (sender < list.front()) {
      // Virtual source at the bottom: hand the top i-j positions to their
      // lowest member.
      std::vector<int> child(list.begin() + (j - 1), list.end());
      const int recv = child.front();
      list.resize(static_cast<std::size_t>(j - 1));
      track(slot, sender, recv, -1, std::move(child), at);
    } else {
      // Virtual source at the top: hand the bottom i-j positions to their
      // highest member.
      const int m = static_cast<int>(list.size()) - j;
      std::vector<int> child(list.begin(), list.begin() + m + 1);
      const int recv = child.back();
      list.erase(list.begin(), list.begin() + m + 1);
      track(slot, sender, recv, -1, std::move(child), at);
    }
  }
}

void ReliableSends::activate(int slot, int cpos, Time at) {
  const int pos = orig_of_[static_cast<std::size_t>(cpos)];
  const auto ops = next_op_.begin() + pos * engines_;
  std::for_each(ops, ops + engines_, [&](Time& t) { t = std::max(t, at); });
  engine_rr_[static_cast<std::size_t>(pos)] = 0;
  for (const int idx : cur_->out[static_cast<std::size_t>(cpos)]) {
    const SendEvent& ev = cur_->sends[static_cast<std::size_t>(idx)];
    std::vector<int> interval;
    for (int cp = ev.sub_lo; cp <= ev.sub_hi; ++cp) {
      const int p = orig_of_[static_cast<std::size_t>(cp)];
      if (owed(p, slot)) interval.push_back(p);
    }
    if (interval.empty()) continue;
    const int recv = orig_of_[static_cast<std::size_t>(ev.receiver_pos)];
    if (owed(recv, slot)) {
      track(slot, pos, recv, ev.receiver_pos, std::move(interval), at);
    } else {
      ++counts_.repairs;  // the receiver is served or dead: the rest is orphaned
      repair_split(slot, pos, std::move(interval), at);
    }
  }
}

void ReliableSends::ack(std::size_t ri, Time t) {
  Send& s = sends_[ri];
  s.acked = true;
  s.subtree_deadline = subtree_due(t, static_cast<int>(s.interval.size()));
  if (recorder_ != nullptr)
    recorder_->record(obs::EventKind::kSendAcked, t, static_cast<std::int32_t>(ri),
                      s.attempt, s.recv, s.slot);
}

std::vector<int> ReliableSends::orphans(const Send& s) const {
  std::vector<int> out;
  for (const int p : s.interval)
    if (p != s.recv && owed(p, s.slot)) out.push_back(p);
  return out;
}

// activate/repair_split grow `sends_`, so `s` dangles once they run; their
// arguments are read before.
void ReliableSends::forward(std::size_t ri, Time done) {
  Send& s = sends_[ri];
  if (s.interval.size() <= 1)
    s.closed = true;
  else if (s.recv_cur >= 0)
    activate(s.slot, s.recv_cur, done);
  else
    repair_split(s.slot, s.recv, orphans(s), done);
}

Time ReliableSends::horizon() {
  std::erase_if(open_, [&](std::size_t ri) { return sends_[ri].closed; });
  Time h = kTimeInfinity;
  for (const std::size_t ri : open_) {
    const Send& s = sends_[ri];
    h = std::min(h, s.acked ? s.subtree_deadline : s.ack_deadline);
  }
  return h;
}

void ReliableSends::reassign(std::size_t ri, int sender) {
  Send& s = sends_[ri];
  s.closed = true;
  std::vector<int> orphan = orphans(s);
  if (orphan.empty()) return;
  ++counts_.repairs;
  jobs_.push_back({s.slot, sender, std::move(orphan)});
}

}  // namespace pcm::rt
