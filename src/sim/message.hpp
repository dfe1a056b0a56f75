// Messages tracked by the flit-level simulator.
#pragma once

#include <cstddef>

#include "core/types.hpp"
#include "sim/fault.hpp"
#include "sim/stable_vector.hpp"

namespace pcm::sim {

using MsgId = int;
inline constexpr MsgId kInvalidMsg = -1;

/// One wormhole message.  The simulator moves `flits` flits from src to
/// dst; payload semantics (data bytes, carried address lists) live in the
/// runtime layer and are referenced through `tag`.
struct Message {
  MsgId id = kInvalidMsg;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  int flits = 1;

  /// Earliest cycle the NI may start injecting (send software done).
  Time ready_time = 0;

  int tag = -1;  ///< opaque runtime payload handle

  // --- filled in by the simulator ---
  Time inject_start = -1;   ///< first flit entered the source router
  Time inject_done = -1;    ///< last flit left the NI
  Time delivered = -1;      ///< tail flit consumed at dst
  Time block_cycles = 0;    ///< cycles the head waited on a busy channel
  Time dropped = -1;        ///< cycle the message was lost to a fault
  DropReason drop_reason = DropReason::kNone;
  bool corrupted = false;   ///< delivered, but the payload is unusable

  /// The message reached a terminal state (delivered or lost).
  [[nodiscard]] bool finished() const { return delivered >= 0 || dropped >= 0; }
};

/// Dense, append-only message table: ids count from 0, and messages sit
/// in blocks that never move (StableVector), so posting never copies the
/// ones already stored and a Message& stays valid for the table's
/// lifetime.
class MessageTable {
 public:
  MsgId add(Message m) {
    m.id = size();
    messages_.push_back(m);
    return m.id;
  }
  /// Throws std::out_of_range unless 0 <= id < size().
  [[nodiscard]] Message& at(MsgId id) { return messages_.at(static_cast<std::size_t>(id)); }
  [[nodiscard]] const Message& at(MsgId id) const {
    return messages_.at(static_cast<std::size_t>(id));
  }
  [[nodiscard]] int size() const { return static_cast<int>(messages_.size()); }
  /// Every message in id order (begin/end/size).
  [[nodiscard]] const StableVector<Message>& all() const { return messages_; }

 private:
  StableVector<Message> messages_;
};

}  // namespace pcm::sim
