// Tests for the input-port flit buffer.
#include <gtest/gtest.h>

#include "sim/channel.hpp"

namespace pcm::sim {
namespace {

// A FIFO views slots it does not own: each test lends it a local array.

TEST(FlitFifo, StartsEmpty) {
  FlitFifo::Slot buf[4];
  FlitFifo f(buf, 4);
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.capacity(), 4);
  EXPECT_EQ(f.size(), 0);
}

TEST(FlitFifo, RejectsZeroCapacity) {
  FlitFifo::Slot buf[1];
  EXPECT_THROW(FlitFifo(buf, 0), std::invalid_argument);
}

TEST(FlitFifo, FifoOrderPreserved) {
  FlitFifo::Slot buf[3];
  FlitFifo f(buf, 3);
  f.push(Flit{1, true, false}, 10);
  f.push(Flit{1, false, false}, 11);
  f.push(Flit{1, false, true}, 12);
  EXPECT_TRUE(f.full());
  EXPECT_TRUE(f.front().head);
  EXPECT_EQ(f.front_entry(), 10);
  EXPECT_TRUE(f.pop(0).head);
  EXPECT_EQ(f.front_entry(), 11);
  EXPECT_FALSE(f.pop(0).head);
  EXPECT_TRUE(f.pop(0).tail);
  EXPECT_TRUE(f.empty());
}

TEST(FlitFifo, WrapsAround) {
  FlitFifo::Slot buf[2];
  FlitFifo f(buf, 2);
  for (int round = 0; round < 5; ++round) {
    f.push(Flit{round, true, false}, round);
    f.push(Flit{round, false, true}, round);
    EXPECT_EQ(f.pop(0).msg, round);
    EXPECT_EQ(f.pop(0).msg, round);
  }
}

TEST(FlitFifo, CanAcceptUsesStartOfCycleOccupancy) {
  FlitFifo::Slot buf[2];
  FlitFifo f(buf, 2);
  f.push(Flit{1, true, false}, 5);
  f.push(Flit{1, false, true}, 6);
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.can_accept(7));
  // A pop in cycle 7 frees the slot only for cycle 8 (credit turnaround).
  f.pop(7);
  EXPECT_FALSE(f.can_accept(7));
  EXPECT_TRUE(f.can_accept(8));
}

TEST(FlitFifo, OverflowAndUnderflowThrow) {
  FlitFifo::Slot buf[1];
  FlitFifo f(buf, 1);
  f.push(Flit{}, 0);
  EXPECT_THROW(f.push(Flit{}, 1), std::logic_error);
  f.pop(0);
  EXPECT_THROW(f.pop(0), std::logic_error);
}

}  // namespace
}  // namespace pcm::sim
