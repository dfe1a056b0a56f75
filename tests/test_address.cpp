// Tests for mesh addressing, the dimension-order relation, and bit helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/address.hpp"

namespace pcm {
namespace {

TEST(MeshShape, Square2dBasics) {
  const MeshShape s = MeshShape::square2d(16);
  EXPECT_EQ(s.ndims(), 2);
  EXPECT_EQ(s.num_nodes(), 256);
  EXPECT_EQ(s.digit(0, 0), 0);
  EXPECT_EQ(s.digit(17, 0), 1);  // x
  EXPECT_EQ(s.digit(17, 1), 1);  // y
  EXPECT_EQ(s.node_at({1, 1}), 17);
}

TEST(MeshShape, CoordsRoundTrip) {
  const MeshShape s({4, 3, 5});
  EXPECT_EQ(s.num_nodes(), 60);
  for (NodeId x = 0; x < s.num_nodes(); ++x)
    EXPECT_EQ(s.node_at(s.coords(x)), x) << "x=" << x;
}

TEST(MeshShape, RejectsBadInput) {
  EXPECT_THROW(MeshShape(std::vector<int>{}), std::invalid_argument);
  EXPECT_THROW(MeshShape({4, 0}), std::invalid_argument);
  // A node count past INT_MAX is refused before the int product wraps.
  EXPECT_THROW(MeshShape::square2d(50000), std::invalid_argument);
  EXPECT_THROW(MeshShape({65536, 32768}), std::invalid_argument);
  EXPECT_EQ(MeshShape({65536, 32767}).num_nodes(), 65536 * 32767);
  const MeshShape s({4, 4});
  EXPECT_THROW((void)s.node_at({1}), std::invalid_argument);
  EXPECT_THROW((void)s.node_at({4, 0}), std::out_of_range);
  EXPECT_THROW((void)s.node_at({-1, 0}), std::out_of_range);
}

TEST(MeshShape, ManhattanDistance) {
  const MeshShape s = MeshShape::square2d(6);
  EXPECT_EQ(s.distance(s.node_at({0, 0}), s.node_at({5, 5})), 10);
  EXPECT_EQ(s.distance(s.node_at({2, 3}), s.node_at({2, 3})), 0);
  EXPECT_EQ(s.distance(s.node_at({1, 4}), s.node_at({3, 1})), 5);
}

TEST(MeshShape, HypercubeIsMeshOfSides2) {
  const MeshShape h = MeshShape::hypercube(7);
  EXPECT_EQ(h.num_nodes(), 128);
  // In a hypercube, distance == Hamming distance.
  EXPECT_EQ(h.distance(0b1010101, 0b0101010), 7);
  EXPECT_EQ(h.distance(5, 4), 1);
}

TEST(DimLess, ComparesHighestDimensionFirst) {
  const MeshShape s = MeshShape::square2d(6);
  const NodeId a = s.node_at({5, 1});  // x=5, y=1
  const NodeId b = s.node_at({0, 2});  // x=0, y=2
  EXPECT_TRUE(s.dim_less(a, b));   // y decides: 1 < 2
  EXPECT_FALSE(s.dim_less(b, a));
}

TEST(DimLess, TiesBrokenByLowerDimensions) {
  const MeshShape s = MeshShape::square2d(6);
  const NodeId a = s.node_at({2, 3});
  const NodeId b = s.node_at({4, 3});
  EXPECT_TRUE(s.dim_less(a, b));
  EXPECT_FALSE(s.dim_less(b, a));
  EXPECT_FALSE(s.dim_less(a, a));  // irreflexive (strict)
}

TEST(DimLess, IsATotalStrictOrder) {
  const MeshShape s({3, 4});
  for (NodeId a = 0; a < s.num_nodes(); ++a) {
    for (NodeId b = 0; b < s.num_nodes(); ++b) {
      if (a == b) {
        EXPECT_FALSE(s.dim_less(a, b));
      } else {
        EXPECT_NE(s.dim_less(a, b), s.dim_less(b, a)) << a << " vs " << b;
      }
    }
  }
}

TEST(DimLess, EqualsNumericOrderOnEveryShape) {
  // Node ids are mixed-radix with dimension 0 fastest, so comparing digit
  // vectors from the highest dimension down is comparing the ids; on a
  // side-2 mesh the digits are address bits, which is why U-cube and
  // U-min share machinery.
  for (const MeshShape& s : {MeshShape::square2d(6), MeshShape({3, 4}),
                             MeshShape({4, 4, 4}), MeshShape::hypercube(5)}) {
    for (NodeId a = 0; a < s.num_nodes(); ++a) {
      const std::vector<int> ca = s.coords(a);
      for (NodeId b = 0; b < s.num_nodes(); ++b) {
        const std::vector<int> cb = s.coords(b);
        const bool lex = std::lexicographical_compare(ca.rbegin(), ca.rend(),
                                                      cb.rbegin(), cb.rend());
        EXPECT_EQ(s.dim_less(a, b), lex) << a << " vs " << b;
        EXPECT_EQ(lex, a < b) << a << " vs " << b;
      }
    }
  }
}

TEST(MsbDiff, Basics) {
  EXPECT_EQ(msb_diff(5, 5), -1);
  EXPECT_EQ(msb_diff(0, 1), 0);
  EXPECT_EQ(msb_diff(2, 3), 0);
  EXPECT_EQ(msb_diff(0, 2), 1);
  EXPECT_EQ(msb_diff(0b1000000, 0), 6);
  EXPECT_EQ(msb_diff(127, 0), 6);
  EXPECT_EQ(msb_diff(64, 65), 0);
}

TEST(CeilLog2, Basics) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(128), 7);
  EXPECT_EQ(ceil_log2(129), 8);
  EXPECT_THROW(ceil_log2(0), std::invalid_argument);
}

}  // namespace
}  // namespace pcm
