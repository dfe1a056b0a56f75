#include "core/address.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace pcm {

MeshShape::MeshShape(std::vector<int> dims) : dims_(std::move(dims)) {
  if (dims_.empty()) throw std::invalid_argument("MeshShape: need >= 1 dimension");
  strides_.resize(dims_.size());
  long long n = 1;
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (dims_[d] < 1) throw std::invalid_argument("MeshShape: side must be >= 1");
    strides_[d] = static_cast<int>(n);
    n *= dims_[d];
    if (n > std::numeric_limits<int>::max())
      throw std::invalid_argument("MeshShape: more than INT_MAX nodes");
  }
  num_nodes_ = static_cast<int>(n);
}

int MeshShape::digit(NodeId x, int d) const {
  return static_cast<int>((x / strides_.at(d)) % dims_.at(d));
}

std::vector<int> MeshShape::coords(NodeId x) const {
  std::vector<int> c(dims_.size());
  for (int d = 0; d < ndims(); ++d) c[d] = digit(x, d);
  return c;
}

NodeId MeshShape::node_at(const std::vector<int>& c) const {
  if (static_cast<int>(c.size()) != ndims())
    throw std::invalid_argument("MeshShape::node_at: wrong arity");
  NodeId x = 0;
  for (int d = 0; d < ndims(); ++d) {
    if (c[d] < 0 || c[d] >= dims_[d])
      throw std::out_of_range("MeshShape::node_at: coordinate out of range");
    x += c[d] * strides_[d];
  }
  return x;
}

int MeshShape::distance(NodeId a, NodeId b) const {
  int dist = 0;
  for (int d = 0; d < ndims(); ++d) dist += std::abs(digit(a, d) - digit(b, d));
  return dist;
}

int msb_diff(NodeId a, NodeId b) {
  unsigned x = static_cast<unsigned>(a) ^ static_cast<unsigned>(b);
  int p = -1;
  while (x != 0) {
    ++p;
    x >>= 1;
  }
  return p;
}

int ceil_log2(int x) {
  if (x < 1) throw std::invalid_argument("ceil_log2: x must be >= 1");
  int p = 0;
  int v = 1;
  while (v < x) {
    v <<= 1;
    ++p;
  }
  return p;
}

}  // namespace pcm
