#include "check/dataflow.h"

#include <algorithm>
#include <bit>

namespace locwm::check {

using cdfg::EdgeId;
using cdfg::NodeId;

// ---------------------------------------------------------------------------
// BitRows

BitRows::BitRows(std::size_t rows, std::size_t bits)
    : words_per_row_((bits + 63) / 64), bits_(rows * words_per_row_, 0) {}

bool BitRows::test(std::size_t row, std::size_t bit) const {
  return (bits_[row * words_per_row_ + bit / 64] >> (bit % 64)) & 1u;
}

bool BitRows::set(std::size_t row, std::size_t bit) {
  std::uint64_t& w = bits_[row * words_per_row_ + bit / 64];
  const std::uint64_t m = std::uint64_t{1} << (bit % 64);
  if ((w & m) != 0) {
    return false;
  }
  w |= m;
  return true;
}

bool BitRows::unionInto(std::size_t dst, std::size_t src) {
  return unionRowFrom(*this, dst, src);
}

std::size_t BitRows::nextSetBit(std::size_t row, std::size_t from) const {
  const std::uint64_t* r = bits_.data() + row * words_per_row_;
  for (std::size_t w = from / 64; w < words_per_row_; ++w) {
    const std::uint64_t bits =
        w == from / 64 ? r[w] & (~std::uint64_t{0} << (from % 64)) : r[w];
    if (bits != 0) {
      return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
    }
  }
  return npos;
}

void BitRows::copyRowFrom(const BitRows& other, std::size_t dst,
                          std::size_t src) {
  std::uint64_t* d = bits_.data() + dst * words_per_row_;
  const std::uint64_t* s = other.bits_.data() + src * other.words_per_row_;
  std::copy(s, s + words_per_row_, d);
}

bool BitRows::unionRowFrom(const BitRows& other, std::size_t dst,
                           std::size_t src) {
  std::uint64_t* d = bits_.data() + dst * words_per_row_;
  const std::uint64_t* s = other.bits_.data() + src * other.words_per_row_;
  bool changed = false;
  for (std::size_t i = 0; i < words_per_row_; ++i) {
    const std::uint64_t merged = d[i] | s[i];
    changed |= merged != d[i];
    d[i] = merged;
  }
  return changed;
}

bool BitRows::rowEquals(const BitRows& other, std::size_t a,
                        std::size_t b) const {
  const std::uint64_t* ra = bits_.data() + a * words_per_row_;
  const std::uint64_t* rb = other.bits_.data() + b * other.words_per_row_;
  return std::equal(ra, ra + words_per_row_, rb);
}

// ---------------------------------------------------------------------------
// Closure and reachability

PrecedenceClosure computePrecedenceClosure(const cdfg::CsrView& v,
                                           cdfg::EdgeSel sel) {
  const std::size_t n = v.nodeCount();
  // Every row's predecessors come before it in the topological order, so
  // one union per edge finishes each row.
  const std::vector<NodeId> order = cdfg::topologicalOrder(v, sel);
  PrecedenceClosure result;
  if (order.size() < n) {
    result.cyclic = true;
    return result;
  }
  result.ancestors = BitRows(n, n);
  BitRows& rows = result.ancestors;
  for (const NodeId node : order) {
    for (const NodeId src : v.predecessors(node, sel)) {
      rows.set(node.value(), src.value());
      rows.unionInto(node.value(), src.value());
    }
  }
  return result;
}

Reachability computeReachability(const cdfg::CsrView& v,
                                 const std::vector<NodeId>& seeds,
                                 Direction dir, cdfg::EdgeSel sel) {
  Reachability result{std::vector<char>(v.nodeCount(), 0)};
  std::vector<NodeId> stack;
  const auto visit = [&](NodeId node) {
    if (result.mark[node.value()] == 0) {
      result.mark[node.value()] = 1;
      stack.push_back(node);
    }
  };
  for (const NodeId s : seeds) {
    if (s.isValid() && s.value() < v.nodeCount()) {
      visit(s);
    }
  }
  while (!stack.empty()) {
    const NodeId node = stack.back();
    stack.pop_back();
    for (const NodeId next : dir == Direction::kForward
                                 ? v.successors(node, sel)
                                 : v.predecessors(node, sel)) {
      visit(next);
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Path queries

bool hasPathSkipping(const cdfg::CsrView& view, NodeId from, NodeId to,
                     EdgeId skip, cdfg::EdgeSel sel) {
  if (!from.isValid() || !to.isValid() || from == to) {
    return from == to;
  }
  std::vector<char> seen(view.nodeCount(), 0);
  std::vector<NodeId> stack{from};
  seen[from.value()] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    const auto nbrs = view.successors(v, sel);
    const auto ids = view.outEdges(v, sel);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (ids[i] == skip) {
        continue;
      }
      const NodeId dst = nbrs[i];
      if (dst == to) {
        return true;
      }
      if (seen[dst.value()] == 0) {
        seen[dst.value()] = 1;
        stack.push_back(dst);
      }
    }
  }
  return false;
}

}  // namespace locwm::check
