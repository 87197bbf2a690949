#include "check/dataflow.h"

#include <algorithm>
#include <bit>

#include "rt/rt.h"

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
// Closure / reachability wrappers

PrecedenceClosure computePrecedenceClosure(const cdfg::CsrView& v,
                                           const EdgeMask& mask) {
  PrecedenceClosure result{ClosureDomain(v.nodeCount()), {}};
  const std::size_t n = v.nodeCount();
  if (n == 0) {
    return result;
  }

  // Kahn layering over the masked edges.  On a DAG (the CDFG norm) every
  // node lands in a level; rows within one level have all their masked
  // predecessors in strictly earlier levels, so the per-row unions of a
  // level are independent and sweep in parallel.  Determinism: each task
  // owns its row, all rows it reads were finalized in an earlier level,
  // and the result is independent of in-level execution order —
  // byte-identical at any thread count.
  std::vector<std::uint32_t> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node(static_cast<std::uint32_t>(i));
    for (const cdfg::EdgeKind kind : cdfg::kCsrKindOrder) {
      if (mask.accepts(kind)) {
        indegree[i] += static_cast<std::uint32_t>(
            v.inDegree(node, cdfg::edgeSelOf(kind)));
      }
    }
  }
  std::vector<std::uint32_t> order;  // level-contiguous topological order
  order.reserve(n);
  std::vector<std::size_t> level_start{0};
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      order.push_back(static_cast<std::uint32_t>(i));
    }
  }
  while (level_start.back() < order.size()) {
    const std::size_t lo = level_start.back();
    const std::size_t hi = order.size();
    for (std::size_t i = lo; i < hi; ++i) {
      const NodeId node(order[i]);
      for (const cdfg::EdgeKind kind : cdfg::kCsrKindOrder) {
        if (!mask.accepts(kind)) {
          continue;
        }
        for (const NodeId dst : v.successors(node, cdfg::edgeSelOf(kind))) {
          if (--indegree[dst.value()] == 0) {
            order.push_back(dst.value());
          }
        }
      }
    }
    level_start.push_back(order.size());
  }

  if (order.size() < n) {
    // Cyclic garbage from lenient parsing: no level structure to exploit.
    // The worklist engine terminates via its visit cap and reports
    // converged=false, which is the behaviour the rules rely on.
    result.stats =
        solveFixpoint(v, Direction::kForward, mask, result.domain);
    return result;
  }

  BitRows& rows = result.domain.ancestors;
  for (std::size_t lv = 0; lv + 1 < level_start.size(); ++lv) {
    const std::size_t lo = level_start[lv];
    const std::size_t hi = level_start[lv + 1];
    rt::parallel_for(lo, hi, /*grain=*/16, [&](std::size_t i) {
      const NodeId node(order[i]);
      for (const cdfg::EdgeKind kind : cdfg::kCsrKindOrder) {
        if (!mask.accepts(kind)) {
          continue;
        }
        for (const NodeId src :
             v.predecessors(node, cdfg::edgeSelOf(kind))) {
          rows.set(node.value(), src.value());
          rows.unionInto(node.value(), src.value());
        }
      }
    });
  }
  result.stats.visits = n;
  result.stats.updates = n;
  result.stats.converged = true;
  return result;
}

Reachability computeReachability(const cdfg::CsrView& v,
                                 const std::vector<NodeId>& seeds,
                                 Direction dir, const EdgeMask& mask) {
  Reachability result{ReachDomain(v.nodeCount()), {}};
  for (const NodeId s : seeds) {
    if (s.isValid() && s.value() < v.nodeCount()) {
      result.domain.mark[s.value()] = 1;
    }
  }
  result.stats = solveFixpoint(v, dir, mask, result.domain);
  return result;
}

// ---------------------------------------------------------------------------
// Slack

namespace {

/// Max-plus forward: asap[dst] >= asap[src] + edgeGap(src).
struct AsapDomain {
  const cdfg::CsrView& v;
  const sched::LatencyModel& lat;
  std::vector<std::uint32_t>& asap;

  bool edgeTransfer(NodeId from, NodeId to, cdfg::EdgeKind kind) {
    const std::uint32_t gap = lat.edgeGap(v.kind(from), kind);
    const std::uint32_t candidate = asap[from.value()] + gap;
    if (candidate > asap[to.value()]) {
      asap[to.value()] = candidate;
      return true;
    }
    return false;
  }
};

/// Min-plus backward: alap[src] <= alap[dst] - edgeGap(src).  Backward
/// solving hands us (from=dst, to=src); the gap is keyed on the *source*
/// node's kind, i.e. `to` here — same convention as sched::TimeFrames.
struct AlapDomain {
  const cdfg::CsrView& v;
  const sched::LatencyModel& lat;
  std::vector<std::uint32_t>& alap;

  bool edgeTransfer(NodeId from, NodeId to, cdfg::EdgeKind kind) {
    const std::uint32_t gap = lat.edgeGap(v.kind(to), kind);
    const std::uint32_t succ = alap[from.value()];
    const std::uint32_t candidate = succ >= gap ? succ - gap : 0u;
    if (candidate < alap[to.value()]) {
      alap[to.value()] = candidate;
      return true;
    }
    return false;
  }
};

}  // namespace

SlackAnalysis computeSlack(const cdfg::CsrView& v,
                           const sched::LatencyModel& lat,
                           std::optional<std::uint32_t> deadline,
                           const EdgeMask& mask) {
  const std::size_t n = v.nodeCount();
  SlackAnalysis out;
  out.asap.assign(n, 0);
  out.alap.assign(n, 0);

  AsapDomain fwd{v, lat, out.asap};
  out.forward_stats = solveFixpoint(v, Direction::kForward, mask, fwd);

  for (std::size_t i = 0; i < n; ++i) {
    const cdfg::OpKind k = v.kind(NodeId(static_cast<std::uint32_t>(i)));
    out.critical = std::max(out.critical, out.asap[i] + lat.latency(k));
  }
  // A lint analysis clamps an infeasible deadline instead of throwing —
  // the schedule rules report the violation separately.
  out.deadline = std::max(deadline.value_or(out.critical), out.critical);

  for (std::size_t i = 0; i < n; ++i) {
    const cdfg::OpKind k = v.kind(NodeId(static_cast<std::uint32_t>(i)));
    out.alap[i] = out.deadline - lat.latency(k);
  }
  AlapDomain bwd{v, lat, out.alap};
  out.backward_stats = solveFixpoint(v, Direction::kBackward, mask, bwd);
  return out;
}

// ---------------------------------------------------------------------------
// Path queries

bool hasPathSkipping(const cdfg::CsrView& view, NodeId from, NodeId to,
                     EdgeId skip, const EdgeMask& mask) {
  if (!from.isValid() || !to.isValid() || from == to) {
    return from == to;
  }
  std::vector<char> seen(view.nodeCount(), 0);
  std::vector<NodeId> stack{from};
  seen[from.value()] = 1;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (const cdfg::EdgeKind kind : cdfg::kCsrKindOrder) {
      if (!mask.accepts(kind)) {
        continue;
      }
      const cdfg::EdgeSel sel = cdfg::edgeSelOf(kind);
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
  }
  return false;
}

}  // namespace locwm::check
