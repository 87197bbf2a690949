// Generic worklist/fixpoint dataflow engine over a cdfg::CsrView, plus
// the concrete analyses the semantic rules (LW6xx), the workspace
// precedence-closure rule (LW804) and the differential verifier are built
// on.
//
// The engine solves monotone dataflow problems: a *domain* owns one
// abstract state per node and a transfer function over edges; the engine
// propagates states along (forward) or against (backward) the selected
// edge kinds until nothing changes.  On acyclic graphs (the CDFG norm)
// the FIFO worklist seeded in id order converges in a handful of sweeps;
// on cyclic garbage from lenient parsing the visit cap guarantees
// termination and the stats report non-convergence instead of hanging.
//
// Every analysis runs on the CSR snapshot only (csr.h, docs/GRAPH_CORE.md):
// callers lower a cdfg::Cdfg once and pass the view.  The tests check each
// analysis against a reference that shares none of this code — plain DFS
// over the builder graph (tests/naive_oracles.h) for closure, reachability
// and path queries, sched::TimeFrames for slack.
//
// Domain contract (duck-typed, see ClosureDomain for the smallest
// example):
//
//   bool edgeTransfer(cdfg::NodeId from, cdfg::NodeId to,
//                     cdfg::EdgeKind kind);
//     Propagates `from`'s state into `to`'s state across an edge of
//     `kind` and returns true iff `to`'s state changed.  Forward solving
//     passes (src, dst, kind); backward solving passes (dst, src, kind).
//     Transfer must be monotone over a finite-height lattice for the
//     solver to converge.
//
// Instantiations provided here:
//   * PrecedenceClosure — per-node ancestor bitsets (must-precede
//     relation); drives redundant-temporal-edge detection (LW601) and
//     certificate-locality reasoning.
//   * Reachability      — boolean mark spreading from seed nodes, forward
//     (reachable-from-inputs, LW604) or backward (live-into-outputs,
//     LW603).
//   * SlackAnalysis     — ASAP/ALAP start windows as max-/min-plus
//     dataflow; mirrors sched::TimeFrames (pinned by tests) and feeds the
//     zero-slack watermark-edge rule (LW602) and the Pc audit (LW606).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/ids.h"
#include "sched/latency.h"

namespace locwm::check {

/// Which way states propagate: along edges or against them.
enum class Direction : std::uint8_t { kForward, kBackward };

/// Which edge kinds participate in an analysis.
struct EdgeMask {
  bool data = true;
  bool control = true;
  bool temporal = true;

  [[nodiscard]] constexpr bool accepts(cdfg::EdgeKind k) const noexcept {
    switch (k) {
      case cdfg::EdgeKind::kData:
        return data;
      case cdfg::EdgeKind::kControl:
        return control;
      case cdfg::EdgeKind::kTemporal:
        return temporal;
    }
    return false;
  }

  [[nodiscard]] static constexpr EdgeMask all() { return {true, true, true}; }
  [[nodiscard]] static constexpr EdgeMask dataControl() {
    return {true, true, false};
  }
};

/// What one fixpoint run did.  `updates == 0` on a rerun over an already
/// converged domain — the idempotence property the tests pin.
struct FixpointStats {
  std::size_t visits = 0;   ///< worklist pops
  std::size_t updates = 0;  ///< state changes applied
  bool converged = true;    ///< false when the visit cap was hit
};

/// Solves `domain` to fixpoint over `v`.  `max_visits` caps worklist pops
/// (0 = automatic: generous enough for any monotone finite-height domain,
/// small enough to terminate on a non-converging one).  Neighbour visits
/// walk the view's contiguous per-kind spans.
template <typename Domain>
FixpointStats solveFixpoint(const cdfg::CsrView& v, Direction dir,
                            const EdgeMask& mask, Domain& domain,
                            std::size_t max_visits = 0) {
  FixpointStats stats;
  const std::size_t n = v.nodeCount();
  if (n == 0) {
    return stats;
  }
  if (max_visits == 0) {
    // An N-bit-per-node domain changes each node's state at most N times;
    // every change re-queues at most one node.
    max_visits = (n + 1) * (n + v.edgeCount() + 1);
  }

  std::vector<char> queued(n, 1);
  std::vector<std::uint32_t> fifo;
  fifo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Node ids are dense in creation order, which is topological for every
    // generator in this codebase — seeding forward in id order (backward
    // in reverse) makes the common case converge in one sweep.
    fifo.push_back(static_cast<std::uint32_t>(
        dir == Direction::kForward ? i : n - 1 - i));
  }
  std::size_t head = 0;

  while (head < fifo.size()) {
    if (stats.visits >= max_visits) {
      stats.converged = false;
      return stats;
    }
    const cdfg::NodeId node(fifo[head++]);
    queued[node.value()] = 0;
    ++stats.visits;
    // Reclaim the consumed queue prefix occasionally.
    if (head > n && head * 2 > fifo.size()) {
      fifo.erase(fifo.begin(),
                 fifo.begin() + static_cast<std::ptrdiff_t>(head));
      head = 0;
    }

    for (const cdfg::EdgeKind kind : cdfg::kCsrKindOrder) {
      if (!mask.accepts(kind)) {
        continue;
      }
      const cdfg::EdgeSel sel = cdfg::edgeSelOf(kind);
      const auto nbrs = dir == Direction::kForward
                            ? v.successors(node, sel)
                            : v.predecessors(node, sel);
      for (const cdfg::NodeId to : nbrs) {
        if (domain.edgeTransfer(node, to, kind)) {
          ++stats.updates;
          if (queued[to.value()] == 0) {
            queued[to.value()] = 1;
            fifo.push_back(to.value());
          }
        }
      }
    }
  }
  return stats;
}

/// Dense rows of bits: rows[i] is an N-bit set.  The state storage of the
/// closure domain (and anything else set-valued).
class BitRows {
 public:
  BitRows() = default;
  BitRows(std::size_t rows, std::size_t bits);

  [[nodiscard]] bool test(std::size_t row, std::size_t bit) const;
  /// Sets one bit; returns true iff it was previously clear.
  bool set(std::size_t row, std::size_t bit);
  /// rows[dst] |= rows[src]; returns true iff rows[dst] changed.
  bool unionInto(std::size_t dst, std::size_t src);
  /// Smallest set bit of a row at or above `from`; npos when none.
  [[nodiscard]] std::size_t nextSetBit(std::size_t row,
                                       std::size_t from) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// rows[dst] = other.rows[src] (same bit width required).
  void copyRowFrom(const BitRows& other, std::size_t dst, std::size_t src);
  /// rows[dst] |= other.rows[src]; returns true iff rows[dst] changed.
  bool unionRowFrom(const BitRows& other, std::size_t dst, std::size_t src);
  /// rows[a] == other.rows[b], bit for bit.
  [[nodiscard]] bool rowEquals(const BitRows& other, std::size_t a,
                               std::size_t b) const;

  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return bits_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Transitive must-precede closure: ancestors(n) = every node from which n
/// is reachable over the masked edges.  Forward union domain.
struct ClosureDomain {
  explicit ClosureDomain(std::size_t n) : ancestors(n, n) {}
  BitRows ancestors;

  bool edgeTransfer(cdfg::NodeId from, cdfg::NodeId to, cdfg::EdgeKind) {
    const bool a = ancestors.set(to.value(), from.value());
    const bool b = ancestors.unionInto(to.value(), from.value());
    return a || b;
  }
};

/// Solved closure.  Memory is O(N^2 / 8): callers gate construction on
/// node count (see kClosureNodeLimit) and fall back to per-query DFS.
struct PrecedenceClosure {
  ClosureDomain domain;
  FixpointStats stats;

  /// True when `a` must execute before `b` (a path a -> b exists over the
  /// masked edges).
  [[nodiscard]] bool precedes(cdfg::NodeId a, cdfg::NodeId b) const {
    return domain.ancestors.test(b.value(), a.value());
  }
};

/// Above this node count the closure's bit matrix is not worth its memory
/// (8192^2 bits = 8 MiB); rules fall back to per-edge DFS.
inline constexpr std::size_t kClosureNodeLimit = 8192;

[[nodiscard]] PrecedenceClosure computePrecedenceClosure(
    const cdfg::CsrView& v, const EdgeMask& mask = EdgeMask::all());

/// Boolean mark spreading from seeds.
struct ReachDomain {
  explicit ReachDomain(std::size_t n) : mark(n, 0) {}
  std::vector<char> mark;

  bool edgeTransfer(cdfg::NodeId from, cdfg::NodeId to, cdfg::EdgeKind) {
    if (mark[from.value()] != 0 && mark[to.value()] == 0) {
      mark[to.value()] = 1;
      return true;
    }
    return false;
  }
};

struct Reachability {
  ReachDomain domain;
  FixpointStats stats;

  [[nodiscard]] bool reached(cdfg::NodeId n) const {
    return domain.mark[n.value()] != 0;
  }
};

/// Marks everything reachable from `seeds` in direction `dir` over `mask`
/// (seeds themselves included).
[[nodiscard]] Reachability computeReachability(
    const cdfg::CsrView& v, const std::vector<cdfg::NodeId>& seeds,
    Direction dir, const EdgeMask& mask = EdgeMask::dataControl());

/// ASAP (max-plus forward) / ALAP (min-plus backward) start windows under
/// `lat`, as two engine passes.  Matches sched::TimeFrames on acyclic
/// graphs — the tests pin the equivalence — but degrades gracefully on
/// cyclic input (converged=false) instead of throwing, which is what a
/// linter needs.  When `deadline` is absent or below the critical path the
/// critical path is used.
struct SlackAnalysis {
  std::vector<std::uint32_t> asap;
  std::vector<std::uint32_t> alap;
  std::uint32_t critical = 0;  ///< critical path in control steps
  std::uint32_t deadline = 0;  ///< deadline the ALAP pass used
  FixpointStats forward_stats;
  FixpointStats backward_stats;

  [[nodiscard]] std::uint32_t slack(cdfg::NodeId n) const {
    return alap[n.value()] - asap[n.value()];
  }
  [[nodiscard]] bool converged() const noexcept {
    return forward_stats.converged && backward_stats.converged;
  }
};

[[nodiscard]] SlackAnalysis computeSlack(
    const cdfg::CsrView& v, const sched::LatencyModel& lat,
    std::optional<std::uint32_t> deadline = std::nullopt,
    const EdgeMask& mask = EdgeMask::all());

/// True when a path `from` -> `to` exists over the masked edges that does
/// not use edge `skip`.  Per-query DFS: the closure fallback for graphs
/// above kClosureNodeLimit.
[[nodiscard]] bool hasPathSkipping(
    const cdfg::CsrView& v, cdfg::NodeId from, cdfg::NodeId to,
    cdfg::EdgeId skip = cdfg::EdgeId::invalid(),
    const EdgeMask& mask = EdgeMask::all());

}  // namespace locwm::check
