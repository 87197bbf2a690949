// The graph analyses the lint rules read, over a cdfg::CsrView: the
// must-precede closure (LW601, LW804 and the incremental engine),
// reachability from seeds (liveness, LW603/LW604) and path queries that
// skip one edge (LW104, LW505, LW601).  Each is one direct pass: a Kahn
// order then one row union per edge for the closure, a DFS for the
// others.  Their cost is linear in the view (the closure's is N^2/64
// words) whatever the node numbering, which matters because a suspect
// design's ids come from the party accused of copying it.  ASAP/ALAP
// start windows are sched::TimeFrames, the one implementation the
// schedulers and embedders also use.
//
// An analysis selects its edges with a cdfg::EdgeSel, so each node's
// neighbours are one contiguous CSR span (kAll or kDataControl).  Callers
// lower a cdfg::Cdfg once and pass the view (docs/GRAPH_CORE.md).  The
// tests check each analysis against a plain DFS over the builder graph
// (tests/naive_oracles.h) under generated, reversed and shuffled ids.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/ids.h"

namespace locwm::check {

/// Which way reachability spreads: along edges or against them.
enum class Direction : std::uint8_t { kForward, kBackward };

/// Dense rows of bits: rows[i] is an N-bit set.  The closure's matrix.
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

/// Transitive must-precede closure: row n holds every node from which n
/// is reachable over the selected edges.  A cyclic view has no closure:
/// `cyclic` is set and no matrix is allocated (LW103 owns cycles).
struct PrecedenceClosure {
  BitRows ancestors;
  bool cyclic = false;

  /// True when `a` must execute before `b` (a path a -> b exists over the
  /// selected edges).
  [[nodiscard]] bool precedes(cdfg::NodeId a, cdfg::NodeId b) const {
    return ancestors.test(b.value(), a.value());
  }
};

/// The one cap on the closure's bit matrix (8192^2 bits = 8 MiB): LW601
/// and the incremental engine fall back to per-query DFS above it, and
/// LW804 does not run (LW810 says so).
inline constexpr std::size_t kClosureNodeLimit = 8192;

[[nodiscard]] PrecedenceClosure computePrecedenceClosure(
    const cdfg::CsrView& v, cdfg::EdgeSel sel = cdfg::EdgeSel::kAll);

/// Nodes reached from a seed set.
struct Reachability {
  std::vector<char> mark;

  [[nodiscard]] bool reached(cdfg::NodeId n) const {
    return mark[n.value()] != 0;
  }
};

/// Marks everything reachable from `seeds` in direction `dir` over `sel`
/// (seeds themselves included).
[[nodiscard]] Reachability computeReachability(
    const cdfg::CsrView& v, const std::vector<cdfg::NodeId>& seeds,
    Direction dir, cdfg::EdgeSel sel = cdfg::EdgeSel::kDataControl);

/// True when a path `from` -> `to` exists over the selected edges that
/// does not use edge `skip`.  Per-query DFS: the closure fallback for
/// graphs above kClosureNodeLimit.
[[nodiscard]] bool hasPathSkipping(
    const cdfg::CsrView& v, cdfg::NodeId from, cdfg::NodeId to,
    cdfg::EdgeId skip = cdfg::EdgeId::invalid(),
    cdfg::EdgeSel sel = cdfg::EdgeSel::kAll);

}  // namespace locwm::check
