// Canonical node ordering — the paper's "domain identification" step.
//
// During watermark embedding *and* detection, every node of the selected
// locality must receive the same identifier even though node indices differ
// between the author's specification and a reverse-engineered suspect.  The
// paper (§IV-A) orders nodes by three structural criteria, consulted in
// sequence and with iteratively deepened neighbourhood radius Dx until all
// nodes are distinguished:
//
//   C1  level L(n)                  — longest path from sources to n;
//   C2  |TF(n, Dx)|                 — transitive-fanin cardinality at
//                                     max-distance Dx;
//   C3  F(n, Dx)                    — functionality signature (sorted
//                                     multiset of operation ids) of the
//                                     fanin tree at max-distance Dx.
//
// We implement C1 (refined by the node's own functionality) as the base
// colour and generalize the C2/C3 deepening to full colour refinement
// (1-WL): each round replaces a node's colour by (own colour, sorted
// multiset of predecessor colours, sorted multiset of successor colours).
// Fanin-only criteria cannot separate symmetric taps that feed the same
// consumer — ubiquitous in the paper's DSP benchmarks — whereas colour
// refinement distinguishes everything short of a true graph automorphism.
//
// Nodes that are *automorphic* can never be separated by any structural
// criterion; computeOrdering reports whether the produced ranks are unique
// so callers can exclude tied nodes (or re-select a locality).
//
// This header orders a LocalCsr, the form identification contexts take.
// Ordering a subset of a whole design, with C1 from the design's levels,
// lives beside those levels: sched::computeOrdering over a
// sched::StructuralAnalysis (sched/timeframes.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/ids.h"

namespace locwm::cdfg {

/// Result of ordering a node set.
struct NodeOrdering {
  /// The input nodes sorted ascending by the (C1, C2, C3) criteria; ties
  /// broken by the node's own operation id, then left unresolved.
  std::vector<NodeId> ordered;
  /// ranks[i] is the rank of ordered[i]; equal ranks mark unresolved ties.
  std::vector<std::uint32_t> ranks;
  /// True when every node received a distinct rank — required before a
  /// locality can be used for watermarking.
  bool unique = false;
  /// Largest neighbourhood radius Dx the criteria had to examine.
  std::uint32_t max_depth_used = 0;
};

/// Orders every node of a local CSR canonically.  `levels` supplies
/// criterion C1 per local node: levelsOf() for a self-contained context,
/// or the enclosing graph's levels for a subset of it (the
/// sched::computeOrdering overloads, which read them off
/// sched::StructuralAnalysis).  Refinement reads only the CSR's
/// data/control neighbours.  Ties fall back to the local id, so `ordered`
/// holds local ids as NodeIds.
///
/// `maxDepth` bounds the iterative deepening of criteria C2/C3; the default
/// comfortably exceeds the diameter of all benchmark graphs.  The ordering
/// depends only on graph structure, never on node ids or labels, so it is
/// reproducible on a re-indexed (reverse-engineered) copy of the design.
[[nodiscard]] NodeOrdering computeOrdering(
    const LocalCsr& graph, std::span<const std::uint32_t> levels,
    std::uint32_t maxDepth = 64);

/// Criterion C1 for every node of a local CSR, counted within it: the
/// longest path from a source to the node, in real operations, the node
/// itself included (pseudo-operations add nothing).  Throws GraphError on a
/// dependence cycle.
[[nodiscard]] std::vector<std::uint32_t> levelsOf(const LocalCsr& g);

}  // namespace locwm::cdfg
