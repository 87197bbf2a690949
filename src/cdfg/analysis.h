// Structural analyses over a CDFG: levels, heights, critical path, and
// laxity.
//
// Everything in this header is *unit-weight* (path lengths counted in
// operations), matching the paper's use: ordering criterion C1 levels,
// laxity expressed in "operations", and critical-path length C.  The
// latency-aware ASAP/ALAP machinery lives in sched/.
//
// Pseudo-operations (inputs, outputs, constants) take no control step; they
// contribute zero length to paths through them.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/ids.h"

namespace locwm::cdfg {

/// Per-node structural metrics of one graph, computed once.
class StructuralAnalysis {
 public:
  /// Computes all metrics.  Temporal edges are excluded: structural
  /// identification must see the *original* specification, otherwise the
  /// watermark constraints would perturb the identifiers used to detect
  /// them.
  explicit StructuralAnalysis(const Cdfg& graph);

  /// Level of a node: the longest path (in non-pseudo operations, inclusive
  /// of the node itself when it is not a pseudo-op) from any source to the
  /// node.  Sources with no predecessors have level 0 (pseudo) or 1 (real
  /// op).  This is ordering criterion C1.
  [[nodiscard]] std::uint32_t level(NodeId n) const;

  /// Height of a node: the longest path from the node to any sink,
  /// counted the same way as level().
  [[nodiscard]] std::uint32_t height(NodeId n) const;

  /// Length of the critical path of the whole CDFG, in operations.
  [[nodiscard]] std::uint32_t criticalPathLength() const noexcept {
    return critical_path_;
  }

  /// Laxity of a node per §IV-A: the length of the longest source→sink path
  /// passing through the node.  Nodes on the critical path have laxity ==
  /// criticalPathLength().
  [[nodiscard]] std::uint32_t laxity(NodeId n) const;

  /// Slack of a node: criticalPathLength() - laxity(n).
  [[nodiscard]] std::uint32_t slack(NodeId n) const;

  /// The graph the analysis was built over.
  [[nodiscard]] const Cdfg& graph() const noexcept { return *graph_; }

  /// CSR snapshot of the graph, lowered once at construction.  The
  /// ordering refinement (ordering.cpp) and every other read-mostly
  /// consumer of the analysis traverses this instead of the builder's
  /// allocating accessors.  Snapshot semantics: taken before any
  /// mutation the caller performs after constructing the analysis —
  /// which would stale the level/height tables anyway.
  [[nodiscard]] const CsrView& csr() const noexcept { return csr_; }

 private:
  const Cdfg* graph_;
  CsrView csr_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint32_t> height_;
  std::uint32_t critical_path_ = 0;
};

/// Levels (see StructuralAnalysis::level) of every node of a local CSR,
/// counted within it.  Throws GraphError on a dependence cycle, like the
/// builder's topological order.
[[nodiscard]] std::vector<std::uint32_t> levelsOf(const LocalCsr& g);

}  // namespace locwm::cdfg
