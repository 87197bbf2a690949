// Longest paths over the precedence DAG: ASAP / ALAP time frames,
// mobility, and the unit-weight structural metrics read off them.
//
// The watermarking protocol reasons about the "asap–alap lifetime" of every
// operation (§IV-A): eligible watermark nodes must have overlapping
// lifetimes with a partner and enough laxity.  The same frames drive the
// force-directed scheduler, bound the exact schedule enumerator, and give
// the lint rules their slack (LW602 and the incremental engine).
//
// Frames are longest paths, so the view's one topological order
// (cdfg::topologicalOrder) and one pass each way compute them in time
// linear in the graph, whatever its node numbering.
//
// StructuralAnalysis is the same pass under LatencyModel::unit() over
// data/control edges: node levels (ordering criterion C1), heights, the
// critical path C and laxity are frame identities, not a second pass.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/ordering.h"
#include "sched/latency.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Per-node [asap, alap] start-step intervals under a deadline.
class TimeFrames {
 public:
  /// Computes frames for `g` under latency model `lat` and `deadline`
  /// control steps (the schedule must fit in steps [0, deadline)).
  ///
  /// When `deadline` is nullopt the critical-path length is used, i.e. the
  /// tightest feasible deadline.  `includeTemporal` controls whether
  /// temporal (watermark) edges constrain the frames — embedding computes
  /// frames on the *original* constraints, scheduling afterwards on the
  /// augmented ones.
  ///
  /// Throws GraphError on a dependence cycle over the considered edges,
  /// and ScheduleError when `deadline` is below the critical path.
  TimeFrames(const cdfg::Cdfg& g, const LatencyModel& lat,
             std::optional<std::uint32_t> deadline = std::nullopt,
             bool includeTemporal = true);
  /// The same over a view the caller has already lowered from `g`.
  TimeFrames(const cdfg::CsrView& v, const LatencyModel& lat,
             std::optional<std::uint32_t> deadline = std::nullopt,
             bool includeTemporal = true);

  [[nodiscard]] std::uint32_t asap(cdfg::NodeId n) const;
  [[nodiscard]] std::uint32_t alap(cdfg::NodeId n) const;

  /// alap - asap: the scheduling freedom of the operation.
  [[nodiscard]] std::uint32_t mobility(cdfg::NodeId n) const;

  /// The deadline the frames were computed for.
  [[nodiscard]] std::uint32_t deadline() const noexcept { return deadline_; }

  /// Length of the critical path in control steps under `lat` (the minimal
  /// feasible deadline).
  [[nodiscard]] std::uint32_t criticalPathSteps() const noexcept {
    return critical_;
  }

  /// The paper's lifetime-overlap predicate: true when the [asap, alap]
  /// intervals of `a` and `b` intersect, i.e. some schedule may place them
  /// in the same step — the precondition for a meaningful temporal edge.
  [[nodiscard]] bool lifetimesOverlap(cdfg::NodeId a, cdfg::NodeId b) const;

 private:
  std::vector<std::uint32_t> asap_;
  std::vector<std::uint32_t> alap_;
  std::uint32_t deadline_ = 0;
  std::uint32_t critical_ = 0;
};

/// Unit-weight structural metrics of one graph (§IV-A): path lengths
/// counted in operations, pseudo-operations (inputs, outputs, constants)
/// adding nothing.  Temporal edges are excluded: structural identification
/// must see the *original* specification, otherwise the watermark
/// constraints would perturb the identifiers used to detect them.
///
/// These are the frames of TimeFrames(csr(), LatencyModel::unit(),
/// std::nullopt, /*includeTemporal=*/false).  With w(v) = 1 for a real
/// operation and 0 for a pseudo-op, level(v) = asap(v) + w(v),
/// height(v) = C − alap(v), slack(v) = mobility(v), and C is the frames'
/// critical path.  Throws GraphError on a data/control dependence cycle.
/// A node id out of range throws the frames' ScheduleError ("asap(): …",
/// "alap(): …"), not a GraphError of its own.
class StructuralAnalysis {
 public:
  explicit StructuralAnalysis(const cdfg::Cdfg& graph);
  /// The same over a view the caller has already lowered from `graph`.
  StructuralAnalysis(const cdfg::Cdfg& graph, cdfg::CsrView csr);

  /// Level of a node: the longest path (in non-pseudo operations, inclusive
  /// of the node itself when it is not a pseudo-op) from any source to the
  /// node.  Sources with no predecessors have level 0 (pseudo) or 1 (real
  /// op).  This is ordering criterion C1.
  [[nodiscard]] std::uint32_t level(cdfg::NodeId n) const;

  /// Height of a node: the longest path from the node to any sink,
  /// counted the same way as level().
  [[nodiscard]] std::uint32_t height(cdfg::NodeId n) const {
    return criticalPathLength() - frames_.alap(n);
  }

  /// Length C of the critical path of the whole CDFG, in operations.
  [[nodiscard]] std::uint32_t criticalPathLength() const noexcept {
    return frames_.criticalPathSteps();
  }

  /// Laxity of a node per §IV-A: the length of the longest source→sink path
  /// passing through the node.  Nodes on the critical path have laxity ==
  /// criticalPathLength().
  [[nodiscard]] std::uint32_t laxity(cdfg::NodeId n) const {
    return criticalPathLength() - slack(n);
  }

  /// Slack of a node: criticalPathLength() - laxity(n).
  [[nodiscard]] std::uint32_t slack(cdfg::NodeId n) const {
    return frames_.mobility(n);
  }

  /// The graph the analysis was built over.
  [[nodiscard]] const cdfg::Cdfg& graph() const noexcept { return *graph_; }

  /// CSR snapshot of the graph, lowered once at construction.  Snapshot
  /// semantics: a mutation of the graph after construction is seen by
  /// neither the view nor the metrics.
  [[nodiscard]] const cdfg::CsrView& csr() const noexcept { return csr_; }

 private:
  const cdfg::Cdfg* graph_;
  cdfg::CsrView csr_;
  TimeFrames frames_;
};

/// Orders `nodes` (a subset of `analysis.graph()`'s nodes) canonically
/// (cdfg/ordering.h), with criterion C1 from the whole graph's levels; the
/// refinement sees only neighbours inside the set.  The ordering depends
/// only on graph structure, never on node ids or labels.
[[nodiscard]] cdfg::NodeOrdering computeOrdering(
    const StructuralAnalysis& analysis, const std::vector<cdfg::NodeId>& nodes,
    std::uint32_t maxDepth = 64);

/// Convenience overload ordering every node of the graph.
[[nodiscard]] cdfg::NodeOrdering computeOrdering(
    const StructuralAnalysis& analysis, std::uint32_t maxDepth = 64);

}  // namespace locwm::sched
