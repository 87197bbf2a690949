// Exact schedule enumeration and counting.
//
// The paper's proof-of-authorship metric is a ratio of schedule counts:
// Pc ≈ Π ΨW(e)/ΨN(e), where ΨW counts the schedules satisfying the added
// temporal edge and ΨN counts all schedules (§IV-A, Fig. 3).  The paper
// used "a trivial exhaustive enumeration technique" for small examples.
// Here the visitor is that plain depth-first search; the counter walks the
// same search tree but memoizes subtrees.  Below a level, the tree depends
// on the placed operations only through the lower bounds they impose on
// the unplaced ones, so subtrees with equal bounds are counted once.  Both
// carry a work budget, measured in states of the plain search, so callers
// can fall back to the approximate model (core/pc.h) on large graphs.
//
// A "schedule" here assigns a start step in [0, deadline) to every real
// operation such that all data/control (and optionally temporal) precedence
// gaps hold; resources are unconstrained, matching the paper's counting.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "cdfg/graph.h"
#include "sched/latency.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Extra precedence constraints passed to the counter without mutating the
/// graph: src must start strictly before dst (a temporal edge).
using ExtraEdge = std::pair<cdfg::NodeId, cdfg::NodeId>;

/// Options of the enumerator.
struct EnumerationOptions {
  LatencyModel latency = LatencyModel::unit();
  /// Deadline in steps; nullopt = critical path.
  std::optional<std::uint32_t> deadline;
  /// Honour temporal edges already present in the graph.
  bool honor_temporal = true;
  /// Additional before-constraints applied on top of the graph.
  std::vector<ExtraEdge> extra_edges;
  /// Explicit start-window overrides: node must start within [lo, hi].
  /// Used to enumerate a subtree under the *global* frames of the design
  /// it was carved from (the paper's Fig. 3 counting).
  struct Window {
    cdfg::NodeId node;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };
  std::vector<Window> windows;
  /// Abort knob: maximum number of states of the plain depth-first search
  /// (partial assignments, complete ones included).  Memoized subtrees are
  /// charged their full size, so the verdict does not depend on the memo.
  std::uint64_t max_steps = 200'000'000;
};

/// Result of a counting run.
///
/// `steps` is the logical size of the search: the number of states the
/// plain depth-first search visits, whether the counter expanded a subtree
/// or took it from its memo.  It does not depend on memoization, so the
/// same graph and options always give the same `steps` and `exact`.
///
/// When `exact` is false the budget ran out: `steps` is max_steps + 1 and
/// `count` is a lower bound, the schedules found among the first max_steps
/// states in depth-first order.
struct CountResult {
  std::uint64_t count = 0;     ///< number of feasible schedules
  bool exact = true;           ///< false when the work budget was hit
  std::uint64_t steps = 0;     ///< logical search states (the budget unit)
};

/// Counts feasible schedules with a memoized depth-first search.  Returns
/// exact=false when max_steps was exhausted (see CountResult).  The memo
/// is private to the call and capped at a fixed size; past the cap,
/// subtrees are recomputed.
[[nodiscard]] CountResult countSchedules(const cdfg::Cdfg& g,
                                         const EnumerationOptions& options = {});

/// Enumerates feasible schedules by plain depth-first search, invoking
/// `visit` for each.  `visit` may return false to stop early.  Pseudo-ops
/// are pinned (inputs at 0, outputs after their producers).
void enumerateSchedules(const cdfg::Cdfg& g, const EnumerationOptions& options,
                        const std::function<bool(const Schedule&)>& visit);

/// The paper's Ψ pair for one candidate temporal edge e = (src → dst):
/// ΨN = number of schedules of `g` (without e), ΨW = those in which src
/// starts strictly before dst.  Fig. 3's example: ΨN = 77, ΨW = 10.
struct PsiPair {
  CountResult with_edge;     ///< ΨW
  CountResult without_edge;  ///< ΨN
};

[[nodiscard]] PsiPair countPsi(const cdfg::Cdfg& g, cdfg::NodeId src,
                               cdfg::NodeId dst,
                               const EnumerationOptions& options = {});

}  // namespace locwm::sched
