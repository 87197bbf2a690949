// Exact schedule counting.
//
// The paper's proof-of-authorship metric is a ratio of schedule counts:
// Pc ≈ Π ΨW(e)/ΨN(e), where ΨW counts the schedules satisfying the added
// temporal edge and ΨN counts all schedules (§IV-A, Fig. 3).  The paper
// used "a trivial exhaustive enumeration technique" for small examples.
// The counter walks that depth-first search tree but memoizes subtrees:
// below a level, the tree depends on the placed operations only through
// the lower bounds they impose on the unplaced ones, so subtrees with
// equal bounds are counted once.  It carries a budget on the work it
// actually does, so callers can fall back to the approximate model
// (core/pc.h) on large graphs.
//
// A "schedule" here assigns a start step in [0, deadline) to every real
// operation such that all data/control (and optionally temporal) precedence
// gaps hold; resources are unconstrained, matching the paper's counting.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "cdfg/graph.h"
#include "sched/latency.h"

namespace locwm::sched {

/// Extra precedence constraints passed to the counter without mutating the
/// graph: src must start strictly before dst (a temporal edge).
using ExtraEdge = std::pair<cdfg::NodeId, cdfg::NodeId>;

/// Options of the counter.
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
  /// Abort knob: maximum work of the counter, the search states it
  /// expands (complete assignments included) plus its memo probes.  A memo
  /// hit costs one probe however large the subtree it stands for.
  std::uint64_t max_work = 200'000'000;
};

/// Result of a counting run.  When `exact` is false the count stopped
/// early, because the work budget ran out or because the count would pass
/// 2^64; `count` is then a lower bound.
struct CountResult {
  std::uint64_t count = 0;  ///< number of feasible schedules
  bool exact = true;        ///< false when the count stopped early
};

/// Counts feasible schedules with a memoized depth-first search.  The memo
/// is private to the call and capped at a fixed size; past the cap,
/// subtrees are recounted.
[[nodiscard]] CountResult countSchedules(const cdfg::Cdfg& g,
                                         const EnumerationOptions& options = {});

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
