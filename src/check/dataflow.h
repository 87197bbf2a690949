// Reachability from a seed set over a cdfg::CsrView, the analysis
// liveness (LW603/LW604) and the delta engine read: one DFS, linear in the
// view whatever the node numbering, which matters because a suspect
// design's ids come from the party accused of copying it.  Path queries
// that skip an edge (LW104, LW505, LW601) are check/paths.h; ASAP/ALAP
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

}  // namespace locwm::check
