// Naive reference implementations of the check/dataflow analyses, for
// tests only, plus the random DFGs the oracle tests draw.  Each reference
// is a plain DFS over the mutable cdfg::Cdfg builder (edge ids through
// inEdges/outEdges), so it shares no code with the CsrView engine it
// validates.  Slack has its own independent reference, sched::TimeFrames.
#pragma once

#include <cstdint>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/ids.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "check/dataflow.h"

namespace locwm::testing {

inline cdfg::Cdfg smallRandomDfg(std::uint64_t seed, std::size_t ops = 40) {
  cdfg::RandomDfgOptions options;
  options.operations = ops;
  options.inputs = 4;
  options.width = 6;
  return cdfg::randomDfg(options, seed);
}

/// Sprinkles topologically forward temporal edges over `g` (the watermark
/// pattern the analyses must handle alongside data edges).
inline void addTemporalEdges(cdfg::Cdfg& g, std::size_t count,
                             std::uint64_t seed) {
  cdfg::SplitMix64 rng(seed);
  const std::size_t n = g.nodeCount();
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = cdfg::NodeId(static_cast<std::uint32_t>(rng.below(n)));
    const auto b = cdfg::NodeId(static_cast<std::uint32_t>(rng.below(n)));
    if (a.value() < b.value() &&
        !g.hasEdge(a, b, cdfg::EdgeKind::kTemporal)) {
      g.addEdge(a, b, cdfg::EdgeKind::kTemporal);  // ids are topological
    }
  }
}

/// Marks every node reached from `seeds` by a path of at least one edge,
/// following edges (forward) or against them (backward), over the edge
/// kinds `mask` accepts, never crossing edge `skip`.  A seed is marked only
/// when a path leads back to it (a cycle).
inline std::vector<char> naiveReach(
    const cdfg::Cdfg& g, const std::vector<cdfg::NodeId>& seeds,
    check::Direction dir, const check::EdgeMask& mask,
    cdfg::EdgeId skip = cdfg::EdgeId::invalid()) {
  const bool fwd = dir == check::Direction::kForward;
  std::vector<char> seen(g.nodeCount(), 0);
  std::vector<cdfg::NodeId> stack(seeds);
  while (!stack.empty()) {
    const cdfg::NodeId v = stack.back();
    stack.pop_back();
    for (const cdfg::EdgeId e : fwd ? g.outEdges(v) : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      const cdfg::NodeId next = fwd ? ed.dst : ed.src;
      if (e == skip || !mask.accepts(ed.kind) || seen[next.value()] != 0) {
        continue;
      }
      seen[next.value()] = 1;
      stack.push_back(next);
    }
  }
  return seen;
}

/// True when a path `from` -> `to` of at least one edge exists over the
/// masked edges without crossing `skip` — the closure's precedes(from, to)
/// and, for from != to, hasPathSkipping(from, to, skip).
inline bool naivePath(const cdfg::Cdfg& g, cdfg::NodeId from,
                      cdfg::NodeId to,
                      const check::EdgeMask& mask = check::EdgeMask::all(),
                      cdfg::EdgeId skip = cdfg::EdgeId::invalid()) {
  return naiveReach(g, {from}, check::Direction::kForward, mask,
                    skip)[to.value()] != 0;
}

}  // namespace locwm::testing
