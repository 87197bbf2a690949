// Naive reference implementations of the check/dataflow analyses, of the
// ASAP/ALAP windows, of the unit-weight structural metrics and of the
// locality deriver's copy-transparent balls, for tests only, plus the
// random DFGs the oracle tests draw and the node renumberings they run
// them under.  Each reference is a plain DFS over
// the mutable cdfg::Cdfg builder, so it shares no code with the CsrView
// analyses, sched::TimeFrames or the real-op adjacency it validates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/ids.h"
#include "cdfg/operation.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "check/dataflow.h"
#include "sched/latency.h"

namespace locwm::testing {

inline cdfg::Cdfg smallRandomDfg(std::uint64_t seed, std::size_t ops = 40) {
  cdfg::RandomDfgOptions options;
  options.operations = ops;
  options.inputs = 4;
  options.width = 6;
  return cdfg::randomDfg(options, seed);
}

/// Sprinkles topologically forward temporal edges over `g` (the watermark
/// pattern the analyses must handle alongside data edges), or edges of
/// another `kind`.
inline void addTemporalEdges(
    cdfg::Cdfg& g, std::size_t count, std::uint64_t seed,
    cdfg::EdgeKind kind = cdfg::EdgeKind::kTemporal) {
  cdfg::SplitMix64 rng(seed);
  const std::size_t n = g.nodeCount();
  for (std::size_t i = 0; i < count; ++i) {
    const auto a = cdfg::NodeId(static_cast<std::uint32_t>(rng.below(n)));
    const auto b = cdfg::NodeId(static_cast<std::uint32_t>(rng.below(n)));
    if (a.value() < b.value() && !g.hasEdge(a, b, kind)) {
      g.addEdge(a, b, kind);  // ids are topological
    }
  }
}

/// How an oracle test numbers the nodes of a generated graph.  Generators
/// emit ids in topological order; a reverse-engineered suspect design
/// carries whatever order its maker chose.
enum class Numbering { kGenerated, kReversed, kShuffled };
inline constexpr Numbering kNumberings[] = {
    Numbering::kGenerated, Numbering::kReversed, Numbering::kShuffled};

inline const char* numberingName(Numbering how) {
  switch (how) {
    case Numbering::kGenerated:
      return "generated";
    case Numbering::kReversed:
      return "reversed";
    case Numbering::kShuffled:
      return "shuffled";
  }
  return "?";
}

/// `g` with its node ids reversed or shuffled (seeded Fisher-Yates) by
/// cdfg::relabel; `g` itself for kGenerated.
inline cdfg::Cdfg renumbered(const cdfg::Cdfg& g, Numbering how,
                             std::uint64_t seed = 1) {
  const std::size_t n = g.nodeCount();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  switch (how) {
    case Numbering::kGenerated:
      return g;
    case Numbering::kReversed:
      std::reverse(perm.begin(), perm.end());
      break;
    case Numbering::kShuffled: {
      cdfg::SplitMix64 rng(seed);
      for (std::size_t i = n; i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.below(i)]);
      }
      break;
    }
  }
  return cdfg::relabel(g, perm);
}

/// Whether `sel` spans edges of `kind` — the oracle's own reading of the
/// selector, not the CSR segment layout.
inline bool selects(cdfg::EdgeSel sel, cdfg::EdgeKind kind) {
  switch (sel) {
    case cdfg::EdgeSel::kData:
      return kind == cdfg::EdgeKind::kData;
    case cdfg::EdgeSel::kControl:
      return kind == cdfg::EdgeKind::kControl;
    case cdfg::EdgeSel::kTemporal:
      return kind == cdfg::EdgeKind::kTemporal;
    case cdfg::EdgeSel::kDataControl:
      return kind != cdfg::EdgeKind::kTemporal;
    case cdfg::EdgeSel::kAll:
      return true;
  }
  return false;
}

/// Marks every node reached from `seeds` by a path of at least one edge,
/// following edges (forward) or against them (backward), over the edge
/// kinds `sel` spans, never crossing edge `skip`.  A seed is marked only
/// when a path leads back to it (a cycle).
inline std::vector<char> naiveReach(
    const cdfg::Cdfg& g, const std::vector<cdfg::NodeId>& seeds,
    check::Direction dir, cdfg::EdgeSel sel,
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
      if (e == skip || !selects(sel, ed.kind) || seen[next.value()] != 0) {
        continue;
      }
      seen[next.value()] = 1;
      stack.push_back(next);
    }
  }
  return seen;
}

/// True when a path `from` -> `to` of at least one edge exists over the
/// selected edges without crossing `skip` — for from != to, the answer
/// check::skippingPaths gives the query {from, to, skip}.
inline bool naivePath(const cdfg::Cdfg& g, cdfg::NodeId from,
                      cdfg::NodeId to,
                      cdfg::EdgeSel sel = cdfg::EdgeSel::kAll,
                      cdfg::EdgeId skip = cdfg::EdgeId::invalid()) {
  return naiveReach(g, {from}, check::Direction::kForward, sel,
                    skip)[to.value()] != 0;
}

/// ASAP/ALAP start windows of an acyclic `g` over data and control edges
/// (and temporal ones when `includeTemporal`), by memoised recursion on
/// the definitions: asap(v) is the latest asap(u) + gap over v's
/// predecessors u; alap(v) is the earliest alap(w) - gap over its
/// successors w, capped at deadline - latency(v), with the deadline the
/// critical path.
struct NaiveFrames {
  std::vector<std::uint32_t> asap;
  std::vector<std::uint32_t> alap;
  std::uint32_t critical = 0;
};

inline NaiveFrames naiveFrames(const cdfg::Cdfg& g,
                               const sched::LatencyModel& lat,
                               bool includeTemporal = false) {
  const std::size_t n = g.nodeCount();
  NaiveFrames f;
  std::vector<char> asap_done(n, 0);
  std::vector<char> alap_done(n, 0);
  f.asap.assign(n, 0);
  f.alap.assign(n, 0);
  const auto gap = [&](const cdfg::Edge& e) {
    return lat.edgeGap(g.node(e.src).kind, e.kind);
  };
  std::function<std::uint32_t(cdfg::NodeId)> asap = [&](cdfg::NodeId v) {
    if (asap_done[v.value()] == 0) {
      std::uint32_t t = 0;
      for (const cdfg::EdgeId e : g.inEdges(v)) {
        const cdfg::Edge& ed = g.edge(e);
        if (includeTemporal || ed.kind != cdfg::EdgeKind::kTemporal) {
          t = std::max(t, asap(ed.src) + gap(ed));
        }
      }
      f.asap[v.value()] = t;
      asap_done[v.value()] = 1;
    }
    return f.asap[v.value()];
  };
  for (const cdfg::NodeId v : g.allNodes()) {
    f.critical = std::max(f.critical, asap(v) + lat.latency(g.node(v).kind));
  }
  std::function<std::uint32_t(cdfg::NodeId)> alap = [&](cdfg::NodeId v) {
    if (alap_done[v.value()] == 0) {
      std::uint32_t t = f.critical - lat.latency(g.node(v).kind);
      for (const cdfg::EdgeId e : g.outEdges(v)) {
        const cdfg::Edge& ed = g.edge(e);
        if (includeTemporal || ed.kind != cdfg::EdgeKind::kTemporal) {
          const std::uint32_t succ = alap(ed.dst);
          t = std::min(t, succ >= gap(ed) ? succ - gap(ed) : 0u);
        }
      }
      f.alap[v.value()] = t;
      alap_done[v.value()] = 1;
    }
    return f.alap[v.value()];
  };
  for (const cdfg::NodeId v : g.allNodes()) {
    alap(v);
  }
  return f;
}

/// Unit-weight levels and heights of an acyclic `g` over data and control
/// edges, by memoised recursion on the paper's definitions (§IV-A), with
/// w(v) = 1 for a real operation and 0 for a pseudo-op:
/// level(v) = w(v) + the largest level of v's predecessors,
/// height(v) = w(v) + the largest height of its successors, and the
/// critical path C is the largest level.  The laxity of v, the longest
/// source-to-sink path through it, is level + height - w; its slack is C
/// minus that.
struct NaiveStructure {
  std::vector<std::uint32_t> level;
  std::vector<std::uint32_t> height;
  std::uint32_t critical = 0;
};

inline NaiveStructure naiveStructure(const cdfg::Cdfg& g) {
  const std::size_t n = g.nodeCount();
  NaiveStructure s;
  s.level.assign(n, 0);
  s.height.assign(n, 0);
  std::vector<char> level_done(n, 0);
  std::vector<char> height_done(n, 0);
  const auto w = [&](cdfg::NodeId v) {
    return cdfg::isPseudoOp(g.node(v).kind) ? 0u : 1u;
  };
  std::function<std::uint32_t(cdfg::NodeId)> level = [&](cdfg::NodeId v) {
    if (level_done[v.value()] == 0) {
      std::uint32_t best = 0;
      for (const cdfg::EdgeId e : g.inEdges(v)) {
        if (g.edge(e).kind != cdfg::EdgeKind::kTemporal) {
          best = std::max(best, level(g.edge(e).src));
        }
      }
      s.level[v.value()] = best + w(v);
      level_done[v.value()] = 1;
    }
    return s.level[v.value()];
  };
  std::function<std::uint32_t(cdfg::NodeId)> height = [&](cdfg::NodeId v) {
    if (height_done[v.value()] == 0) {
      std::uint32_t best = 0;
      for (const cdfg::EdgeId e : g.outEdges(v)) {
        if (g.edge(e).kind != cdfg::EdgeKind::kTemporal) {
          best = std::max(best, height(g.edge(e).dst));
        }
      }
      s.height[v.value()] = best + w(v);
      height_done[v.value()] = 1;
    }
    return s.height[v.value()];
  };
  for (const cdfg::NodeId v : g.allNodes()) {
    s.critical = std::max(s.critical, level(v));
    height(v);
  }
  return s;
}

/// Whether some node of `g` lies on a cycle of the `sel` edges: a DFS from
/// each node that finds its way back.
inline bool naiveHasCycle(const cdfg::Cdfg& g, cdfg::EdgeSel sel) {
  for (const cdfg::NodeId v : g.allNodes()) {
    if (naivePath(g, v, v, sel)) {
      return true;
    }
  }
  return false;
}

/// Copy-transparent real neighbours of `start` over data/control edges —
/// predecessors, or successors when `forward` — walked afresh: copies are
/// expanded, pseudo-ops stop the walk.  Unordered, possibly with repeats.
/// The walk the locality deriver ran from every ball frontier node before
/// it resolved copy chains once per design.
inline std::vector<cdfg::NodeId> naiveRealWalk(const cdfg::Cdfg& g,
                                               cdfg::NodeId start,
                                               bool forward) {
  const auto next = [&](cdfg::NodeId x) {
    return forward ? g.successors(x, /*includeTemporal=*/false)
                   : g.predecessors(x, /*includeTemporal=*/false);
  };
  std::vector<cdfg::NodeId> walk;
  std::vector<cdfg::NodeId> seen;
  std::vector<cdfg::NodeId> stack = next(start);
  while (!stack.empty()) {
    const cdfg::NodeId p = stack.back();
    stack.pop_back();
    if (std::find(seen.begin(), seen.end(), p) != seen.end()) {
      continue;
    }
    seen.push_back(p);
    const cdfg::OpKind kind = g.node(p).kind;
    if (cdfg::isPseudoOp(kind)) {
      continue;
    }
    if (kind == cdfg::OpKind::kCopy) {
      for (const cdfg::NodeId q : next(p)) {
        stack.push_back(q);
      }
      continue;
    }
    walk.push_back(p);
  }
  return walk;
}

/// The ball of `radius` around the real operation `root` over real
/// neighbours (predecessors, plus successors when `undirected`), root
/// included, ascending: the fanin tree To, or the undirected context ball,
/// one naiveRealWalk() per frontier node.
inline std::vector<cdfg::NodeId> naiveBall(const cdfg::Cdfg& g,
                                           cdfg::NodeId root,
                                           std::uint32_t radius,
                                           bool undirected) {
  std::vector<char> in(g.nodeCount(), 0);
  std::vector<cdfg::NodeId> out{root};
  std::vector<cdfg::NodeId> frontier{root};
  in[root.value()] = 1;
  for (std::uint32_t d = 0; d < radius && !frontier.empty(); ++d) {
    std::vector<cdfg::NodeId> next;
    const auto visit = [&](const std::vector<cdfg::NodeId>& around) {
      for (const cdfg::NodeId p : around) {
        if (in[p.value()] == 0) {
          in[p.value()] = 1;
          next.push_back(p);
          out.push_back(p);
        }
      }
    };
    for (const cdfg::NodeId v : frontier) {
      visit(naiveRealWalk(g, v, /*forward=*/false));
      if (undirected) {
        visit(naiveRealWalk(g, v, /*forward=*/true));
      }
    }
    frontier = std::move(next);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace locwm::testing
