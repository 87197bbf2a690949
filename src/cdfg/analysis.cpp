#include "cdfg/analysis.h"

#include <algorithm>

namespace locwm::cdfg {

namespace {

/// Weight a node contributes to paths: pseudo-ops are free.
std::uint32_t nodeWeight(const Cdfg& g, NodeId n) {
  return isPseudoOp(g.node(n).kind) ? 0u : 1u;
}

}  // namespace

StructuralAnalysis::StructuralAnalysis(const Cdfg& graph)
    : graph_(&graph), csr_(graph) {
  const std::size_t n = graph.nodeCount();
  level_.assign(n, 0);
  height_.assign(n, 0);

  const std::vector<NodeId> topo = graph.topologicalOrder(/*includeTemporal=*/false);

  // Temporal edges are excluded throughout (see class comment), so every
  // neighbour walk uses the data+control CSR segment.
  for (const NodeId v : topo) {
    std::uint32_t best = 0;
    for (const NodeId p : csr_.predecessors(v, EdgeSel::kDataControl)) {
      best = std::max(best, level_[p.value()]);
    }
    level_[v.value()] = best + nodeWeight(graph, v);
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    std::uint32_t best = 0;
    for (const NodeId s : csr_.successors(v, EdgeSel::kDataControl)) {
      best = std::max(best, height_[s.value()]);
    }
    height_[v.value()] = best + nodeWeight(graph, v);
  }
  for (std::size_t i = 0; i < n; ++i) {
    critical_path_ = std::max(critical_path_, level_[i]);
  }
}

std::uint32_t StructuralAnalysis::level(NodeId n) const {
  detail::check<GraphError>(n.isValid() && n.value() < level_.size(),
                            "level(): node id out of range");
  return level_[n.value()];
}

std::uint32_t StructuralAnalysis::height(NodeId n) const {
  detail::check<GraphError>(n.isValid() && n.value() < height_.size(),
                            "height(): node id out of range");
  return height_[n.value()];
}

std::uint32_t StructuralAnalysis::laxity(NodeId n) const {
  // level() already counts the node itself (when real); height() counts it
  // again, so subtract one node weight to avoid double counting.
  return level(n) + height(n) - nodeWeight(*graph_, n);
}

std::uint32_t StructuralAnalysis::slack(NodeId n) const {
  const std::uint32_t lax = laxity(n);
  return critical_path_ >= lax ? critical_path_ - lax : 0u;
}

std::vector<std::uint32_t> levelsOf(const LocalCsr& g) {
  // Kahn's algorithm; the levels are the same in any topological order.
  const std::size_t n = g.size();
  std::vector<std::uint32_t> level(n, 0);
  std::vector<std::uint32_t> indegree(n);
  std::vector<std::uint32_t> ready;
  for (std::uint32_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<std::uint32_t>(g.predecessors(v).size());
    if (indegree[v] == 0) {
      ready.push_back(v);
    }
  }
  std::size_t done = 0;
  while (!ready.empty()) {
    const std::uint32_t v = ready.back();
    ready.pop_back();
    ++done;
    level[v] += isPseudoOp(g.kinds[v]) ? 0u : 1u;
    for (const std::uint32_t s : g.successors(v)) {
      level[s] = std::max(level[s], level[v]);
      if (--indegree[s] == 0) {
        ready.push_back(s);
      }
    }
  }
  detail::check<GraphError>(done == n, "CDFG contains a dependence cycle");
  return level;
}

}  // namespace locwm::cdfg
