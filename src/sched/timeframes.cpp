#include "sched/timeframes.h"

#include <algorithm>
#include <utility>

#include "cdfg/error.h"

namespace locwm::sched {

using cdfg::NodeId;

TimeFrames::TimeFrames(const cdfg::Cdfg& g, const LatencyModel& lat,
                       std::optional<std::uint32_t> deadline,
                       bool includeTemporal)
    : TimeFrames(cdfg::CsrView(g), lat, deadline, includeTemporal) {}

TimeFrames::TimeFrames(const cdfg::CsrView& v, const LatencyModel& lat,
                       std::optional<std::uint32_t> deadline,
                       bool includeTemporal) {
  const std::size_t n = v.nodeCount();
  const cdfg::EdgeSel sel =
      includeTemporal ? cdfg::EdgeSel::kAll : cdfg::EdgeSel::kDataControl;
  const std::size_t kinds = includeTemporal ? 3 : 2;

  // Any topological order gives the same frames.
  const std::vector<NodeId> topo = cdfg::topologicalOrder(v, sel);
  detail::check<GraphError>(topo.size() == n,
                            "CDFG contains a dependence cycle");

  // Forward pass: ASAP start times.
  asap_.assign(n, 0);
  for (const NodeId node : topo) {
    std::uint32_t earliest = 0;
    for (std::size_t k = 0; k < kinds; ++k) {
      const cdfg::EdgeKind kind = cdfg::kCsrKindOrder[k];
      for (const NodeId src : v.predecessors(node, cdfg::edgeSelOf(kind))) {
        earliest = std::max(earliest,
                            asap_[src.value()] + lat.edgeGap(v.kind(src), kind));
      }
    }
    asap_[node.value()] = earliest;
  }

  // Critical path in steps: the earliest finish over all nodes.
  critical_ = 0;
  for (const NodeId node : topo) {
    critical_ =
        std::max(critical_, asap_[node.value()] + lat.latency(v.kind(node)));
  }

  deadline_ = deadline.value_or(critical_);
  if (deadline_ < critical_) {
    throw ScheduleError("TimeFrames: deadline " + std::to_string(deadline_) +
                        " below critical path " + std::to_string(critical_));
  }

  // Backward pass: ALAP start times.  A node with no (considered)
  // successors may start as late as deadline - latency.
  alap_.assign(n, 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId node = *it;
    std::uint32_t latest = deadline_ - lat.latency(v.kind(node));
    for (std::size_t k = 0; k < kinds; ++k) {
      const cdfg::EdgeKind kind = cdfg::kCsrKindOrder[k];
      const std::uint32_t gap = lat.edgeGap(v.kind(node), kind);
      for (const NodeId dst : v.successors(node, cdfg::edgeSelOf(kind))) {
        const std::uint32_t succ_alap = alap_[dst.value()];
        latest = std::min(latest, succ_alap >= gap ? succ_alap - gap : 0u);
      }
    }
    alap_[node.value()] = latest;
  }
}

std::uint32_t TimeFrames::asap(NodeId n) const {
  detail::check<ScheduleError>(n.isValid() && n.value() < asap_.size(),
                               "asap(): node id out of range");
  return asap_[n.value()];
}

std::uint32_t TimeFrames::alap(NodeId n) const {
  detail::check<ScheduleError>(n.isValid() && n.value() < alap_.size(),
                               "alap(): node id out of range");
  return alap_[n.value()];
}

std::uint32_t TimeFrames::mobility(NodeId n) const {
  return alap(n) - asap(n);
}

bool TimeFrames::lifetimesOverlap(NodeId a, NodeId b) const {
  return asap(a) <= alap(b) && asap(b) <= alap(a);
}

StructuralAnalysis::StructuralAnalysis(const cdfg::Cdfg& graph)
    : StructuralAnalysis(graph, cdfg::CsrView(graph)) {}

StructuralAnalysis::StructuralAnalysis(const cdfg::Cdfg& graph,
                                       cdfg::CsrView csr)
    : graph_(&graph),
      csr_(std::move(csr)),
      frames_(csr_, LatencyModel::unit(), std::nullopt,
              /*includeTemporal=*/false) {}

std::uint32_t StructuralAnalysis::level(NodeId n) const {
  const std::uint32_t asap = frames_.asap(n);  // range-checks n first
  return asap + (cdfg::isPseudoOp(csr_.kind(n)) ? 0u : 1u);
}

cdfg::NodeOrdering computeOrdering(const StructuralAnalysis& analysis,
                                   const std::vector<NodeId>& nodes,
                                   std::uint32_t maxDepth) {
  // Local ids follow ascending node id, so the core's local-id tie-break
  // is a node-id tie-break.  Levels are the enclosing graph's; the
  // refinement sees only neighbours inside the set.
  std::vector<NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  const cdfg::CsrView& csr = analysis.csr();
  constexpr std::uint32_t kOutside = 0xFFFFFFFFu;
  std::vector<std::uint32_t> local_of(csr.nodeCount(), kOutside);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    local_of[sorted[i].value()] = static_cast<std::uint32_t>(i);
  }
  cdfg::LocalCsr local;
  std::vector<std::uint32_t> levels;
  levels.reserve(sorted.size());
  for (const NodeId v : sorted) {
    local.kinds.push_back(csr.kind(v));
    levels.push_back(analysis.level(v));
  }
  for (const NodeId v : sorted) {
    for (const cdfg::EdgeKind kind :
         {cdfg::EdgeKind::kData, cdfg::EdgeKind::kControl}) {
      for (const NodeId s : csr.successors(v, cdfg::edgeSelOf(kind))) {
        if (local_of[s.value()] != kOutside) {
          local.out.push_back(local_of[s.value()]);
          local.out_kind.push_back(kind);
        }
      }
    }
    local.out_off.push_back(static_cast<std::uint32_t>(local.out.size()));
  }
  local.buildInLists();
  cdfg::NodeOrdering ordering = cdfg::computeOrdering(local, levels, maxDepth);
  for (NodeId& v : ordering.ordered) {
    v = sorted[v.value()];
  }
  return ordering;
}

cdfg::NodeOrdering computeOrdering(const StructuralAnalysis& analysis,
                                   std::uint32_t maxDepth) {
  return computeOrdering(analysis, analysis.graph().allNodes(), maxDepth);
}

}  // namespace locwm::sched
