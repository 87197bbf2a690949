#include "sched/timeframes.h"

#include <algorithm>

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

  // Kahn order over the considered edges; any topological order gives the
  // same frames.
  std::vector<std::uint32_t> indegree(n);
  std::vector<NodeId> topo;
  topo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node(static_cast<std::uint32_t>(i));
    indegree[i] = static_cast<std::uint32_t>(v.inDegree(node, sel));
    if (indegree[i] == 0) {
      topo.push_back(node);
    }
  }
  for (std::size_t head = 0; head < topo.size(); ++head) {
    for (const NodeId dst : v.successors(topo[head], sel)) {
      if (--indegree[dst.value()] == 0) {
        topo.push_back(dst);
      }
    }
  }
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

}  // namespace locwm::sched
