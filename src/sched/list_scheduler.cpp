#include "sched/list_scheduler.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "obs/obs.h"
#include "sched/timeframes.h"

namespace locwm::sched {

using cdfg::EdgeId;
using cdfg::NodeId;

Schedule listSchedule(const cdfg::Cdfg& g,
                      const ListSchedulerOptions& options) {
  LOCWM_OBS_SPAN("sched.list");
  const LatencyModel& lat = options.latency;
  Schedule s(g.nodeCount());

  // Priorities: height (longest path to sink, in ops).  Structural, so it
  // is identical with and without the watermark edges — the watermark only
  // changes *feasibility*, not the heuristic's preferences.
  const StructuralAnalysis analysis(g);

  // earliest[v]: lower bound on start from already-scheduled predecessors.
  std::vector<std::uint32_t> earliest(g.nodeCount(), 0);
  std::vector<std::size_t> pending(g.nodeCount(), 0);
  for (const EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
      continue;
    }
    ++pending[ed.dst.value()];
  }

  // Max-heap keyed by (height, then lower id wins).
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  auto keyOf = [&](NodeId v) {
    return Key(analysis.height(v), ~v.value());
  };
  std::priority_queue<std::pair<Key, NodeId>> ready;
  for (const NodeId v : g.allNodes()) {
    if (pending[v.value()] == 0) {
      ready.push({keyOf(v), v});
    }
  }

  // usage[fu][step] tracks commitments; grown on demand.
  std::vector<std::vector<std::uint32_t>> usage(cdfg::kFuClassCount);
  auto usageAt = [&](std::size_t fu, std::uint32_t step) -> std::uint32_t& {
    if (usage[fu].size() <= step) {
      usage[fu].resize(step + 1, 0);
    }
    return usage[fu][step];
  };

  std::size_t scheduled = 0;
  std::size_t ready_peak = ready.size();
  while (scheduled < g.nodeCount()) {
    detail::check<ScheduleError>(!ready.empty(),
                                 "listSchedule: dependence cycle");
    const NodeId v = ready.top().second;
    ready.pop();

    const cdfg::OpKind kind = g.node(v).kind;
    const std::uint32_t l = lat.latency(kind);
    const auto fu = static_cast<std::size_t>(cdfg::fuClass(kind));
    const std::uint32_t cap = options.limits.limit[fu];

    std::uint32_t t = earliest[v.value()];
    if (l > 0 && cap > 0) {
      // Find the first step where all l occupied steps have a free unit.
      for (;;) {
        bool fits = true;
        for (std::uint32_t k = 0; k < l; ++k) {
          if (usageAt(fu, t + k) >= cap) {
            fits = false;
            t = t + k + 1;
            break;
          }
        }
        if (fits) {
          break;
        }
      }
    }
    s.set(v, t);
    if (l > 0) {
      for (std::uint32_t k = 0; k < l; ++k) {
        ++usageAt(fu, t + k);
      }
    }
    ++scheduled;

    for (const EdgeId e : g.outEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
        continue;
      }
      const std::uint32_t gap = lat.edgeGap(kind, ed.kind);
      earliest[ed.dst.value()] =
          std::max(earliest[ed.dst.value()], t + gap);
      if (--pending[ed.dst.value()] == 0) {
        ready.push({keyOf(ed.dst), ed.dst});
        ready_peak = std::max(ready_peak, ready.size());
      }
    }
  }
  LOCWM_OBS_GAUGE_MAX("sched.list.ready_peak", ready_peak);
  LOCWM_OBS_COUNT("sched.list.nodes_scheduled", scheduled);
  return s;
}

}  // namespace locwm::sched
