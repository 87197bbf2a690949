#include "vliw/vliw_scheduler.h"

#include <algorithm>
#include <vector>

#include "cdfg/error.h"
#include "sched/timeframes.h"

namespace locwm::vliw {

using cdfg::EdgeId;
using cdfg::NodeId;

VliwScheduleResult vliwSchedule(const cdfg::Cdfg& g,
                                const VliwMachine& machine,
                                const VliwScheduleOptions& options) {
  const sched::LatencyModel& lat = machine.latency;
  const sched::StructuralAnalysis analysis(g);

  sched::Schedule s(g.nodeCount());
  std::vector<std::uint32_t> ready_at(g.nodeCount(), 0);
  std::vector<std::size_t> pending(g.nodeCount(), 0);
  for (const EdgeId e : g.allEdges()) {
    const cdfg::Edge& ed = g.edge(e);
    if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
      continue;
    }
    ++pending[ed.dst.value()];
  }

  // Pseudo-ops are resolved as their dependences allow, consuming no slot.
  std::vector<NodeId> ready;
  for (const NodeId v : g.allNodes()) {
    if (pending[v.value()] == 0) {
      ready.push_back(v);
    }
  }

  auto release = [&](NodeId v, std::uint32_t finish_gap_base) {
    for (const EdgeId e : g.outEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind == cdfg::EdgeKind::kTemporal && !options.honor_temporal) {
        continue;
      }
      const std::uint32_t gap = lat.edgeGap(g.node(v).kind, ed.kind);
      ready_at[ed.dst.value()] =
          std::max(ready_at[ed.dst.value()], finish_gap_base + gap);
      if (--pending[ed.dst.value()] == 0) {
        ready.push_back(ed.dst);
      }
    }
  };

  std::size_t scheduled_real = 0;
  std::size_t total_real = 0;
  for (const NodeId v : g.allNodes()) {
    if (lat.latency(g.node(v).kind) > 0) {
      ++total_real;
    }
  }

  std::uint32_t cycle = 0;
  std::uint32_t last_finish = 0;
  std::uint64_t issued_total = 0;

  // Drain pseudo-ops available at time 0 (inputs, constants).
  for (std::size_t i = 0; i < ready.size();) {
    const NodeId v = ready[i];
    if (lat.latency(g.node(v).kind) == 0) {
      s.set(v, ready_at[v.value()]);
      release(v, ready_at[v.value()]);
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(i));
      i = 0;  // releases may have appended new pseudo-ops anywhere
    } else {
      ++i;
    }
  }

  while (scheduled_real < total_real) {
    detail::check<ScheduleError>(!ready.empty() || cycle < 1'000'000'000,
                                 "vliwSchedule: livelock");
    // Candidates issueable this cycle, best priority first.
    std::vector<NodeId> cand;
    for (const NodeId v : ready) {
      if (ready_at[v.value()] <= cycle) {
        cand.push_back(v);
      }
    }
    std::sort(cand.begin(), cand.end(), [&](NodeId a, NodeId b) {
      const auto ka = std::make_pair(analysis.height(a), b.value());
      const auto kb = std::make_pair(analysis.height(b), a.value());
      return ka > kb;  // higher height first; lower id wins ties
    });

    std::uint32_t issued = 0;
    std::vector<std::uint32_t> pool_used(machine.pools.size(), 0);
    std::vector<NodeId> issued_nodes;
    for (const NodeId v : cand) {
      if (issued == machine.issue_width) {
        break;
      }
      const cdfg::OpKind kind = g.node(v).kind;
      const std::size_t pool = machine.poolFor(cdfg::fuClass(kind));
      if (pool_used[pool] == machine.pools[pool].count) {
        continue;
      }
      ++pool_used[pool];
      ++issued;
      s.set(v, cycle);
      issued_nodes.push_back(v);
      last_finish = std::max(last_finish, cycle + lat.latency(kind));
    }
    for (const NodeId v : issued_nodes) {
      ready.erase(std::find(ready.begin(), ready.end(), v));
      release(v, cycle);
      ++scheduled_real;
    }
    issued_total += issued;
    ++cycle;

    // Newly enabled pseudo-ops resolve immediately.
    for (std::size_t i = 0; i < ready.size();) {
      const NodeId v = ready[i];
      if (lat.latency(g.node(v).kind) == 0) {
        s.set(v, ready_at[v.value()]);
        release(v, ready_at[v.value()]);
        ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(i));
        i = 0;
      } else {
        ++i;
      }
    }
  }

  VliwScheduleResult result;
  result.schedule = s;
  result.cycles = last_finish;
  result.utilization =
      last_finish == 0
          ? 0.0
          : static_cast<double>(issued_total) /
                (static_cast<double>(last_finish) * machine.issue_width);
  return result;
}

}  // namespace locwm::vliw
