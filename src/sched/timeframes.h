// ASAP / ALAP time frames and mobility.
//
// The watermarking protocol reasons about the "asap–alap lifetime" of every
// operation (§IV-A): eligible watermark nodes must have overlapping
// lifetimes with a partner and enough laxity.  The same frames drive the
// force-directed scheduler, bound the exact schedule enumerator, and give
// the lint rules their slack (LW602 and the incremental engine).
//
// Frames are longest paths, so one Kahn order over the CSR view and one
// pass each way compute them in time linear in the graph, whatever its
// node numbering.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "sched/latency.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Per-node [asap, alap] start-step intervals under a deadline.
class TimeFrames {
 public:
  /// Computes frames for `g` under latency model `lat` and `deadline`
  /// control steps (the schedule must fit in steps [0, deadline)).
  ///
  /// When `deadline` is nullopt the critical-path length is used, i.e. the
  /// tightest feasible deadline.  `includeTemporal` controls whether
  /// temporal (watermark) edges constrain the frames — embedding computes
  /// frames on the *original* constraints, scheduling afterwards on the
  /// augmented ones.
  ///
  /// Throws GraphError on a dependence cycle over the considered edges,
  /// and ScheduleError when `deadline` is below the critical path.
  TimeFrames(const cdfg::Cdfg& g, const LatencyModel& lat,
             std::optional<std::uint32_t> deadline = std::nullopt,
             bool includeTemporal = true);
  /// The same over a view the caller has already lowered from `g`.
  TimeFrames(const cdfg::CsrView& v, const LatencyModel& lat,
             std::optional<std::uint32_t> deadline = std::nullopt,
             bool includeTemporal = true);

  [[nodiscard]] std::uint32_t asap(cdfg::NodeId n) const;
  [[nodiscard]] std::uint32_t alap(cdfg::NodeId n) const;

  /// alap - asap: the scheduling freedom of the operation.
  [[nodiscard]] std::uint32_t mobility(cdfg::NodeId n) const;

  /// The deadline the frames were computed for.
  [[nodiscard]] std::uint32_t deadline() const noexcept { return deadline_; }

  /// Length of the critical path in control steps under `lat` (the minimal
  /// feasible deadline).
  [[nodiscard]] std::uint32_t criticalPathSteps() const noexcept {
    return critical_;
  }

  /// The paper's lifetime-overlap predicate: true when the [asap, alap]
  /// intervals of `a` and `b` intersect, i.e. some schedule may place them
  /// in the same step — the precondition for a meaningful temporal edge.
  [[nodiscard]] bool lifetimesOverlap(cdfg::NodeId a, cdfg::NodeId b) const;

 private:
  std::vector<std::uint32_t> asap_;
  std::vector<std::uint32_t> alap_;
  std::uint32_t deadline_ = 0;
  std::uint32_t critical_ = 0;
};

}  // namespace locwm::sched
