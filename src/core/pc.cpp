#include "core/pc.h"

#include <algorithm>
#include <cmath>

#include "cdfg/error.h"
#include "rt/rt.h"

namespace locwm::wm {

double PcEstimate::pc() const { return std::pow(10.0, log10_pc); }

namespace {

/// The certificate's rank constraints as (before, after) shape nodes.
std::vector<sched::ExtraEdge> constraintEdges(
    const WatermarkCertificate& certificate) {
  std::vector<sched::ExtraEdge> edges;
  for (const RankConstraint& c : certificate.constraints) {
    edges.emplace_back(cdfg::NodeId(c.before_rank),
                       cdfg::NodeId(c.after_rank));
  }
  return edges;
}

/// Counts ΨN and ΨW of `certificate` (see exactSchedulingPc).  `exact` is
/// false, and only `deadline` is set, when a count stops early: over
/// kPcWorkBudget or past 2^64.
PcEstimate countPc(const WatermarkCertificate& certificate,
                   std::uint32_t deadline_slack) {
  const cdfg::Cdfg& shape = certificate.shape;
  sched::EnumerationOptions base;
  base.max_work = kPcWorkBudget;
  sched::EnumerationOptions constrained = base;
  constrained.extra_edges = constraintEdges(certificate);
  cdfg::Cdfg marked = shape;
  for (const auto& [before, after] : constrained.extra_edges) {
    if (!marked.hasEdge(before, after, cdfg::EdgeKind::kTemporal)) {
      marked.addEdge(before, after, cdfg::EdgeKind::kTemporal);
    }
  }
  PcEstimate est;
  est.deadline = std::max(
      sched::TimeFrames(shape, base.latency).criticalPathSteps() +
          deadline_slack,
      sched::TimeFrames(marked, base.latency).criticalPathSteps());
  base.deadline = constrained.deadline = est.deadline;

  const sched::CountResult unconstrained = sched::countSchedules(shape, base);
  if (!unconstrained.exact) {
    return est;
  }
  const sched::CountResult with = sched::countSchedules(shape, constrained);
  if (!with.exact) {
    return est;
  }
  detail::check(with.count > 0,
                "exactSchedulingPc: constraints unsatisfiable at their own "
                "critical path");
  est.exact = true;
  est.schedules_unconstrained = unconstrained.count;
  est.schedules_constrained = with.count;
  est.log10_pc = std::log10(static_cast<double>(with.count)) -
                 std::log10(static_cast<double>(unconstrained.count));
  return est;
}

}  // namespace

PcEstimate exactSchedulingPc(const WatermarkCertificate& certificate,
                             std::uint32_t deadline_slack) {
  PcEstimate est = countPc(certificate, deadline_slack);
  detail::check(est.exact,
                "exactSchedulingPc: count over budget or past 2^64");
  return est;
}

PcEstimate schedulingPc(const WatermarkCertificate& certificate,
                        std::size_t shape_matches) {
  PcEstimate est;
  try {
    est = countPc(certificate, kPcDeadlineSlack);
  } catch (const Error&) {
    // Only a crafted certificate gets here: a constraint on a pseudo-op or
    // constraints that close a cycle, which no schedule of the shape meets.
    // There is nothing to count; the window model still rates the edges.
    est.deadline = sched::TimeFrames(certificate.shape,
                                     sched::LatencyModel::unit())
                       .criticalPathSteps() +
                   kPcDeadlineSlack;
  }
  if (!est.exact) {
    est = approxSchedulingPc(certificate.shape, constraintEdges(certificate),
                             sched::LatencyModel::unit(), est.deadline);
  }
  if (shape_matches > 1) {
    est.log10_pc += std::log10(static_cast<double>(shape_matches));
  }
  return est;
}

double orderProbability(std::uint32_t a_lo, std::uint32_t a_hi,
                        std::uint32_t b_lo, std::uint32_t b_hi) {
  detail::check(a_lo <= a_hi && b_lo <= b_hi,
                "orderProbability: malformed windows");
  const double wa = a_hi - a_lo + 1;
  const double wb = b_hi - b_lo + 1;
  // Count pairs (ta, tb) with ta < tb.
  double favourable = 0;
  for (std::uint32_t ta = a_lo; ta <= a_hi; ++ta) {
    if (b_hi > ta) {
      const std::uint32_t lo = std::max(b_lo, ta + 1);
      if (lo <= b_hi) {
        favourable += static_cast<double>(b_hi - lo + 1);
      }
    }
  }
  return favourable / (wa * wb);
}

PcEstimate approxSchedulingPc(const cdfg::Cdfg& g,
                              const std::vector<sched::ExtraEdge>& edges,
                              const sched::LatencyModel& lat,
                              std::optional<std::uint32_t> deadline) {
  // Frames of the design an independent tool would face: the original
  // specification, i.e. temporal edges ignored.
  const sched::TimeFrames frames(g, lat, deadline,
                                 /*includeTemporal=*/false);
  PcEstimate est;
  est.exact = false;
  est.deadline = frames.deadline();
  // Fixed-order parallel reduce: per-chunk partials are combined in chunk
  // index order, so the log-sum rounds identically for any thread count.
  est.log10_pc = rt::parallel_reduce(
      0, edges.size(), 0.0,
      [&](std::size_t i) {
        const auto& [before, after] = edges[i];
        const double p =
            orderProbability(frames.asap(before), frames.alap(before),
                             frames.asap(after), frames.alap(after));
        // A zero-probability edge cannot occur by coincidence at all;
        // clamp to a floor so one edge doesn't collapse the log-sum to
        // -inf.
        return std::log10(std::max(p, 1e-12));
      },
      [](double acc, double term) { return acc + term; });
  return est;
}

PcEstimate templatePc(const std::vector<std::uint64_t>& solutions) {
  PcEstimate est;
  est.exact = false;
  for (const std::uint64_t s : solutions) {
    if (s > 1) {
      est.log10_pc -= std::log10(static_cast<double>(s));
    }
  }
  return est;
}

}  // namespace locwm::wm
