// Likelihood of solution coincidence, Pc (§IV-A discussion, §IV-B).
//
// The strength of the proof of authorship is 1 − Pc, where Pc is the
// probability that an independent tool, given only the original
// specification, produces a solution that happens to satisfy the
// watermark's constraints.
//
//  * Scheduling, exact:      Pc = ΨW(T)/ΨN(T) — exhaustive schedule counts
//    over the locality subgraph with and without the temporal edges
//    (Fig. 3: 15/166).  Exponential; budgeted.
//  * Scheduling, approximate: Pc ≈ Π_i P[t_src < t_dst] with start times
//    uniform over the operations' [asap, alap] windows (the paper assumes
//    a Poisson spread and E[ΨW/ΨN] = 1/2; the window model subsumes that
//    and degrades to exactly 1/2 for same-window pairs).
//  * Template matching:       Pc ≈ Π_i 1/Solutions(m_i) (tm/solutions.h).
//
// The detectors (`detect`, `verify-cert`, `scan`) all report schedulingPc:
// the exact ratio when both counts fit the work budget, the approximation
// at the same deadline otherwise.
//
// Values span 1e−5 … 1e−27 and smaller, so everything is carried in
// log10 domain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "cdfg/graph.h"
#include "core/sched_wm.h"
#include "sched/enumeration.h"
#include "sched/timeframes.h"

namespace locwm::wm {

/// A Pc estimate in log10 domain (pc = 10^log10_pc).
struct PcEstimate {
  double log10_pc = 0;
  /// True when computed by exhaustive enumeration.
  bool exact = false;
  /// Diagnostics for exact estimates: the two schedule counts.
  std::uint64_t schedules_unconstrained = 0;
  std::uint64_t schedules_constrained = 0;
  /// The scheduling deadline the estimate was computed at, in steps.
  std::uint32_t deadline = 0;

  [[nodiscard]] double pc() const;
};

/// Deadline slack of the detectors' scheduling Pc: steps granted beyond
/// the locality's critical path, standing in for the scheduling freedom of
/// the surrounding design.
inline constexpr std::uint32_t kPcDeadlineSlack = 1;
/// Work budget of each of the two schedule counts of an exact Pc (search
/// states expanded plus memo probes, sched/enumeration.h).
inline constexpr std::uint64_t kPcWorkBudget = 20'000;

/// Exact Pc of a scheduling watermark by exhaustive counting over the
/// locality subgraph (shape + rank constraints from the certificate).
/// The deadline is max(CP(shape) + deadline_slack, CP(shape + constraints)):
/// the author's own schedule meets the constraints, so ΨW >= 1 and Pc > 0.
/// Throws Error when either count exceeds kPcWorkBudget or would pass
/// 2^64, and when no schedule can meet the constraints (a self or cyclic
/// constraint, a pseudo-op endpoint).
[[nodiscard]] PcEstimate exactSchedulingPc(
    const WatermarkCertificate& certificate, std::uint32_t deadline_slack);

/// The detectors' Pc of one found scheduling mark: exactSchedulingPc at
/// kPcDeadlineSlack, or approxSchedulingPc at the same deadline (exact =
/// false) when the counts exceed the budget or cannot run; times
/// `shape_matches`, the number of places the locality shape occurs
/// (§IV-B's multiplier).
[[nodiscard]] PcEstimate schedulingPc(const WatermarkCertificate& certificate,
                                      std::size_t shape_matches);

/// Approximate Pc of a set of temporal constraints in a full design:
/// per-edge window-uniform order probability, multiplied (log-summed).
/// `edges` are (before, after) node pairs in `g`'s coordinates; frames are
/// computed on `g` WITHOUT temporal edges (the unconstrained solution
/// space an independent tool faces).
[[nodiscard]] PcEstimate approxSchedulingPc(
    const cdfg::Cdfg& g, const std::vector<sched::ExtraEdge>& edges,
    const sched::LatencyModel& lat = sched::LatencyModel::unit(),
    std::optional<std::uint32_t> deadline = std::nullopt);

/// The window-uniform order probability P[t_a < t_b] for start windows
/// [a_lo, a_hi] and [b_lo, b_hi].  Exposed for tests and the tamper model.
[[nodiscard]] double orderProbability(std::uint32_t a_lo, std::uint32_t a_hi,
                                      std::uint32_t b_lo, std::uint32_t b_hi);

/// Template-matching Pc: Π 1/Solutions(m_i) given the per-matching
/// solution counts.
[[nodiscard]] PcEstimate templatePc(
    const std::vector<std::uint64_t>& solutions_per_matching);

}  // namespace locwm::wm
