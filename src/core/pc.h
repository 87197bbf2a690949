// Likelihood of solution coincidence, Pc (§IV-A discussion, §IV-B).
//
// The strength of the proof of authorship is 1 − Pc, where Pc is the
// probability that an independent tool, given only the original
// specification, produces a solution that happens to satisfy the
// watermark's constraints.
//
//  * Scheduling, exact:      Pc = ΨW(T)/ΨN(T) — exhaustive schedule counts
//    over the locality subgraph with and without the temporal edges
//    (Fig. 3: 15/166).  Exponential; small localities only.
//  * Scheduling, approximate: Pc ≈ Π_i P[t_src < t_dst] with start times
//    uniform over the operations' [asap, alap] windows (the paper assumes
//    a Poisson spread and E[ΨW/ΨN] = 1/2; the window model subsumes that
//    and degrades to exactly 1/2 for same-window pairs).
//  * Template matching:       Pc ≈ Π_i 1/Solutions(m_i) (tm/solutions.h).
//
// Values span 1e−5 … 1e−27 and smaller, so everything is carried in
// log10 domain.
#pragma once

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

  [[nodiscard]] double pc() const;
};

/// Exact Pc of a scheduling watermark by exhaustive enumeration over the
/// locality subgraph (shape + rank constraints from the certificate).
/// `deadline_slack` extra steps are granted beyond the locality's critical
/// path, mirroring the scheduling freedom of the surrounding design.
/// Throws Error when the enumeration budget is exceeded.
[[nodiscard]] PcEstimate exactSchedulingPc(
    const WatermarkCertificate& certificate, std::uint32_t deadline_slack = 1,
    std::uint64_t max_steps = 50'000'000);

/// A design carrying several watermarks proves authorship with the
/// *product* of the per-certificate Pc values (the localities are
/// disjoint by construction, so the coincidences are independent events).
struct AggregatePc {
  /// log10-sum of every successfully enumerated certificate, in
  /// certificate order.
  PcEstimate combined;
  /// Per-certificate estimates, aligned with the input; nullopt when that
  /// certificate's enumeration exceeded the budget.
  std::vector<std::optional<PcEstimate>> per_certificate;
  /// Number of nullopt entries above.
  std::size_t failed = 0;
};

/// Exact Pc of each certificate (independent enumerations, computed in
/// parallel) combined into one aggregate proof.  A certificate whose
/// enumeration exceeds `max_steps` is skipped and counted in `failed`
/// instead of aborting the whole aggregate.
[[nodiscard]] AggregatePc aggregateSchedulingPc(
    const std::vector<WatermarkCertificate>& certificates,
    std::uint32_t deadline_slack = 1, std::uint64_t max_steps = 50'000'000);

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

/// Likelihood-ratio confidence of a (possibly partial) detection: the
/// log10 probability that a schedule drawn uniformly from the locality's
/// window model satisfies at least `satisfied` of the certificate's
/// constraints.  Small values mean the observation is hard to explain by
/// chance even when tampering broke some constraints — the quantitative
/// backing for "degraded but still damning" verdicts.
///
/// Computed over the certificate's shape with `deadline_slack` extra
/// steps, treating constraints as independent Bernoulli trials with the
/// per-edge window probabilities (a Poisson-binomial tail).
[[nodiscard]] double detectionConfidenceLog10(
    const WatermarkCertificate& certificate, std::size_t satisfied,
    std::uint32_t deadline_slack = 1);

}  // namespace locwm::wm
