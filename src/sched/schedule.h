// Schedule representation and validation.
//
// A Schedule maps every CDFG node to the control step in which it starts.
// Pseudo-operations also receive a step (inputs at 0, outputs at the step
// their producer completes) so that validation is uniform.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/graph.h"
#include "sched/latency.h"

namespace locwm::sched {

/// Start-step assignment for every node of one graph.
class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t nodeCount) : start_(nodeCount, kUnset) {}

  /// Assigns node `n` to start at `step`.
  void set(cdfg::NodeId n, std::uint32_t step);

  /// True when `n` has been assigned.
  [[nodiscard]] bool isSet(cdfg::NodeId n) const;

  /// Start step of `n`; throws ScheduleError when unset.
  [[nodiscard]] std::uint32_t at(cdfg::NodeId n) const;

  [[nodiscard]] std::size_t nodeCount() const noexcept { return start_.size(); }

  /// Number of control steps used: 1 + max over real ops of
  /// (start + latency - 1).  Zero for an empty schedule.
  [[nodiscard]] std::uint32_t makespan(const cdfg::Cdfg& g,
                                       const LatencyModel& lat) const;

  friend bool operator==(const Schedule& a, const Schedule& b) {
    return a.start_ == b.start_;
  }

 private:
  static constexpr std::int64_t kUnset = -1;
  std::vector<std::int64_t> start_;
};

/// Violation discovered by validate(); empty optional means the schedule is
/// feasible.
struct ScheduleViolation {
  cdfg::EdgeId edge;      ///< offending edge (invalid when unassigned node)
  cdfg::NodeId node;      ///< unassigned node (invalid when edge violation)
  std::string message;    ///< human-readable diagnosis
};

/// Checks every node is assigned and every edge constraint holds:
/// data/control: start(dst) >= start(src) + latency(src);
/// temporal (when `checkTemporal`): start(dst) >= start(src) + 1.
[[nodiscard]] std::optional<ScheduleViolation> validate(
    const cdfg::Cdfg& g, const Schedule& s, const LatencyModel& lat,
    bool checkTemporal = true);

/// Per-functional-unit-class concurrent usage profile.
/// usage[fu][step] = number of ops of that class executing in `step`.
struct ResourceProfile {
  std::vector<std::vector<std::uint32_t>> usage;  // [FuClass][step]
  /// Peak concurrent usage per class — the module count scheduling implies.
  [[nodiscard]] std::vector<std::uint32_t> peaks() const;
};

/// Computes the resource profile of a complete schedule.
[[nodiscard]] ResourceProfile resourceProfile(const cdfg::Cdfg& g,
                                              const Schedule& s,
                                              const LatencyModel& lat);

/// Per-class functional-unit budget; 0 means "unlimited".
struct ResourceLimits {
  std::array<std::uint32_t, cdfg::kFuClassCount> limit{};

  [[nodiscard]] static ResourceLimits unlimited() { return ResourceLimits{}; }
  [[nodiscard]] static ResourceLimits of(std::uint32_t alu, std::uint32_t mul,
                                         std::uint32_t mem = 0,
                                         std::uint32_t branch = 0);
};

/// True when the schedule respects `limits` in every step.
[[nodiscard]] bool respectsLimits(const ResourceProfile& profile,
                                  const ResourceLimits& limits);

}  // namespace locwm::sched
