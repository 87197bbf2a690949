// Text serialization of schedules — the artifact that carries a scheduling
// watermark once the temporal edges are stripped, so it needs a durable
// interchange form.  Format: one "<node-index> <start-step>" pair per
// line, '#' comments allowed; every node of the design must be assigned.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Writes `s` (complete over `g`) in the text format.
void printSchedule(std::ostream& os, const cdfg::Cdfg& g, const Schedule& s);

/// Renders to a string.
[[nodiscard]] std::string scheduleToString(const cdfg::Cdfg& g,
                                           const Schedule& s);

/// One out-of-range assignment found while parsing in lenient mode: the
/// entry is dropped and recorded so a linter can report it with a stable
/// code instead of stopping at the first problem.
struct ScheduleParseIssue {
  std::size_t line = 0;     ///< 1-based source line
  std::uint32_t node = 0;   ///< node index outside [0, nodeCount)
  std::uint32_t step = 0;   ///< step the entry assigned
  std::string path;         ///< source artifact ("" when anonymous)
};

/// Parses a schedule for a design with `nodeCount` nodes.  Throws
/// ParseError on malformed input (a line whose first word is not a node
/// index included) or out-of-range node indices.  The result
/// may be partial; validate() reports unassigned nodes.
[[nodiscard]] Schedule parseScheduleString(std::string_view text,
                                           std::size_t nodeCount);
/// Lenient overload: out-of-range node indices are recorded in `issues`
/// and skipped instead of throwing.  Syntax errors still throw.  `source`
/// names the artifact: stamped on issues, prefixed to ParseError messages.
[[nodiscard]] Schedule parseScheduleString(
    std::string_view text, std::size_t nodeCount,
    std::vector<ScheduleParseIssue>& issues, const std::string& source = {});

}  // namespace locwm::sched
