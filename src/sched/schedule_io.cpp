#include "sched/schedule_io.h"

#include <sstream>

#include "cdfg/error.h"
#include "cdfg/text.h"
#include "obs/obs.h"

namespace locwm::sched {

void printSchedule(std::ostream& os, const cdfg::Cdfg& g, const Schedule& s) {
  for (const cdfg::NodeId v : g.allNodes()) {
    os << v.value() << ' ' << s.at(v) << '\n';
  }
}

std::string scheduleToString(const cdfg::Cdfg& g, const Schedule& s) {
  std::ostringstream os;
  printSchedule(os, g, s);
  return os.str();
}

namespace {

Schedule parseScheduleImpl(std::string_view text, std::size_t nodeCount,
                           std::vector<ScheduleParseIssue>* issues,
                           const std::string& source = {}) {
  LOCWM_OBS_SPAN("sched.parse");
  Schedule s(nodeCount);
  text::LineReader lines(text);
  std::string_view line;
  const std::string where = source.empty() ? "" : source + ": ";
  while (lines.next(line)) {
    const std::size_t lineno = lines.lineno();
    const std::string_view body = text::stripComment(line);
    text::Fields ls(body);
    std::uint32_t node = 0;
    std::uint32_t step = 0;
    if (!(ls >> node)) {
      std::string_view word;
      if (!(text::Fields(body) >> word)) {
        continue;  // blank/comment line
      }
      throw ParseError(where + "schedule parse error at line " +
                       std::to_string(lineno) + ": malformed entry '" +
                       std::string(word) + "'");
    }
    if (!(ls >> step)) {
      throw ParseError(where + "schedule parse error at line " +
                       std::to_string(lineno) + ": missing step");
    }
    std::string_view trailing;
    if (ls >> trailing) {
      throw ParseError(where + "schedule parse error at line " +
                       std::to_string(lineno) + ": trailing tokens");
    }
    if (node >= nodeCount) {
      if (!issues) {
        throw ParseError(where + "schedule parse error at line " +
                         std::to_string(lineno) + ": node " +
                         std::to_string(node) + " out of range");
      }
      issues->push_back({lineno, node, step, source});
      continue;
    }
    s.set(cdfg::NodeId(node), step);
  }
  return s;
}

}  // namespace

Schedule parseScheduleString(std::string_view text, std::size_t nodeCount) {
  return parseScheduleImpl(text, nodeCount, nullptr);
}

Schedule parseScheduleString(std::string_view text, std::size_t nodeCount,
                             std::vector<ScheduleParseIssue>& issues,
                             const std::string& source) {
  return parseScheduleImpl(text, nodeCount, &issues, source);
}

}  // namespace locwm::sched
