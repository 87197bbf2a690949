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

void ScheduleReader::fail(const std::string& why) const {
  const std::string where =
      source_.empty() ? std::string() : std::string(source_) + ": ";
  throw ParseError(where + "schedule parse error at line " +
                   std::to_string(lineno()) + ": " + why);
}

namespace {

Schedule parseScheduleImpl(std::string_view text, std::size_t nodeCount,
                           std::vector<ScheduleParseIssue>* issues,
                           const std::string& source = {}) {
  LOCWM_OBS_SPAN("sched.parse");
  Schedule s(nodeCount);
  ScheduleReader reader(text, source);
  ScheduleEntry e;
  while (reader.next(e)) {
    if (e.node >= nodeCount) {
      if (!issues) {
        reader.fail("node " + std::to_string(e.node) + " out of range");
      }
      issues->push_back({reader.lineno(), e.node, e.step, source});
      continue;
    }
    s.set(cdfg::NodeId(e.node), e.step);
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
