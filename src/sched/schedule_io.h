// Text serialization of schedules — the artifact that carries a scheduling
// watermark once the temporal edges are stripped, so it needs a durable
// interchange form.  Format: one "<node-index> <start-step>" pair per
// line, '#' comments allowed; every node of the design must be assigned.
// Both words of an entry are numbers below 2^32 (cdfg/text.h): a sign, a
// numeric prefix ("1abc") or a wider value is a malformed entry that
// names the word, never another node.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/text.h"
#include "sched/schedule.h"

namespace locwm::sched {

/// Writes `s` (complete over `g`) in the text format.
void printSchedule(std::ostream& os, const cdfg::Cdfg& g, const Schedule& s);

/// Renders to a string.
[[nodiscard]] std::string scheduleToString(const cdfg::Cdfg& g,
                                           const Schedule& s);

/// One "<node> <step>" entry line.
struct ScheduleEntry {
  std::uint32_t node = 0;
  std::uint32_t step = 0;
};

/// What one schedule line is.
enum class ScheduleLine : std::uint8_t { kBlank, kEntry, kMalformed };

/// The format's line rule ('#' comment allowed): a blank line, an entry
/// (stored in `entry`) or a malformed line, whose reason goes to `why`
/// when given.  The artifact sniffer asks it whether a first line opens a
/// schedule.
[[nodiscard]] inline ScheduleLine readScheduleLine(
    std::string_view line, ScheduleEntry& entry,
    std::string* why = nullptr) {
  text::Fields ls(text::stripComment(line));
  std::string_view node;
  std::string_view step;
  std::string_view trailing;
  if (!(ls >> node)) {
    return ScheduleLine::kBlank;
  }
  std::string_view bad;
  const char* reason = nullptr;
  if (!text::wholeNumber(node, entry.node)) {
    bad = node;
  } else if (!(ls >> step)) {
    reason = "missing step";
  } else if (!text::wholeNumber(step, entry.step)) {
    bad = step;
  } else if (ls >> trailing) {
    reason = "trailing tokens";
  } else {
    return ScheduleLine::kEntry;
  }
  if (why != nullptr) {
    *why = reason != nullptr ? reason
                             : "malformed entry '" + std::string(bad) + "'";
  }
  return ScheduleLine::kMalformed;
}

/// The one syntax walk over a schedule, shared by the parsers and the
/// workspace analyzer: yields the entries in line order and throws
/// ParseError at the first line that is no entry; node ranges are the
/// caller's to check.  `text` and `source` (prefixed to ParseError
/// messages) must outlive the reader.
class ScheduleReader {
 public:
  explicit ScheduleReader(std::string_view text,
                          std::string_view source = {}) noexcept
      : lines_(text), source_(source) {}

  /// Stores the next entry in `entry`; false at the end of the text.
  bool next(ScheduleEntry& entry) {
    std::string_view line;
    while (lines_.next(line)) {
      const ScheduleLine kind = readScheduleLine(line, entry);
      if (kind == ScheduleLine::kEntry) {
        return true;
      }
      if (kind == ScheduleLine::kMalformed) {
        std::string why;  // read again for it: no string on the hot path
        (void)readScheduleLine(line, entry, &why);
        fail(why);
      }
    }
    return false;
  }
  /// 1-based line of the entry next() returned last.
  [[nodiscard]] std::size_t lineno() const noexcept { return lines_.lineno(); }
  /// Throws "<source>: schedule parse error at line N: <why>".
  [[noreturn]] void fail(const std::string& why) const;

 private:
  text::LineReader lines_;
  std::string_view source_;
};

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
/// ParseError on a line that is no entry or an out-of-range node index.
/// The result may be partial; validate() reports unassigned nodes.
[[nodiscard]] Schedule parseScheduleString(std::string_view text,
                                           std::size_t nodeCount);
/// Lenient overload: out-of-range node indices are recorded in `issues`
/// and skipped instead of throwing.  Syntax errors still throw.  `source`
/// names the artifact: stamped on issues, prefixed to ParseError messages.
[[nodiscard]] Schedule parseScheduleString(
    std::string_view text, std::size_t nodeCount,
    std::vector<ScheduleParseIssue>& issues, const std::string& source = {});

}  // namespace locwm::sched
