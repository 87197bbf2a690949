// Text serialization of template libraries and covers.
//
// Library format (line oriented, '#' comments):
//
//   tmlib v1
//   template <name>
//     op <index> <opname> [child-index ...]
//   end
//
// Cover format (one matching per line):
//
//   tmcover v1
//   use <template-id> <node>:<op> ...
//   single <node>
//
// Both round-trip exactly.  Malformed input throws ParseError.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/text.h"
#include "tm/matching.h"
#include "tm/template.h"

namespace locwm::tm {

/// Writes `lib` in the text format.
void printLibrary(std::ostream& os, const TemplateLibrary& lib);
[[nodiscard]] std::string libraryToString(const TemplateLibrary& lib);

/// Parses a template library.
[[nodiscard]] TemplateLibrary parseLibraryString(std::string_view text);

/// Writes a cover (a list of matchings, trivial singletons included).
void printCover(std::ostream& os, const std::vector<Matching>& cover);
[[nodiscard]] std::string coverToString(const std::vector<Matching>& cover);

/// One entry line of a cover, syntax-checked but not yet checked against
/// a design or a library.
struct CoverEntry {
  bool single = false;  ///< "single <node>"; else "use <template> <pairs>"
  std::uint32_t template_id = 0;  ///< "use" only
  std::vector<MatchPair> pairs;   ///< "single": one pair, {node, 0}
  std::vector<std::string_view> words;  ///< the "use" pairs as written
};

/// The one syntax walk over a cover, shared by the parsers and the
/// workspace analyzer: checks the "tmcover v1" header and yields the entry
/// lines in order, throwing ParseError at the first syntax error (a pair's
/// sides are whole numbers, text::numberPair).  Template ids, ops and
/// nodes are the caller's to range-check.  `text` must outlive the reader
/// and the entries' words.
class CoverReader {
 public:
  explicit CoverReader(std::string_view text) noexcept : lines_(text) {}

  /// Stores the next entry in `entry`, reusing its storage; false at the
  /// end of the text.
  bool next(CoverEntry& entry);
  /// 1-based line of the entry next() returned last.
  [[nodiscard]] std::size_t lineno() const noexcept { return lines_.lineno(); }

 private:
  text::LineReader lines_;
  bool header_ = false;
};

/// One invalid cover entry found while parsing in lenient mode: the entry
/// is dropped and recorded so a linter can report it with a stable code.
struct CoverParseIssue {
  std::size_t line = 0;  ///< 1-based source line
  std::string what;      ///< human-readable reason
  std::string path;      ///< source artifact ("" when anonymous)
};

/// Parses a cover for a design with `nodeCount` nodes against `lib`
/// (template ids and op indices are validated).
[[nodiscard]] std::vector<Matching> parseCoverString(
    std::string_view text, const TemplateLibrary& lib, std::size_t nodeCount);
/// Lenient overload: entries referencing unknown templates, out-of-range
/// template ops, or nodes outside the design are recorded in `issues` and
/// skipped instead of throwing.  Syntax errors still throw.
[[nodiscard]] std::vector<Matching> parseCoverString(
    std::string_view text, const TemplateLibrary& lib, std::size_t nodeCount,
    std::vector<CoverParseIssue>& issues, const std::string& source = {});

}  // namespace locwm::tm
