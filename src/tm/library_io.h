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

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

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
