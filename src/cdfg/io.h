// Plain-text serialization of CDFGs.
//
// Format (line oriented, '#' comments):
//
//   cdfg v1
//   node <index> <opname> [label]
//   edge <src-index> <dst-index> <data|control|temporal>
//
// Node indices must be dense and ascending.  The format round-trips
// exactly: parseString(printToString(g)) is structurally identical to g.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"

namespace locwm::cdfg {

/// Writes `g` in the text format described above.
void print(std::ostream& os, const Cdfg& g);

/// Renders `g` to a string.
[[nodiscard]] std::string printToString(const Cdfg& g);

/// One structural problem found while parsing in lenient mode (see the
/// lenient parseString() overload).  The offending edge is dropped and
/// parsing continues, so a linter can report every problem with a stable
/// diagnostic code instead of stopping at the first.
struct ParseIssue {
  enum class Kind : std::uint8_t {
    kDanglingEdge,       ///< edge endpoint is not a declared node
    kSelfEdge,           ///< edge with src == dst
    kDuplicateTemporal,  ///< the same temporal edge listed twice
    kCycle,              ///< dependence cycle (all edges are kept)
  };
  Kind kind = Kind::kDanglingEdge;
  std::size_t line = 0;  ///< 1-based source line (0 for kCycle)
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  EdgeKind edge_kind = EdgeKind::kData;
  /// Source artifact the issue was found in (the `source` argument of the
  /// lenient parse; empty when parsing anonymous text).  Carried on the
  /// issue itself so multi-file consumers — project lint, corpus scan —
  /// stay attributable without a side table.
  std::string path;
};

/// Parses a graph from the text format.  Throws ParseError on malformed
/// input.
[[nodiscard]] Cdfg parseString(std::string_view text);

/// Lenient parse for static analysis: structural violations (dangling or
/// self edges, duplicate temporal edges, cycles) are recorded in `issues`
/// instead of throwing; offending edges are dropped, cyclic edge sets are
/// kept.  Syntax errors still throw ParseError.  `source` names the
/// artifact being parsed: it is stamped on every recorded issue and
/// prefixed to thrown ParseError messages.
[[nodiscard]] Cdfg parseString(std::string_view text,
                               std::vector<ParseIssue>& issues,
                               const std::string& source = {});

}  // namespace locwm::cdfg
