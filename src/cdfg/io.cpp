#include "cdfg/io.h"

#include <sstream>
#include <vector>

#include "cdfg/text.h"
#include "obs/obs.h"

namespace locwm::cdfg {

void print(std::ostream& os, const Cdfg& g) {
  os << "cdfg v1\n";
  for (const NodeId v : g.allNodes()) {
    const Node& n = g.node(v);
    os << "node " << v.value() << ' ' << opName(n.kind);
    if (!n.name.empty()) {
      os << ' ' << n.name;
    }
    os << '\n';
  }
  for (const EdgeId e : g.allEdges()) {
    const Edge& ed = g.edge(e);
    os << "edge " << ed.src.value() << ' ' << ed.dst.value() << ' '
       << edgeKindName(ed.kind) << '\n';
  }
}

std::string printToString(const Cdfg& g) {
  std::ostringstream os;
  print(os, g);
  return os.str();
}

namespace {

Cdfg parseImpl(std::string_view text, std::vector<ParseIssue>* issues,
               const std::string& source = {}) {
  LOCWM_OBS_SPAN("cdfg.parse");
  Cdfg g;
  text::LineReader lines(text);
  std::string_view line;
  bool sawHeader = false;
  const std::string where = source.empty() ? "" : source + ": ";
  auto fail = [&](const std::string& why) -> void {
    throw ParseError(where + "cdfg parse error at line " +
                     std::to_string(lines.lineno()) + ": " + why);
  };
  while (lines.next(line)) {
    text::Fields ls(text::stripComment(line));
    std::string_view word;
    if (!(ls >> word)) {
      continue;  // blank
    }
    if (word == "cdfg") {
      std::string_view version;
      if (!(ls >> version) || version != "v1") {
        fail("unsupported version");
      }
      sawHeader = true;
    } else if (word == "node") {
      if (!sawHeader) {
        fail("missing 'cdfg v1' header");
      }
      std::uint32_t index = 0;
      std::string_view op;
      std::string_view label;
      if (!(ls >> index >> op)) {
        fail("malformed node line");
      }
      ls >> label;  // optional
      if (index != g.nodeCount()) {
        fail("node indices must be dense and ascending");
      }
      const auto kind = opFromName(op);
      if (!kind) {
        fail("unknown operation '" + std::string(op) + "'");
      }
      g.addNode(*kind, std::string(label));
    } else if (word == "edge") {
      if (!sawHeader) {
        fail("missing 'cdfg v1' header");
      }
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      std::string_view kindName;
      if (!(ls >> src >> dst >> kindName)) {
        fail("malformed edge line");
      }
      EdgeKind kind = EdgeKind::kData;
      if (kindName == "data") {
        kind = EdgeKind::kData;
      } else if (kindName == "control") {
        kind = EdgeKind::kControl;
      } else if (kindName == "temporal") {
        kind = EdgeKind::kTemporal;
      } else {
        fail("unknown edge kind '" + std::string(kindName) + "'");
      }
      const std::size_t lineno = lines.lineno();
      if (src >= g.nodeCount() || dst >= g.nodeCount()) {
        if (!issues) {
          fail("edge references undeclared node");
        }
        issues->push_back(
            {ParseIssue::Kind::kDanglingEdge, lineno, src, dst, kind,
             source});
        continue;
      }
      if (issues && src == dst) {
        issues->push_back(
            {ParseIssue::Kind::kSelfEdge, lineno, src, dst, kind, source});
        continue;
      }
      if (issues && kind == EdgeKind::kTemporal &&
          g.hasEdge(NodeId(src), NodeId(dst), EdgeKind::kTemporal)) {
        issues->push_back({ParseIssue::Kind::kDuplicateTemporal, lineno,
                           src, dst, kind, source});
        continue;
      }
      g.addEdge(NodeId(src), NodeId(dst), kind);
    } else {
      fail("unknown directive '" + std::string(word) + "'");
    }
  }
  if (!sawHeader) {
    throw ParseError(where + "cdfg parse error: empty input");
  }
  if (!issues) {
    g.checkAcyclic();
  } else {
    try {
      g.checkAcyclic();
    } catch (const GraphError&) {
      issues->push_back(
          {ParseIssue::Kind::kCycle, 0, 0, 0, EdgeKind::kData, source});
    }
  }
  return g;
}

}  // namespace

Cdfg parseString(std::string_view text) { return parseImpl(text, nullptr); }

Cdfg parseString(std::string_view text, std::vector<ParseIssue>& issues,
                 const std::string& source) {
  return parseImpl(text, &issues, source);
}

}  // namespace locwm::cdfg
