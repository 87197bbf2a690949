// Graph rules (LW1xx).  Structural invariants of the CDFG the whole
// watermarking protocol rests on: well-formed edges, acyclic dependence
// relation, meaningful temporal constraints, canonical identifiability.
#include <cstddef>
#include <string>
#include <vector>

#include "cdfg/analysis.h"
#include "cdfg/csr.h"
#include "cdfg/ordering.h"
#include "check/dataflow.h"
#include "check/internal.h"
#include "check/rules.h"

namespace locwm::check {
using cdfg::NodeId;
using detail::diag;

Report checkGraph(const cdfg::Cdfg& g,
                  const std::vector<cdfg::ParseIssue>& issues,
                  const std::string& artifact) {
  Report r;
  bool cyclic = false;

  // Violations the strict parser would have rejected, recorded by the
  // lenient parse.  The offending edges are *not* in the graph (except for
  // cycles, whose edges are kept so the cycle can be reported).
  for (const cdfg::ParseIssue& issue : issues) {
    const std::string loc = issue.line != 0
                                ? "line " + std::to_string(issue.line)
                                : std::string{};
    switch (issue.kind) {
      case cdfg::ParseIssue::Kind::kDanglingEdge:
        r.add(diag("LW101", Severity::kError, artifact, loc,
                   detail::edgeRef(issue.src, issue.dst, issue.edge_kind) +
                       " references an undeclared node",
                   "declare the node or fix the edge endpoints"));
        break;
      case cdfg::ParseIssue::Kind::kSelfEdge:
        r.add(diag("LW101", Severity::kError, artifact, loc,
                   detail::edgeRef(issue.src, issue.dst, issue.edge_kind) +
                       " is a self-loop",
                   "an operation cannot depend on itself"));
        break;
      case cdfg::ParseIssue::Kind::kDuplicateTemporal:
        r.add(diag("LW102", Severity::kError, artifact, loc,
                   detail::edgeRef(issue.src, issue.dst, issue.edge_kind) +
                       " duplicates an earlier temporal edge",
                   "watermark constraints form a set; drop the duplicate"));
        break;
      case cdfg::ParseIssue::Kind::kCycle:
        cyclic = true;
        r.add(diag("LW103", Severity::kError, artifact, loc,
                   "the dependence relation contains a cycle",
                   "no schedule can satisfy a cyclic precedence relation"));
        break;
    }
  }

  if (!cyclic) {
    try {
      g.checkAcyclic();
    } catch (const GraphError& e) {
      cyclic = true;
      r.add(diag("LW103", Severity::kError, artifact, {}, e.what(),
                 "no schedule can satisfy a cyclic precedence relation"));
    }
  }

  // LW104: a temporal edge whose precedence already follows from the
  // data/control structure constrains nothing — it either leaked from a
  // buggy embedder or was never a watermark bit to begin with (§IV-A picks
  // pairs with *overlapping* lifetimes precisely to avoid this).
  // A published design has no temporal edge and is not lowered.
  const std::vector<cdfg::EdgeId> temporal = g.temporalEdges();
  if (!temporal.empty()) {
    const cdfg::CsrView view(g);
    for (const cdfg::EdgeId te : temporal) {
      const cdfg::Edge& e = g.edge(te);
      if (hasPathSkipping(view, e.src, e.dst, te, EdgeMask::dataControl())) {
        r.add(diag("LW104", Severity::kWarning, artifact,
                   detail::edgeRef(e.src.value(), e.dst.value(), e.kind),
                   "temporal edge is implied by an existing data/control "
                   "path",
                   "the constraint is satisfied by every schedule and "
                   "carries no watermark information"));
      }
    }
  }

  // LW105: a real operation with no edges at all computes nothing anyone
  // consumes and is invisible to locality derivation.
  for (NodeId n : g.allNodes()) {
    if (!cdfg::isPseudoOp(g.node(n).kind) && g.inEdges(n).empty() &&
        g.outEdges(n).empty()) {
      r.add(diag("LW105", Severity::kWarning, artifact, detail::nodeRef(g, n),
                 "real operation is disconnected from the computation",
                 "orphan operations cannot participate in any locality"));
    }
  }

  // LW106: automorphic real operations cannot receive a unique canonical
  // rank, so no locality can contain them (§IV-A criteria C1-C3 exhausted).
  // Informational: many legitimate designs have symmetric fragments.
  if (!cyclic) {
    std::vector<NodeId> real;
    for (NodeId n : g.allNodes()) {
      if (!cdfg::isPseudoOp(g.node(n).kind)) {
        real.push_back(n);
      }
    }
    if (!real.empty()) {
      const cdfg::StructuralAnalysis analysis(g);
      const cdfg::NodeOrdering ordering = cdfg::computeOrdering(analysis, real);
      if (!ordering.unique) {
        std::size_t tied = 0;
        for (std::size_t i = 0; i < ordering.ranks.size();) {
          std::size_t j = i;
          while (j + 1 < ordering.ranks.size() &&
                 ordering.ranks[j + 1] == ordering.ranks[i]) {
            ++j;
          }
          if (j > i) {
            tied += j - i + 1;
          }
          i = j + 1;
        }
        r.add(diag("LW106", Severity::kInfo, artifact, {},
                   std::to_string(tied) +
                       " real operation(s) are automorphic (no unique "
                       "canonical rank)",
                   "automorphic operations are invisible to watermark "
                   "localities; consider whether the symmetry is intended"));
      }
    }
  }

  return r;
}

}  // namespace locwm::check
