// Shared helpers of the rule implementations.  Internal to src/check.
#pragma once

#include <string>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "check/diagnostics.h"

namespace locwm::check::detail {

/// "node 7 (add 'A5')" — node reference with kind and label when present.
inline std::string nodeRef(const cdfg::Cdfg& g, cdfg::NodeId n) {
  const cdfg::Node& node = g.node(n);
  std::string out = "node " + std::to_string(n.value()) + " (" +
                    std::string(cdfg::opName(node.kind));
  if (!node.name.empty()) {
    out += " '" + node.name + "'";
  }
  out += ')';
  return out;
}

/// "edge 3->7 (temporal)".
inline std::string edgeRef(std::uint32_t src, std::uint32_t dst,
                           cdfg::EdgeKind kind) {
  return "edge " + std::to_string(src) + "->" + std::to_string(dst) + " (" +
         std::string(cdfg::edgeKindName(kind)) + ")";
}

/// Builds a Diagnostic in one expression.
inline Diagnostic diag(std::string code, Severity severity,
                       const std::string& artifact, std::string location,
                       std::string message, std::string hint = {}) {
  Diagnostic d;
  d.code = std::move(code);
  d.severity = severity;
  d.artifact = artifact;
  d.location = std::move(location);
  d.message = std::move(message);
  d.hint = std::move(hint);
  return d;
}

/// True for operations whose effect escapes the dataflow graph — they are
/// live even without a path to a primary output.
inline bool isSideEffecting(cdfg::OpKind kind) noexcept {
  return kind == cdfg::OpKind::kStore || kind == cdfg::OpKind::kBranch;
}

// LW6xx diagnostic builders, shared between the one-shot semantic pass
// (rules_semantic.cpp) and the incremental engine (incremental.cpp).  The
// byte-identical-report guarantee of the incremental engine depends on
// both sides emitting exactly these strings.

inline Diagnostic lw601Diag(const std::string& artifact, const cdfg::Edge& e) {
  return diag("LW601", Severity::kWarning, artifact,
              edgeRef(e.src.value(), e.dst.value(), e.kind),
              "temporal edge is implied by the transitive precedence of "
              "the remaining constraints",
              "a redundant constraint inflates the claimed Pc without "
              "adding evidence; re-embed without it");
}

/// LW601's verdict per edge of `temporal` (temporal edges of `g`, lowered
/// as `view`, acyclic with topological order `order` over every kind): 1
/// when a path over every edge kind that skips the edge orders its
/// endpoints, but no data/control path does (that is LW104's finding).
/// Two batched path queries (rules_semantic.cpp).
[[nodiscard]] std::vector<char> lw601Verdicts(
    const cdfg::Cdfg& g, const cdfg::CsrView& view,
    const std::vector<cdfg::NodeId>& order,
    const std::vector<cdfg::EdgeId>& temporal);

inline Diagnostic lw602Diag(const std::string& artifact, const cdfg::Edge& e,
                            std::uint32_t critical) {
  return diag("LW602", Severity::kInfo, artifact,
              edgeRef(e.src.value(), e.dst.value(), e.kind),
              "temporal edge stretches the dependence-only critical path "
              "(" + std::to_string(critical) + " steps)",
              "zero-slack constraints cost latency and are easy to spot; "
              "prefer pairs with overlapping lifetimes");
}

inline Diagnostic lw603Diag(const std::string& artifact, const cdfg::Cdfg& g,
                            cdfg::NodeId n) {
  return diag("LW603", Severity::kWarning, artifact, nodeRef(g, n),
              "operation is dead: no output or side effect consumes it",
              "dead operations dilute localities and survive no "
              "optimizing re-synthesis");
}

inline Diagnostic lw604Diag(const std::string& artifact, const cdfg::Cdfg& g,
                            cdfg::NodeId n) {
  return diag("LW604", Severity::kWarning, artifact, nodeRef(g, n),
              "operation is unreachable: no input or constant feeds it",
              "an operation without producers computes an undefined "
              "value");
}

}  // namespace locwm::check::detail
