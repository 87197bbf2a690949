#include "check/differ.h"

#include <algorithm>
#include <array>
#include <optional>
#include <tuple>

#include "cdfg/analysis.h"
#include "cdfg/operation.h"
#include "cdfg/ordering.h"
#include "check/internal.h"

namespace locwm::check {
namespace {

using cdfg::EdgeId;
using cdfg::NodeId;
using detail::diag;

using EdgeTriple = std::tuple<std::uint32_t, std::uint32_t, cdfg::EdgeKind>;

/// Data/control edges of `g` as sorted (src, dst, kind) triples, with node
/// ids translated through `map` (original -> marked) when given.
std::vector<EdgeTriple> coreEdges(const cdfg::Cdfg& g,
                                  const std::vector<NodeId>* map) {
  std::vector<EdgeTriple> out;
  out.reserve(g.edgeCount());
  const std::size_t table = g.edgeTableSize();
  for (std::size_t id = 0; id < table; ++id) {
    if (!g.edgeAlive(EdgeId(static_cast<std::uint32_t>(id)))) {
      continue;
    }
    const cdfg::Edge& ed = g.edge(EdgeId(static_cast<std::uint32_t>(id)));
    if (ed.kind == cdfg::EdgeKind::kTemporal) {
      continue;
    }
    const std::uint32_t s =
        map != nullptr ? (*map)[ed.src.value()].value() : ed.src.value();
    const std::uint32_t d =
        map != nullptr ? (*map)[ed.dst.value()].value() : ed.dst.value();
    out.emplace_back(s, d, ed.kind);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// original -> marked node mapping by canonical rank, when both designs
/// order uniquely and the rank-aligned kinds agree.  This re-aligns a
/// re-indexed copy of the same design; symmetric designs (non-unique
/// ordering) fall back to identity.
std::optional<std::vector<NodeId>> canonicalMapping(
    const cdfg::Cdfg& original, const cdfg::Cdfg& marked) {
  const cdfg::StructuralAnalysis oa(original);
  const cdfg::StructuralAnalysis ma(marked);
  const cdfg::NodeOrdering oo = cdfg::computeOrdering(oa);
  const cdfg::NodeOrdering mo = cdfg::computeOrdering(ma);
  if (!oo.unique || !mo.unique ||
      oo.ordered.size() != mo.ordered.size()) {
    return std::nullopt;
  }
  std::vector<NodeId> map(original.nodeCount(), NodeId::invalid());
  for (std::size_t i = 0; i < oo.ordered.size(); ++i) {
    if (original.node(oo.ordered[i]).kind != marked.node(mo.ordered[i]).kind) {
      return std::nullopt;
    }
    map[oo.ordered[i].value()] = mo.ordered[i];
  }
  return map;
}

/// "+2 add, -1 mul" — the per-kind node histogram delta.
std::string histogramDelta(const cdfg::Cdfg& original,
                           const cdfg::Cdfg& marked) {
  std::array<int, cdfg::kOpKindCount> delta{};
  for (const cdfg::Node& n : marked.nodes()) {
    ++delta[static_cast<std::size_t>(n.kind)];
  }
  for (const cdfg::Node& n : original.nodes()) {
    --delta[static_cast<std::size_t>(n.kind)];
  }
  std::string out;
  for (std::size_t k = 0; k < delta.size(); ++k) {
    if (delta[k] == 0) {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += (delta[k] > 0 ? "+" : "") + std::to_string(delta[k]) + " " +
           std::string(cdfg::opName(static_cast<cdfg::OpKind>(k)));
  }
  return out.empty() ? "same kind histogram (nodes re-kinded)" : out;
}

// -------------------------------------------------------------------------
// Constraint-anchored shape matcher

struct ShapeMatcher {
  const cdfg::Cdfg& design;
  const cdfg::Cdfg& shape;
  const std::vector<std::pair<NodeId, NodeId>>& anchors;
  const std::vector<wm::RankConstraint>& constraints;
  std::vector<NodeId> phi;        // rank -> design node
  std::vector<char> used;         // design node already in the image
  std::vector<char> anchor_used;  // anchor consumed by a constraint
  std::size_t steps = 0;
  std::size_t budget;

  ShapeMatcher(const cdfg::Cdfg& d, const cdfg::Cdfg& s,
               const std::vector<std::pair<NodeId, NodeId>>& a,
               const std::vector<wm::RankConstraint>& c, std::size_t b)
      : design(d),
        shape(s),
        anchors(a),
        constraints(c),
        phi(s.nodeCount(), NodeId::invalid()),
        used(d.nodeCount(), 0),
        anchor_used(a.size(), 0),
        budget(b) {}

  /// 0 = conflict, 1 = newly bound, 2 = already bound to exactly `node`.
  int tryBind(std::uint32_t rank, NodeId node) {
    if (rank >= phi.size()) {
      return 0;
    }
    if (phi[rank].isValid()) {
      return phi[rank] == node ? 2 : 0;
    }
    if (used[node.value()] != 0 ||
        shape.node(NodeId(rank)).kind != design.node(node).kind) {
      return 0;
    }
    phi[rank] = node;
    used[node.value()] = 1;
    return 1;
  }

  void unbind(std::uint32_t rank) {
    used[phi[rank].value()] = 0;
    phi[rank] = NodeId::invalid();
  }

  bool spent() { return ++steps > budget; }

  bool assignConstraints(std::size_t ci) {
    if (ci == constraints.size()) {
      return extendMapping();
    }
    const wm::RankConstraint& c = constraints[ci];
    for (std::size_t ai = 0; ai < anchors.size(); ++ai) {
      if (anchor_used[ai] != 0 || spent()) {
        continue;
      }
      const int b1 = tryBind(c.before_rank, anchors[ai].first);
      if (b1 == 0) {
        continue;
      }
      const int b2 = tryBind(c.after_rank, anchors[ai].second);
      if (b2 != 0) {
        anchor_used[ai] = 1;
        if (assignConstraints(ci + 1)) {
          return true;
        }
        anchor_used[ai] = 0;
        if (b2 == 1) {
          unbind(c.after_rank);
        }
      }
      if (b1 == 1) {
        unbind(c.before_rank);
      }
    }
    return false;
  }

  bool extendMapping() {
    // Next unmapped shape node adjacent to a mapped one; the shape is
    // root-connected (LW504), so one always exists while any remain.
    for (const EdgeId e : shape.allEdges()) {
      const cdfg::Edge& ed = shape.edge(e);
      const bool src_mapped = phi[ed.src.value()].isValid();
      const bool dst_mapped = phi[ed.dst.value()].isValid();
      if (src_mapped == dst_mapped) {
        continue;
      }
      const std::uint32_t grow = src_mapped ? ed.dst.value() : ed.src.value();
      const NodeId mapped_peer = src_mapped ? phi[ed.src.value()]
                                            : phi[ed.dst.value()];
      // Candidates: design neighbours of the mapped peer on the same side
      // of a same-kind edge.
      const auto& candidate_edges =
          src_mapped ? design.outEdges(mapped_peer)
                     : design.inEdges(mapped_peer);
      for (const EdgeId ce : candidate_edges) {
        const cdfg::Edge& ced = design.edge(ce);
        if (ced.kind != ed.kind) {
          continue;
        }
        const NodeId candidate = src_mapped ? ced.dst : ced.src;
        if (spent()) {
          return false;
        }
        if (tryBind(grow, candidate) == 1) {
          if (extendMapping()) {
            return true;
          }
          unbind(grow);
        }
      }
      return false;  // this node must be mappable; backtrack
    }
    for (const NodeId n : shape.allNodes()) {
      if (!phi[n.value()].isValid()) {
        return false;  // disconnected shape remainder — cannot locate it
      }
    }
    return verify();
  }

  /// Induced exactness: the design's data/control edges among the image
  /// are exactly the shape's edges (multiset, in rank coordinates).
  bool verify() {
    std::vector<EdgeTriple> want;
    want.reserve(shape.edgeCount());
    for (const EdgeId e : shape.allEdges()) {
      const cdfg::Edge& ed = shape.edge(e);
      if (ed.kind == cdfg::EdgeKind::kTemporal) {
        return false;  // malformed shape (LW504)
      }
      want.emplace_back(ed.src.value(), ed.dst.value(), ed.kind);
    }
    std::vector<std::uint32_t> rank_of(design.nodeCount(), 0);
    for (std::size_t rank = 0; rank < phi.size(); ++rank) {
      rank_of[phi[rank].value()] = static_cast<std::uint32_t>(rank);
    }
    std::vector<EdgeTriple> have;
    for (std::size_t rank = 0; rank < phi.size(); ++rank) {
      for (const EdgeId e : design.outEdges(phi[rank])) {
        const cdfg::Edge& ed = design.edge(e);
        if (ed.kind == cdfg::EdgeKind::kTemporal ||
            used[ed.dst.value()] == 0) {
          continue;
        }
        have.emplace_back(static_cast<std::uint32_t>(rank),
                          rank_of[ed.dst.value()], ed.kind);
      }
    }
    std::sort(want.begin(), want.end());
    std::sort(have.begin(), have.end());
    return want == have;
  }
};

}  // namespace

std::vector<std::pair<NodeId, NodeId>> temporalAnchors(
    const cdfg::Cdfg& design) {
  std::vector<std::pair<NodeId, NodeId>> anchors;
  for (const cdfg::EdgeId e : design.temporalEdges()) {
    const cdfg::Edge& ed = design.edge(e);
    anchors.emplace_back(ed.src, ed.dst);
  }
  return anchors;
}

ShapeMatch matchCertificateShape(
    const cdfg::Cdfg& design,
    const std::vector<std::pair<NodeId, NodeId>>& anchors,
    const wm::WatermarkCertificate& cert, std::size_t budget) {
  ShapeMatch result;
  if (cert.shape.nodeCount() == 0 || cert.constraints.empty() ||
      anchors.empty()) {
    return result;
  }
  ShapeMatcher matcher(design, cert.shape, anchors, cert.constraints, budget);
  if (matcher.assignConstraints(0)) {
    result.matched = true;
    result.nodes = std::move(matcher.phi);
  }
  return result;
}

DiffResult diffDesigns(const cdfg::Cdfg& original, const cdfg::Cdfg& marked,
                       const std::vector<wm::WatermarkCertificate>& certs,
                       const std::string& original_name,
                       const std::string& marked_name) {
  DiffResult res;
  Report& r = res.report;

  if (original.nodeCount() != marked.nodeCount()) {
    r.add(diag("LW701", Severity::kError, marked_name, {},
               "operation sets differ: " + original_name + " has " +
                   std::to_string(original.nodeCount()) + " nodes, marked " +
                   std::to_string(marked.nodeCount()) + " (" +
                   histogramDelta(original, marked) + ")",
               "adding or deleting operations is tampering; a watermark "
               "only adds temporal edges"));
    return res;
  }
  const std::size_t n = original.nodeCount();

  // Pick the node mapping: identity when per-id kinds agree and it leaves
  // no core delta; otherwise a canonical re-alignment (re-indexed copy);
  // otherwise whichever is available, reporting its deltas.
  bool kinds_identical = true;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id(static_cast<std::uint32_t>(i));
    kinds_identical &= original.node(id).kind == marked.node(id).kind;
  }
  std::vector<NodeId> identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    identity[i] = NodeId(static_cast<std::uint32_t>(i));
  }

  const std::vector<EdgeTriple> marked_core = coreEdges(marked, nullptr);
  auto deltaFor = [&](const std::vector<NodeId>& m,
                      std::vector<EdgeTriple>& missing,
                      std::vector<EdgeTriple>& extra) {
    const std::vector<EdgeTriple> orig_core = coreEdges(original, &m);
    std::set_difference(orig_core.begin(), orig_core.end(),
                        marked_core.begin(), marked_core.end(),
                        std::back_inserter(missing));
    std::set_difference(marked_core.begin(), marked_core.end(),
                        orig_core.begin(), orig_core.end(),
                        std::back_inserter(extra));
    return missing.empty() && extra.empty();
  };

  std::optional<std::vector<NodeId>> mapping;
  std::vector<EdgeTriple> missing;
  std::vector<EdgeTriple> extra;
  if (kinds_identical && deltaFor(identity, missing, extra)) {
    mapping = identity;
  }
  if (!mapping) {
    if (const auto canonical = canonicalMapping(original, marked)) {
      std::vector<EdgeTriple> cmissing;
      std::vector<EdgeTriple> cextra;
      if (deltaFor(*canonical, cmissing, cextra)) {
        mapping = canonical;
        missing.clear();
        extra.clear();
      } else if (!kinds_identical) {
        mapping = canonical;
        missing = std::move(cmissing);
        extra = std::move(cextra);
      }
    }
  }
  if (!mapping) {
    if (!kinds_identical) {
      for (std::size_t i = 0; i < n; ++i) {
        const NodeId id(static_cast<std::uint32_t>(i));
        if (original.node(id).kind != marked.node(id).kind) {
          r.add(diag("LW702", Severity::kError, marked_name,
                     detail::nodeRef(marked, id),
                     "operation kind changed (original: " +
                         std::string(cdfg::opName(original.node(id).kind)) +
                         ")",
                     "re-kinding an operation is tampering and breaks "
                     "canonical identification"));
        }
      }
      return res;
    }
    mapping = identity;  // report the identity-based deltas below
  }

  res.identical_core = missing.empty() && extra.empty();
  for (const auto& [s, d, kind] : missing) {
    r.add(diag("LW703", Severity::kError, marked_name,
               detail::edgeRef(s, d, kind),
               "data/control edge of the original is missing from the "
               "marked design",
               "deleted or redirected dependence (attack kinds "
               "delete-data-edge / redirect-edge)"));
  }
  for (const auto& [s, d, kind] : extra) {
    r.add(diag("LW703", Severity::kError, marked_name,
               detail::edgeRef(s, d, kind),
               "data/control edge is not present in the original design",
               "added or redirected dependence (attack kinds "
               "add-data-edge / redirect-edge)"));
  }

  // Temporal superset: every original temporal edge must survive.
  const std::vector<NodeId>& m = *mapping;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> original_temporal;
  for (const EdgeId e : original.temporalEdges()) {
    const cdfg::Edge& ed = original.edge(e);
    const NodeId ms = m[ed.src.value()];
    const NodeId md = m[ed.dst.value()];
    original_temporal.emplace_back(ms.value(), md.value());
    if (!marked.hasEdge(ms, md, cdfg::EdgeKind::kTemporal)) {
      r.add(diag("LW704", Severity::kError, marked_name,
                 detail::edgeRef(ms.value(), md.value(),
                                 cdfg::EdgeKind::kTemporal),
                 "temporal edge of the original is missing from the marked "
                 "design",
                 "the marked design must be a temporal-edge superset of "
                 "the original"));
    }
  }
  std::sort(original_temporal.begin(), original_temporal.end());

  for (const EdgeId e : marked.temporalEdges()) {
    const cdfg::Edge& ed = marked.edge(e);
    const std::pair<std::uint32_t, std::uint32_t> key{ed.src.value(),
                                                      ed.dst.value()};
    if (!std::binary_search(original_temporal.begin(),
                            original_temporal.end(), key)) {
      res.extra_temporal.push_back({ed.src, ed.dst, false, 0});
    }
  }

  // Certificate attribution: each certificate must locate its shape with
  // the constraints landing on extra temporal edges.
  std::vector<std::pair<NodeId, NodeId>> anchors;
  anchors.reserve(res.extra_temporal.size());
  for (const ExtraTemporalEdge& e : res.extra_temporal) {
    anchors.emplace_back(e.src, e.dst);
  }

  for (std::size_t ci = 0; ci < certs.size(); ++ci) {
    const wm::WatermarkCertificate& cert = certs[ci];
    if (cert.constraints.empty()) {
      continue;
    }
    const ShapeMatch match = matchCertificateShape(marked, anchors, cert);
    if (!match.matched) {
      r.add(diag("LW707", Severity::kError, marked_name,
                 "certificate " + std::to_string(ci),
                 "certificate explains no watermark: its shape and "
                 "constraints match nothing in the marked design",
                 "the watermark edges were removed or altered, or the "
                 "certificate belongs to a different design"));
      continue;
    }
    for (const wm::RankConstraint& c : cert.constraints) {
      const NodeId a = match.nodes[c.before_rank];
      const NodeId b = match.nodes[c.after_rank];
      for (ExtraTemporalEdge& e : res.extra_temporal) {
        if (e.src == a && e.dst == b && !e.explained) {
          e.explained = true;
          e.certificate = ci;
          break;
        }
      }
    }
  }

  for (const ExtraTemporalEdge& e : res.extra_temporal) {
    if (e.explained) {
      ++res.explained;
      r.add(diag("LW706", Severity::kInfo, marked_name,
                 detail::edgeRef(e.src.value(), e.dst.value(),
                                 cdfg::EdgeKind::kTemporal),
                 "watermark temporal edge (explained by certificate " +
                     std::to_string(e.certificate) + ")",
                 {}));
    } else if (certs.empty()) {
      r.add(diag("LW706", Severity::kInfo, marked_name,
                 detail::edgeRef(e.src.value(), e.dst.value(),
                                 cdfg::EdgeKind::kTemporal),
                 "temporal edge present only in the marked design (no "
                 "certificates supplied to attribute it)",
                 {}));
    } else {
      r.add(diag("LW705", Severity::kError, marked_name,
                 detail::edgeRef(e.src.value(), e.dst.value(),
                                 cdfg::EdgeKind::kTemporal),
                 "temporal edge is explained by no supplied certificate",
                 "an unattributed constraint is tampering (attack kind "
                 "add-temporal-edge) or a missing certificate"));
    }
  }
  return res;
}

}  // namespace locwm::check
