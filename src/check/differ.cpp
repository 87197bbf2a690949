#include "check/differ.h"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <tuple>

#include "cdfg/analysis.h"
#include "cdfg/error.h"
#include "cdfg/operation.h"
#include "cdfg/ordering.h"
#include "check/internal.h"
#include "core/certificate_io.h"
#include "crypto/sha256.h"

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

// -------------------------------------------------------------------------
// Resume support

/// SHA-256 hex over everything certificate attribution reads from the two
/// designs: the original in full and the marked design's data/control
/// side.  The marked temporal edges are deliberately excluded — appending
/// watermark edges is exactly the delta resume must survive.
std::string designDigestHex(const cdfg::Cdfg& original,
                            const cdfg::Cdfg& marked) {
  crypto::Sha256 h;
  const auto feed = [&h](const cdfg::Cdfg& g, bool include_temporal) {
    std::string text = "design " + std::to_string(g.nodeCount()) + "\n";
    for (const NodeId n : g.allNodes()) {
      text += g.nodeAlive(n) ? cdfg::opName(g.node(n).kind) : "<dead>";
      text += '\n';
    }
    const std::size_t table = g.edgeTableSize();
    for (std::size_t id = 0; id < table; ++id) {
      const EdgeId e(static_cast<std::uint32_t>(id));
      if (!g.edgeAlive(e)) {
        continue;
      }
      const cdfg::Edge& ed = g.edge(e);
      if (!include_temporal && ed.kind == cdfg::EdgeKind::kTemporal) {
        continue;
      }
      text += std::to_string(ed.src.value()) + ' ' +
              std::to_string(ed.dst.value()) + ' ' +
              std::to_string(static_cast<int>(ed.kind)) + '\n';
    }
    h.update(text);
  };
  feed(original, true);
  feed(marked, false);
  return crypto::toHex(h.finish());
}

std::string certDigestHex(const wm::WatermarkCertificate& cert) {
  return crypto::sha256Hex(wm::certificateToString(cert));
}

/// Re-checks a stored witness against the current design: kind-exact,
/// injective, constraints landing on distinct anchors, induced-exact —
/// the same acceptance conditions ShapeMatcher enforces, without the
/// search.  O(shape + incident edges).
bool validateWitness(const cdfg::Cdfg& design,
                     const std::vector<std::pair<NodeId, NodeId>>& anchors,
                     const wm::WatermarkCertificate& cert,
                     const std::vector<NodeId>& phi) {
  const cdfg::Cdfg& shape = cert.shape;
  if (phi.size() != shape.nodeCount()) {
    return false;
  }
  std::vector<char> used(design.nodeCount(), 0);
  for (std::size_t rank = 0; rank < phi.size(); ++rank) {
    const NodeId n = phi[rank];
    if (!n.isValid() || n.value() >= design.nodeCount() ||
        !design.nodeAlive(n) || used[n.value()] != 0 ||
        shape.node(NodeId(static_cast<std::uint32_t>(rank))).kind !=
            design.node(n).kind) {
      return false;
    }
    used[n.value()] = 1;
  }
  std::vector<char> anchor_used(anchors.size(), 0);
  for (const wm::RankConstraint& c : cert.constraints) {
    if (c.before_rank >= phi.size() || c.after_rank >= phi.size()) {
      return false;
    }
    const NodeId a = phi[c.before_rank];
    const NodeId b = phi[c.after_rank];
    bool found = false;
    for (std::size_t ai = 0; ai < anchors.size(); ++ai) {
      if (anchor_used[ai] == 0 && anchors[ai].first == a &&
          anchors[ai].second == b) {
        anchor_used[ai] = 1;
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  // Induced exactness, as ShapeMatcher::verify.
  std::vector<EdgeTriple> want;
  want.reserve(shape.edgeCount());
  for (const EdgeId e : shape.allEdges()) {
    const cdfg::Edge& ed = shape.edge(e);
    if (ed.kind == cdfg::EdgeKind::kTemporal) {
      return false;
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
      if (ed.kind == cdfg::EdgeKind::kTemporal || used[ed.dst.value()] == 0) {
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

DiffResult diffImpl(const cdfg::Cdfg& original, const cdfg::Cdfg& marked,
                    const std::vector<wm::WatermarkCertificate>& certs,
                    const DiffResumeState* prior, DiffResumeState* next,
                    const std::string& original_name,
                    const std::string& marked_name);

}  // namespace

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

namespace {

DiffResult diffImpl(const cdfg::Cdfg& original, const cdfg::Cdfg& marked,
                    const std::vector<wm::WatermarkCertificate>& certs,
                    const DiffResumeState* prior, DiffResumeState* next,
                    const std::string& original_name,
                    const std::string& marked_name) {
  DiffResult res;
  Report& r = res.report;
  if (next != nullptr) {
    *next = DiffResumeState{};
  }

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

  // Fingerprints of this run's attribution inputs — compared against
  // `prior` and recorded into `next`.  Skipped entirely for plain diffs.
  std::string core_digest;
  std::vector<std::string> cert_digests;
  if (prior != nullptr || next != nullptr) {
    core_digest = designDigestHex(original, marked);
    cert_digests.reserve(certs.size());
    for (const wm::WatermarkCertificate& cert : certs) {
      cert_digests.push_back(certDigestHex(cert));
    }
  }
  bool resumed = false;
  std::size_t prior_anchor_count = 0;
  if (prior != nullptr && prior->core_digest == core_digest &&
      prior->extra.size() <= res.extra_temporal.size() &&
      prior->certs.size() <= certs.size()) {
    resumed = true;
    for (std::size_t i = 0; i < prior->extra.size(); ++i) {
      resumed = resumed &&
                prior->extra[i].first == res.extra_temporal[i].src.value() &&
                prior->extra[i].second == res.extra_temporal[i].dst.value();
    }
    for (std::size_t i = 0; i < prior->certs.size(); ++i) {
      resumed = resumed && prior->certs[i].digest == cert_digests[i];
    }
    prior_anchor_count = prior->extra.size();
  }
  res.resumed = resumed;
  if (next != nullptr) {
    next->core_digest = core_digest;
    next->extra.reserve(res.extra_temporal.size());
    for (const ExtraTemporalEdge& e : res.extra_temporal) {
      next->extra.emplace_back(e.src.value(), e.dst.value());
    }
  }

  for (std::size_t ci = 0; ci < certs.size(); ++ci) {
    const wm::WatermarkCertificate& cert = certs[ci];
    if (cert.constraints.empty()) {
      if (next != nullptr) {
        next->certs.push_back({cert_digests[ci], false, {}});
      }
      continue;
    }
    ShapeMatch match;
    bool outcome_known = false;
    if (resumed && ci < prior->certs.size()) {
      const CertResumeEntry& entry = prior->certs[ci];
      if (entry.matched &&
          validateWitness(marked, anchors, cert, entry.nodes)) {
        match.matched = true;
        match.nodes = entry.nodes;
        outcome_known = true;
        ++res.certs_reused;
      } else if (!entry.matched && anchors.size() == prior_anchor_count) {
        // The matcher reads only the marked core, the anchors, and the
        // certificate — all digest-checked and unchanged — so the prior
        // failed search would fail identically.
        outcome_known = true;
        ++res.certs_reused;
      }
    }
    if (!outcome_known) {
      match = matchCertificateShape(marked, anchors, cert);
      ++res.certs_matched;
    }
    if (next != nullptr) {
      next->certs.push_back({cert_digests[ci], match.matched, match.nodes});
    }
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

}  // namespace

DiffResult diffDesigns(const cdfg::Cdfg& original, const cdfg::Cdfg& marked,
                       const std::vector<wm::WatermarkCertificate>& certs,
                       const std::string& original_name,
                       const std::string& marked_name) {
  return diffImpl(original, marked, certs, nullptr, nullptr, original_name,
                  marked_name);
}

DiffResult resumeDiff(const cdfg::Cdfg& original, const cdfg::Cdfg& marked,
                      const std::vector<wm::WatermarkCertificate>& certs,
                      const DiffResumeState* prior, DiffResumeState* next,
                      const std::string& original_name,
                      const std::string& marked_name) {
  return diffImpl(original, marked, certs, prior, next, original_name,
                  marked_name);
}

std::string diffStateToString(const DiffResumeState& state) {
  std::string out = "locwm-diffstate v1\n";
  out += "core " + (state.core_digest.empty() ? "-" : state.core_digest) +
         "\n";
  out += "extra " + std::to_string(state.extra.size()) + "\n";
  for (const auto& [src, dst] : state.extra) {
    out += "e " + std::to_string(src) + ' ' + std::to_string(dst) + '\n';
  }
  out += "certs " + std::to_string(state.certs.size()) + "\n";
  for (const CertResumeEntry& entry : state.certs) {
    out += "cert " + (entry.digest.empty() ? "-" : entry.digest) +
           (entry.matched ? " 1 " : " 0 ") +
           std::to_string(entry.nodes.size());
    for (const cdfg::NodeId n : entry.nodes) {
      out += ' ' + std::to_string(n.value());
    }
    out += '\n';
  }
  return out;
}

DiffResumeState parseDiffState(const std::string& text) {
  const auto fail = [](const std::string& why) -> void {
    throw ParseError("diffstate: " + why);
  };
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "locwm-diffstate v1") {
    fail("bad header");
  }
  DiffResumeState state;
  std::string word;
  std::string digest;
  std::istringstream ls;
  const auto lineStream = [&](const std::string& keyword) -> std::istringstream& {
    if (!std::getline(is, line)) {
      fail("truncated after '" + keyword + "'");
    }
    ls.clear();
    ls.str(line);
    if (!(ls >> word) || word != keyword) {
      fail("expected '" + keyword + "' line");
    }
    return ls;
  };
  {
    std::istringstream& s = lineStream("core");
    if (!(s >> digest)) {
      fail("missing core digest");
    }
    state.core_digest = digest == "-" ? std::string() : digest;
  }
  std::size_t extra_count = 0;
  if (!(lineStream("extra") >> extra_count)) {
    fail("missing extra count");
  }
  state.extra.reserve(extra_count);
  for (std::size_t i = 0; i < extra_count; ++i) {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    if (!(lineStream("e") >> src >> dst)) {
      fail("malformed extra edge");
    }
    state.extra.emplace_back(src, dst);
  }
  std::size_t cert_count = 0;
  if (!(lineStream("certs") >> cert_count)) {
    fail("missing certs count");
  }
  state.certs.reserve(cert_count);
  for (std::size_t i = 0; i < cert_count; ++i) {
    std::istringstream& s = lineStream("cert");
    CertResumeEntry entry;
    int matched = 0;
    std::size_t node_count = 0;
    if (!(s >> digest >> matched >> node_count) ||
        (matched != 0 && matched != 1)) {
      fail("malformed cert entry");
    }
    entry.digest = digest == "-" ? std::string() : digest;
    entry.matched = matched == 1;
    entry.nodes.reserve(node_count);
    for (std::size_t v = 0; v < node_count; ++v) {
      std::uint32_t value = 0;
      if (!(s >> value)) {
        fail("malformed cert witness");
      }
      entry.nodes.emplace_back(value);
    }
    state.certs.push_back(std::move(entry));
  }
  if (std::getline(is, line) && !line.empty()) {
    fail("trailing content");
  }
  return state;
}

}  // namespace locwm::check
