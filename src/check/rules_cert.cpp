// Certificate rules (LW5xx).  A certificate is the author's private
// evidence; if its parameters, shape, or constraints are inconsistent, the
// detection replay (§III) silently finds nothing.  These rules check every
// invariant the embedder guarantees, for all three certificate kinds.
//
// The shape graph is the locality fingerprint produced by the contraction
// step (core/locality.cpp): real operations only, no temporal edges, and —
// for root-anchored certificates — connected to the root.  Shape node ids
// are canonical ranks computed in the *context* subgraph during embedding;
// re-deriving a shape-local ordering here would false-positive, so the
// rules assert only what the contraction guarantees.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/error.h"
#include "check/dataflow.h"
#include "check/internal.h"
#include "check/rules.h"
#include "core/pc.h"

namespace locwm::check {
namespace {

using detail::diag;

/// LW501: locality parameters must be in the ranges the deriver accepts.
void checkParams(Report& r, const wm::LocalityParams& p,
                 std::size_t shapeSize, const std::string& artifact) {
  if (p.max_distance == 0) {
    r.add(diag("LW501", Severity::kError, artifact, "max-distance",
               "max fanin distance is 0: no locality can be carved",
               "the deriver walks at least one step from the root"));
  }
  if (p.exclude_prob_256 > 255) {
    r.add(diag("LW501", Severity::kError, artifact, "exclude-prob",
               "exclusion probability " + std::to_string(p.exclude_prob_256) +
                   "/256 exceeds 255/256",
               "the keyed carve consumes one byte per decision"));
  }
  if (p.min_size == 0) {
    r.add(diag("LW501", Severity::kError, artifact, "min-size",
               "minimum locality size is 0",
               "an empty locality carries no watermark"));
  } else if (p.min_size > shapeSize) {
    r.add(diag("LW501", Severity::kError, artifact, "min-size",
               "minimum locality size " + std::to_string(p.min_size) +
                   " exceeds the shape's " + std::to_string(shapeSize) +
                   " nodes",
               "the embedder rejects localities below min-size, so a valid "
               "certificate's shape is at least that large"));
  }
}

/// LW504: shape well-formedness.  `rootRank` is the anchor for rooted
/// certificates, or nullptr for whole-design (template) certificates.
void checkShape(Report& r, const cdfg::Cdfg& shape,
                const std::uint32_t* rootRank, const std::string& artifact) {
  if (shape.nodeCount() == 0) {
    r.add(diag("LW504", Severity::kError, artifact, "shape",
               "shape graph is empty",
               "a certificate without a fingerprint matches nothing"));
    return;
  }
  for (cdfg::NodeId n : shape.allNodes()) {
    if (cdfg::isPseudoOp(shape.node(n).kind)) {
      r.add(diag("LW504", Severity::kError, artifact,
                 detail::nodeRef(shape, n),
                 "shape contains a pseudo-op",
                 "locality contraction keeps real operations only; "
                 "pseudo-ops are the core's boundary"));
    }
  }
  for (cdfg::EdgeId e : shape.allEdges()) {
    const cdfg::Edge& edge = shape.edge(e);
    if (edge.kind == cdfg::EdgeKind::kTemporal) {
      r.add(diag("LW504", Severity::kError, artifact,
                 detail::edgeRef(edge.src.value(), edge.dst.value(),
                                 edge.kind),
                 "shape contains a temporal edge",
                 "the fingerprint must not depend on previously embedded "
                 "watermarks"));
    }
  }
  if (rootRank != nullptr && *rootRank < shape.nodeCount()) {
    // Undirected reachability from the root: the carve grows from the root
    // through the fanin tree, so every shape node connects to it.
    std::vector<bool> seen(shape.nodeCount(), false);
    std::vector<cdfg::NodeId> stack{cdfg::NodeId(*rootRank)};
    seen[*rootRank] = true;
    while (!stack.empty()) {
      const cdfg::NodeId n = stack.back();
      stack.pop_back();
      for (const auto& edges : {shape.inEdges(n), shape.outEdges(n)}) {
        for (cdfg::EdgeId e : edges) {
          const cdfg::Edge& edge = shape.edge(e);
          const cdfg::NodeId other = edge.src == n ? edge.dst : edge.src;
          if (!seen[other.value()]) {
            seen[other.value()] = true;
            stack.push_back(other);
          }
        }
      }
    }
    for (cdfg::NodeId n : shape.allNodes()) {
      if (!seen[n.value()]) {
        r.add(diag("LW504", Severity::kError, artifact,
                   detail::nodeRef(shape, n),
                   "shape node is not connected to the root (rank " +
                       std::to_string(*rootRank) + ")",
                   "the carve grows from the root; disconnected nodes "
                   "cannot be part of the locality"));
      }
    }
  }
}

/// LW502 for one rank value.
void checkRank(Report& r, std::uint32_t rank, std::size_t shapeSize,
               const std::string& what, const std::string& artifact) {
  if (rank >= shapeSize) {
    r.add(diag("LW502", Severity::kError, artifact, what,
               "rank " + std::to_string(rank) + " is outside the shape (" +
                   std::to_string(shapeSize) + " nodes)",
               "ranks index the shape's canonically ordered nodes"));
  }
}

/// LW502/LW503/LW505 over a list of rank pairs.  `ordered` distinguishes
/// precedence constraints (scheduling) from share pairs (binding).
void checkRankPairs(Report& r, const std::vector<wm::RankConstraint>& pairs,
                    const cdfg::Cdfg& shape, bool ordered,
                    const std::string& artifact) {
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  std::optional<cdfg::CsrView> view;  // lowered for the first LW505 test
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const wm::RankConstraint& c = pairs[i];
    const std::string loc =
        (ordered ? "constraint " : "pair ") + std::to_string(i);
    checkRank(r, c.before_rank, shape.nodeCount(), loc, artifact);
    checkRank(r, c.after_rank, shape.nodeCount(), loc, artifact);
    if (c.before_rank == c.after_rank) {
      r.add(diag("LW503", Severity::kError, artifact, loc,
                 ordered ? "constraint orders rank " +
                               std::to_string(c.before_rank) +
                               " before itself"
                         : "pair aliases rank " +
                               std::to_string(c.before_rank) + " with itself",
                 "degenerate constraints carry no watermark bit"));
      continue;
    }
    std::pair<std::uint32_t, std::uint32_t> key{c.before_rank, c.after_rank};
    if (!ordered && key.first > key.second) {
      std::swap(key.first, key.second);
    }
    if (!seen.insert(key).second) {
      r.add(diag("LW503", Severity::kError, artifact, loc,
                 "duplicate of an earlier " +
                     std::string(ordered ? "constraint" : "pair") + " (" +
                     std::to_string(c.before_rank) + ", " +
                     std::to_string(c.after_rank) + ")",
                 "each constraint must be distinct to count as evidence"));
      continue;
    }
    // LW505: a precedence constraint already implied by the shape's data
    // structure is satisfied by every schedule — zero evidence.
    if (!ordered || c.before_rank >= shape.nodeCount() ||
        c.after_rank >= shape.nodeCount()) {
      continue;
    }
    if (!view) {
      view.emplace(shape);
    }
    if (hasPathSkipping(*view, cdfg::NodeId(c.before_rank),
                        cdfg::NodeId(c.after_rank), cdfg::EdgeId::invalid(),
                        EdgeMask::dataControl())) {
      r.add(diag("LW505", Severity::kWarning, artifact, loc,
                 "constraint rank " + std::to_string(c.before_rank) +
                     " -> rank " + std::to_string(c.after_rank) +
                     " is implied by a data path in the shape",
                 "the embedder picks lifetime-overlapping pairs precisely "
                 "to avoid vacuous constraints (§IV-A)"));
    }
  }
}

/// "0.30" — fixed two-decimal rendering for diagnostics.
std::string twoDecimals(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

/// LW606: Pc audit.  The nominal strength claim behind a K-constraint
/// certificate is Pc = 2^-K (the paper's E[ΨW/ΨN] = 1/2 per edge).  The
/// window model (core/pc.h) recomputes Pc over the certificate's own
/// shape; when the recomputation is materially *weaker* than nominal —
/// constraints between far-apart operations are nearly always satisfied by
/// chance — the certificate overstates its proof strength.
void checkPcClaim(Report& r, const wm::WatermarkCertificate& cert,
                  const std::string& artifact) {
  const std::size_t k = cert.constraints.size();
  if (k == 0 || cert.shape.nodeCount() == 0) {
    return;
  }
  std::vector<sched::ExtraEdge> edges;
  edges.reserve(k);
  for (const wm::RankConstraint& c : cert.constraints) {
    if (c.before_rank >= cert.shape.nodeCount() ||
        c.after_rank >= cert.shape.nodeCount() ||
        c.before_rank == c.after_rank) {
      return;  // LW502/LW503 territory; the recomputation needs valid ranks
    }
    edges.emplace_back(cdfg::NodeId(c.before_rank),
                       cdfg::NodeId(c.after_rank));
  }
  wm::PcEstimate recomputed;
  try {
    recomputed = wm::approxSchedulingPc(cert.shape, edges);
  } catch (const Error&) {
    return;  // malformed shape; LW504 territory
  }
  const double nominal = static_cast<double>(k) * std::log10(0.5);
  const double deviation = recomputed.log10_pc - nominal;
  const double tolerance =
      std::max(0.25, 0.15 * static_cast<double>(k));
  if (deviation >= tolerance) {
    r.add(diag("LW606", Severity::kInfo, artifact, "pc-audit",
               "recomputed Pc (1e" + twoDecimals(recomputed.log10_pc) +
                   ") is " + twoDecimals(deviation) +
                   " decades weaker than the nominal 2^-K claim (1e" +
                   twoDecimals(nominal) + ") for K=" + std::to_string(k),
               "constraints that are nearly always satisfied by chance "
               "overstate the proof of authorship; re-embed with "
               "tighter-window pairs"));
  }
}

}  // namespace

Report checkCertificate(const wm::WatermarkCertificate& cert,
                        const std::string& artifact) {
  Report r;
  checkParams(r, cert.locality_params, cert.shape.nodeCount(), artifact);
  checkShape(r, cert.shape, &cert.root_rank, artifact);
  checkRank(r, cert.root_rank, cert.shape.nodeCount(), "root", artifact);
  checkRankPairs(r, cert.constraints, cert.shape, /*ordered=*/true, artifact);
  checkPcClaim(r, cert, artifact);
  return r;
}

Report checkCertificate(const wm::TmCertificate& cert,
                        const std::string& artifact) {
  Report r;
  checkParams(r, cert.locality_params, cert.shape.nodeCount(), artifact);
  checkShape(r, cert.shape, /*rootRank=*/nullptr, artifact);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < cert.matchings.size(); ++i) {
    const wm::EnforcedMatching& m = cert.matchings[i];
    const std::string loc = "matching " + std::to_string(i);
    std::string key = std::to_string(m.template_id.value());
    std::set<std::uint32_t> ranks;
    for (const auto& [rank, op] : m.pairs) {
      checkRank(r, rank, cert.shape.nodeCount(), loc, artifact);
      if (!ranks.insert(rank).second) {
        r.add(diag("LW503", Severity::kError, artifact, loc,
                   "rank " + std::to_string(rank) +
                       " is mapped to two template ops",
                   "a matching assigns distinct operations"));
      }
      key += ":" + std::to_string(rank) + "@" + std::to_string(op);
    }
    if (!seen.insert(key).second) {
      r.add(diag("LW503", Severity::kError, artifact, loc,
                 "duplicate of an earlier enforced matching",
                 "each enforced matching must be distinct to count as "
                 "evidence"));
    }
  }
  return r;
}

Report checkCertificate(const wm::RegCertificate& cert,
                        const std::string& artifact) {
  Report r;
  checkParams(r, cert.locality_params, cert.shape.nodeCount(), artifact);
  checkShape(r, cert.shape, &cert.root_rank, artifact);
  checkRank(r, cert.root_rank, cert.shape.nodeCount(), "root", artifact);
  checkRankPairs(r, cert.pairs, cert.shape, /*ordered=*/false, artifact);
  return r;
}

}  // namespace locwm::check
