// Differential watermark verification (LW7xx, CLI command `locwm diff`).
//
// The watermarking protocol's relational claim (§IV-A, Fig. 1): a marked
// design is the original with temporal edges added — nothing else.  The
// differ proves (or refutes) exactly that:
//
//   1. The designs' cores are structurally identical: same operations
//      (node-identical or canonically re-alignable via cdfg/ordering.h)
//      and same data/control edges.  Any other delta is tampering and is
//      classified against the structural mutation kinds of core/attack.h.
//   2. Every temporal edge of the original survives in the marked design.
//   3. Temporal edges only the marked design has are the watermark.  When
//      certificates are supplied, each one must *explain* its share of
//      those edges: the certificate's shape must match the marked design
//      with its rank constraints landing on extra temporal edges.
//
// The shape match is constraint-anchored subgraph isomorphism: constraints
// are assigned to extra temporal edges first (few candidates), then the
// mapping is grown over the shape's adjacency with a backtracking budget.
// Matching is signature-free — the differ verifies the *artifact
// relation*; proving authorship still requires detection with the key.
// Copy-contracted shapes (designs using kCopy chains inside a locality)
// conservatively fail to match.  The report is a pure function of the two
// designs and the certificates: nothing is cached or carried across runs.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cdfg/graph.h"
#include "check/diagnostics.h"
#include "core/sched_wm.h"

namespace locwm::check {

/// One temporal edge present in the marked design but not the original.
struct ExtraTemporalEdge {
  cdfg::NodeId src;
  cdfg::NodeId dst;
  /// True when a supplied certificate's constraint lands on this edge.
  bool explained = false;
  /// Index (into the supplied certificates) of the explaining certificate.
  std::size_t certificate = 0;
};

/// Outcome of one original/marked comparison.
struct DiffResult {
  Report report;
  /// True when the stripped cores are structurally identical.
  bool identical_core = false;
  /// Temporal edges only the marked design carries (marked coordinates).
  std::vector<ExtraTemporalEdge> extra_temporal;
  /// How many of them a certificate explains.
  std::size_t explained = 0;
};

/// Compares `marked` against `original`, verifying the superset relation
/// and attributing extra temporal edges to `certs`.  Artifact names label
/// the diagnostics.  Errors (LW70x) mean the relation does not hold.
[[nodiscard]] DiffResult diffDesigns(
    const cdfg::Cdfg& original, const cdfg::Cdfg& marked,
    const std::vector<wm::WatermarkCertificate>& certs,
    const std::string& original_name = "<original>",
    const std::string& marked_name = "<marked>");

/// A certificate shape located in a design.
struct ShapeMatch {
  bool matched = false;
  /// nodes[rank] = design node implementing that shape rank.
  std::vector<cdfg::NodeId> nodes;
};

/// The (src, dst) pair of every temporal edge of `design`: the anchors of
/// a design that still carries its watermark edges.
[[nodiscard]] std::vector<std::pair<cdfg::NodeId, cdfg::NodeId>>
temporalAnchors(const cdfg::Cdfg& design);

/// Locates `cert`'s shape in `design`, requiring every rank constraint to
/// land on one of `anchors` (candidate (before, after) node pairs — the
/// extra temporal edges).  Kind-exact, injective, induced-exact (the
/// design's data/control edges among the matched nodes are exactly the
/// shape's edges).  `budget` caps backtracking steps; exhaustion returns
/// no-match (conservative).
[[nodiscard]] ShapeMatch matchCertificateShape(
    const cdfg::Cdfg& design,
    const std::vector<std::pair<cdfg::NodeId, cdfg::NodeId>>& anchors,
    const wm::WatermarkCertificate& cert, std::size_t budget = 200000);

}  // namespace locwm::check
