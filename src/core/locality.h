// Locality (domain) selection and identification — §III / §IV-A steps
// "domain selection" and "domain identification".
//
// A local watermark lives in a *locality*: a signature-selected subtree T of
// the fanin tree To of some root node.  Two properties make localities the
// right carrier:
//
//  1. Derivation is purely structural.  Given a root, the carve depends
//     only on the induced subgraph of the fanin tree (canonical node
//     ordering, ordering.h) and on the author-keyed bitstream — never on
//     node indices, labels, or the rest of the design.  A reverse-
//     engineered, re-indexed, or host-embedded copy yields the same
//     locality, which is what makes detection possible.
//
//  2. Derivation is root-anchored.  The detector can therefore scan every
//     node of a suspect design as a candidate root and re-derive; a match
//     of the memorized locality identifies the watermark even when the
//     protected core is a small part of a large system (§I).
//
// Derivation has the paper's two halves (§IV-A), split so the expensive
// one is paid once per root:
//
//  * identification — LocalityDeriver::context(root, Δ) — depends only on
//    the design, the root and Δ: the fanin tree To, the undirected context
//    ball, its copy-contracted graph and the canonical ranks.  No key is
//    read.
//  * selection — LocalityDeriver::carve(context, params, bits) — the
//    keyed breadth-first carve of T ⊆ To.  It is the only step that reads
//    the author's key, and it is cheap.
//
// derive() is carve(context(root, Δ)).  Detection replays many keys at the
// same roots, so replayShapeMatches() builds each (root, Δ) context once,
// carves it for every certificate that replays there, and drops it.
//
// Traversal visits data/control neighbours of *real* operations only;
// pseudo-ops (primary inputs, constants) are the core's boundary and are
// neither included nor crossed, so stitching the core's inputs into a host
// design does not perturb derivation.  Copies are wires: a real
// operation's neighbours are the real operations reached through copy
// chains.  The deriver resolves those chains once, at lowering, into a
// real-op adjacency (copy-transparent predecessor and successor lists per
// real operation); the balls (To, the context ball, the screen's fanin
// counts) and candidateRoots() are plain layered searches over it, so no
// traversal re-walks a chain.  Temporal edges are never followed: the
// locality must not depend on previously embedded watermarks.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "cdfg/operation.h"
#include "crypto/bitstream.h"

namespace locwm::wm {

/// Parameters of domain selection.
struct LocalityParams {
  /// Max fanin distance Δ of the initial subtree To around the root.
  std::uint32_t max_distance = 6;
  /// Probability (in 1/256ths) that an *optional* input is excluded during
  /// the keyed breadth-first carve; one input per node is always kept.
  std::uint32_t exclude_prob_256 = 96;  // ~0.375
  /// Minimum acceptable carved size |T|; derivation fails below this.
  std::size_t min_size = 4;
};

/// A derived locality.
struct Locality {
  /// Root node, in the coordinates of the graph derived from.
  cdfg::NodeId root;
  /// The carved nodes T in canonical-rank order: nodes[i] has rank i.
  std::vector<cdfg::NodeId> nodes;
  /// Induced subgraph of T, *renumbered so node id == rank*.  This is the
  /// structural fingerprint compared during detection.
  cdfg::Cdfg shape;

  [[nodiscard]] std::size_t size() const noexcept { return nodes.size(); }

  /// True when `other` is structurally identical (same shape graph:
  /// node kinds and edge set under rank numbering).
  [[nodiscard]] bool sameShape(const Locality& other) const;
};

/// True when two rank-numbered shape graphs are identical: same node kinds
/// per rank and same (src, dst, kind) edge multiset.
[[nodiscard]] bool shapeEquals(const cdfg::Cdfg& a, const cdfg::Cdfg& b);

/// The key-independent half of a derivation: the identification context
/// of one (root, Δ).  Built by LocalityDeriver::context(); consumed by
/// carve().  Local ids number `members` (ascending design id).
struct IdentContext {
  /// Canonical rank of automorphic nodes, which the carve never selects.
  static constexpr std::uint32_t kTied = 0xFFFFFFFFu;

  cdfg::NodeId root;
  /// The Δ the context was built at.
  std::uint32_t max_distance = 0;
  /// |To|: the directed copy-transparent fanin ball of radius Δ, root
  /// included — the set the carve selects from.
  std::size_t to_size = 0;
  /// False when no carve can succeed here: a transparent root, an
  /// automorphic root, or — inside derive() and the replay, which know
  /// the carves to come — a To smaller than every carve's min_size, in
  /// which case nothing past To was built.
  bool identified = false;
  /// Local id -> design node: the undirected context ball of radius Δ.
  std::vector<cdfg::NodeId> members;
  std::uint32_t root_local = 0;
  /// To membership per local id.
  std::vector<std::uint8_t> in_to;
  /// The contracted identification graph over `members`: direct edges
  /// keep their kind; paths through copy chains become data edges with
  /// multiplicity kept, so splitting edges with copies perturbs nothing.
  cdfg::LocalCsr graph;
  /// Canonical rank per local id (kTied for automorphic nodes).
  std::vector<std::uint32_t> rank_of;
  /// Carve candidates of each To member: its distinct contracted
  /// predecessors in To that are not tied, by ascending rank (CSR over
  /// local ids; `select_off` has members.size() + 1 entries).
  std::vector<std::uint32_t> select_off;
  std::vector<std::uint32_t> select;
};

/// Copy-transparent real neighbours of every real operation: its distinct
/// real predecessors and successors reached through copy chains over
/// data/control edges, ascending.  Pseudo-ops and copies have empty lists.
/// CSR-style: per direction, nodeCount + 1 offsets into one flat list.
struct RealAdjacency {
  std::vector<std::uint32_t> pred_off;
  std::vector<cdfg::NodeId> pred;
  std::vector<std::uint32_t> succ_off;
  std::vector<cdfg::NodeId> succ;

  [[nodiscard]] std::span<const cdfg::NodeId> predecessors(
      cdfg::NodeId v) const noexcept {
    return {pred.data() + pred_off[v.value()],
            pred.data() + pred_off[v.value() + 1]};
  }
  [[nodiscard]] std::span<const cdfg::NodeId> successors(
      cdfg::NodeId v) const noexcept {
    return {succ.data() + succ_off[v.value()],
            succ.data() + succ_off[v.value() + 1]};
  }
};

/// Derives localities from a graph.
///
/// Construction lowers a CSR snapshot of the graph and, from it, the
/// real-op adjacency (see the file comment); every traversal the deriver
/// performs (fanin balls, copy-chain contraction, root scans) runs on
/// those two.  Both stay semantically valid across *temporal* edge
/// additions — the only mutation the embedders perform between
/// derivations — because they hold data/control edges only.  Any other
/// mutation requires constructing a new deriver.
class LocalityDeriver {
 public:
  explicit LocalityDeriver(const cdfg::Cdfg& graph);

  /// Derives the locality anchored at `root`, consuming carve decisions
  /// from `bits`: carve(context(root, params.max_distance), params, bits).
  /// Returns nullopt when the fanin tree cannot be uniquely ordered
  /// (automorphic nodes) or the carve is smaller than params.min_size.
  /// The number of bits consumed is identical for identical structures —
  /// the detection replay guarantee.
  [[nodiscard]] std::optional<Locality> derive(
      cdfg::NodeId root, const LocalityParams& params,
      crypto::KeyedBitstream& bits) const;

  /// Domain identification at (root, Δ): everything derive() computes
  /// before it reads a key.  Counts `core.locality.contexts` when the
  /// canonical ordering runs.
  [[nodiscard]] IdentContext context(cdfg::NodeId root,
                                     std::uint32_t max_distance) const;

  /// Domain selection: the keyed carve of `context` (built by this
  /// deriver at params.max_distance).  Same result and bit consumption
  /// as derive() at the context's root.
  [[nodiscard]] std::optional<Locality> carve(
      const IdentContext& context, const LocalityParams& params,
      crypto::KeyedBitstream& bits) const;

  /// All plausible roots: real operations with a non-empty real
  /// predecessor list (a root with an empty fanin tree carries no
  /// watermark).
  [[nodiscard]] std::vector<cdfg::NodeId> candidateRoots() const;

  /// The degenerate "T = CDFG" locality the paper's Table II uses: every
  /// uniquely-identifiable real operation of the whole design, in
  /// canonical-rank order (root is invalid — there is no anchor; detection
  /// compares against the whole suspect design).  Returns nullopt when
  /// fewer than `minSize` nodes are uniquely identifiable.
  [[nodiscard]] std::optional<Locality> wholeDesign(
      std::size_t minSize = 2) const;

  /// The CSR snapshot the deriver traverses.  Exposed so detection scans
  /// sharing the deriver (sched/reg/tm) can reuse it instead of lowering
  /// their own.
  [[nodiscard]] const cdfg::CsrView& csr() const noexcept { return csr_; }

  /// Operation-kind histogram of the directed copy-transparent fanin ball
  /// of `radius` around `root`, root included — exactly the member set of
  /// derive()'s Step 1a fanin tree To.  Every carve at
  /// max_distance <= radius selects its nodes from this ball and the
  /// contracted shape preserves node kinds, so any matched locality's kind
  /// counts are component-wise <= these.  That superset relation is what
  /// the corpus-scan pre-filter screens on.  Returns all zeros for
  /// transparent roots (derive() rejects them outright).
  [[nodiscard]] std::array<std::uint32_t, cdfg::kOpKindCount> faninKindCounts(
      cdfg::NodeId root, std::uint32_t radius) const;

  /// Kind histogram over every real (non-transparent) operation — the
  /// superset any wholeDesign() locality selects from.
  [[nodiscard]] std::array<std::uint32_t, cdfg::kOpKindCount> realKindCounts()
      const;

  /// The real-op adjacency built at construction.
  [[nodiscard]] const RealAdjacency& adjacency() const noexcept {
    return adjacency_;
  }

 private:
  cdfg::CsrView csr_;
  RealAdjacency adjacency_;
};

/// One hit found by a replay: the root the shape re-derived at and the
/// matched suspect nodes in canonical-rank order (nodes[i] has rank i).
struct ShapeHit {
  cdfg::NodeId root;
  std::vector<cdfg::NodeId> nodes;
};

/// One certificate's replay: re-derive its keyed locality at every root in
/// `roots` and keep those whose shape equals `*shape`.  When `root_rank` is
/// set (certificates that record their anchor's rank), roots of another
/// operation kind than the shape's anchor are skipped without deriving;
/// nullopt replays every root (rooted tm).  A `whole_design` query (the
/// T = CDFG locality) has no root: the detection driver (core/screen.h)
/// matches it against the whole design and gives it no roots to replay.
/// The pointees must outlive the replay.
struct ShapeQuery {
  const crypto::AuthorSignature* signature = nullptr;
  /// The certificate's bitstream context; the carve keys "<context>/carve".
  const std::string* context = nullptr;
  LocalityParams params;
  const cdfg::Cdfg* shape = nullptr;
  /// Canonical rank of the locality's root within `*shape`.
  std::optional<std::uint32_t> root_rank;
  bool whole_design = false;
  std::vector<cdfg::NodeId> roots;
  /// The carve stream, already keyed from `signature` and `context`: each
  /// carve draws from a copy.  Null makes the replay key it, once per
  /// call.  The detection driver keys it once per batch.
  const crypto::KeyedBitstream* carve_bits = nullptr;

  /// The anchor's operation kind, when the query has an anchor.
  [[nodiscard]] std::optional<cdfg::OpKind> rootKind() const {
    if (!root_rank.has_value()) {
      return std::nullopt;
    }
    return shape->node(cdfg::NodeId(*root_rank)).kind;
  }
};

struct ReplayResult {
  /// hits[q]: query q's shape matches, in its `roots` order.
  std::vector<std::vector<ShapeHit>> hits;
  /// Identification contexts built (distinct (root, Δ) pairs that got as
  /// far as the canonical ordering).
  std::size_t contexts = 0;
};

/// The structural core shared by the sched/reg/tm detectors and the corpus
/// scanner, root-major: every distinct (root, Δ) any query replays gets one
/// identification context, carved once per (query, root) with a fresh copy
/// of the query's keyed carve stream, then dropped — at most one context
/// per lane is alive.
/// Contexts run in parallel on the rt pool and hits fold back per query in
/// `roots` order, so the result equals one serial derive() per (query,
/// root) at any thread count.  Duplicate roots replay, and hit, once per
/// occurrence.
[[nodiscard]] ReplayResult replayShapeMatches(
    const LocalityDeriver& deriver, const std::vector<ShapeQuery>& queries);

}  // namespace locwm::wm
