// Compressed-sparse-row, structure-of-arrays snapshot of a Cdfg.
//
// The mutable Cdfg builder stores adjacency as a vector of per-node
// vectors of edge ids; every neighbour visit chases two pointers (the
// outer vector, then the edge table) and the convenience accessors
// (predecessors(), successors(), data*()) allocate a fresh std::vector
// per call.  That layout is right for *construction* — edges arrive one
// at a time — and wrong for *analysis*, where the same read-mostly
// structure is traversed millions of times.
//
// CsrView lowers a finished graph once into a single arena-backed
// allocation laid out for cache-friendly traversal:
//
//   * per-direction neighbour arrays, contiguous over all nodes, with
//     each node's neighbours grouped by edge kind in the fixed order
//     data, control, temporal.  Any of the masks the analyses use —
//     one kind, data+control, all — is therefore one contiguous span;
//   * parallel edge-id arrays aligned index-for-index with the
//     neighbour arrays, so traversals that must name or skip a specific
//     edge (check::skippingPaths for LW104/LW505/LW601) stay
//     allocation-free;
//   * a structure-of-arrays node-kind table (one byte per node), so
//     kind tests touch 1 byte/node instead of a 40-byte Node with an
//     embedded std::string;
//   * offset tables with three kind boundaries per node (3n+1 entries
//     per direction), giving degrees and segment spans in O(1).
//
// Lowering is O(N + E) by counting sort over the edge table and is
// deterministic: within one (node, kind) segment, neighbours appear in
// edge-insertion order — the same relative order Cdfg::predecessors /
// successors produce — and parallel (duplicate) edges are preserved.
//
// Lowering contract: a view is a *snapshot*.  Mutating the builder
// (addNode/addEdge) after lowering is not reflected in any existing
// view and leaves it dangling only if the graph itself is destroyed;
// re-lower after mutation.  Analyses that must observe mutations as
// they happen (e.g. watermark embedding, which adds temporal edges
// between eligibility probes) stay on the builder API.  See
// docs/GRAPH_CORE.md.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/ids.h"
#include "cdfg/operation.h"

namespace locwm::cdfg {

/// Which edge kinds a CSR lookup spans.  The per-node segments are stored
/// in the order data, control, temporal, so every selector is one
/// contiguous range (kDataControl exists because data+temporal would not
/// be — no analysis in this codebase wants it).
enum class EdgeSel : std::uint8_t {
  kData = 0,
  kControl = 1,
  kTemporal = 2,
  kDataControl = 3,  ///< data + control (the "includeTemporal=false" view)
  kAll = 4,          ///< data + control + temporal
};

/// Read-only CSR/SoA view of one Cdfg.  Copy of the structure, not of the
/// node labels; cheap to move, one heap allocation total.
class CsrView {
 public:
  CsrView() = default;
  explicit CsrView(const Cdfg& g);

  // The section pointers alias arena_'s heap buffer; moving a vector
  // transfers that buffer, so moves keep them valid — copies would not.
  CsrView(const CsrView&) = delete;
  CsrView& operator=(const CsrView&) = delete;
  CsrView(CsrView&&) noexcept = default;
  CsrView& operator=(CsrView&&) noexcept = default;

  [[nodiscard]] std::size_t nodeCount() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t edgeCount() const noexcept { return edges_; }

  /// Operation kind of `v` (SoA copy; no bounds check beyond the span's).
  [[nodiscard]] OpKind kind(NodeId v) const noexcept {
    return static_cast<OpKind>(kinds_[v.value()]);
  }

  /// Neighbours reached by edges leaving `v` whose kind matches `sel`,
  /// in edge-insertion order within each kind segment.  Duplicates
  /// (parallel edges) are preserved.  The span aliases the view's arena:
  /// valid as long as the view lives, no allocation.
  [[nodiscard]] std::span<const NodeId> successors(NodeId v,
                                                   EdgeSel sel) const noexcept {
    const auto [lo, hi] = segment(out_off_, v, sel);
    return {out_node_ + lo, hi - lo};
  }
  [[nodiscard]] std::span<const NodeId> predecessors(
      NodeId v, EdgeSel sel) const noexcept {
    const auto [lo, hi] = segment(in_off_, v, sel);
    return {in_node_ + lo, hi - lo};
  }

  /// Edge ids aligned index-for-index with successors(v, sel) /
  /// predecessors(v, sel): outEdges(v, sel)[i] is the edge whose dst is
  /// successors(v, sel)[i].
  [[nodiscard]] std::span<const EdgeId> outEdges(NodeId v,
                                                 EdgeSel sel) const noexcept {
    const auto [lo, hi] = segment(out_off_, v, sel);
    return {out_edge_ + lo, hi - lo};
  }
  [[nodiscard]] std::span<const EdgeId> inEdges(NodeId v,
                                                EdgeSel sel) const noexcept {
    const auto [lo, hi] = segment(in_off_, v, sel);
    return {in_edge_ + lo, hi - lo};
  }

  [[nodiscard]] std::size_t outDegree(NodeId v, EdgeSel sel) const noexcept {
    const auto [lo, hi] = segment(out_off_, v, sel);
    return hi - lo;
  }
  [[nodiscard]] std::size_t inDegree(NodeId v, EdgeSel sel) const noexcept {
    const auto [lo, hi] = segment(in_off_, v, sel);
    return hi - lo;
  }

  /// Bytes held by the arena (the view's only allocation).
  [[nodiscard]] std::size_t memoryBytes() const noexcept {
    return arena_.size() * sizeof(std::uint32_t);
  }
  /// memoryBytes() / nodeCount(), 0 for an empty graph.
  [[nodiscard]] double bytesPerNode() const noexcept {
    return nodes_ == 0 ? 0.0
                       : static_cast<double>(memoryBytes()) /
                             static_cast<double>(nodes_);
  }

 private:
  /// [start, end) arena indices of the `sel` segment of node `v` in the
  /// offset table `off` (out_off_ or in_off_).
  [[nodiscard]] static std::pair<std::uint32_t, std::uint32_t> segment(
      const std::uint32_t* off, NodeId v, EdgeSel sel) noexcept {
    const std::size_t base = std::size_t{3} * v.value();
    switch (sel) {
      case EdgeSel::kData:
        return {off[base + 0], off[base + 1]};
      case EdgeSel::kControl:
        return {off[base + 1], off[base + 2]};
      case EdgeSel::kTemporal:
        return {off[base + 2], off[base + 3]};
      case EdgeSel::kDataControl:
        return {off[base + 0], off[base + 2]};
      case EdgeSel::kAll:
        return {off[base + 0], off[base + 3]};
    }
    return {0, 0};
  }

  std::size_t nodes_ = 0;
  std::size_t edges_ = 0;
  /// The single allocation.  Sections, in order: out offsets (3n+1 words),
  /// in offsets (3n+1), out neighbours (E), out edge ids (E), in
  /// neighbours (E), in edge ids (E), node kinds ((n+3)/4 words of bytes).
  std::vector<std::uint32_t> arena_;
  // Section pointers into arena_ (set once at construction).  NodeId and
  // EdgeId are single-uint32 wrappers, so the neighbour/edge sections are
  // viewed through them directly.
  static_assert(sizeof(NodeId) == sizeof(std::uint32_t) &&
                    std::is_trivially_copyable_v<NodeId> &&
                    sizeof(EdgeId) == sizeof(std::uint32_t) &&
                    std::is_trivially_copyable_v<EdgeId>,
                "CSR sections are reinterpreted as id arrays");
  const std::uint32_t* out_off_ = nullptr;
  const std::uint32_t* in_off_ = nullptr;
  const NodeId* out_node_ = nullptr;
  const EdgeId* out_edge_ = nullptr;
  const NodeId* in_node_ = nullptr;
  const EdgeId* in_edge_ = nullptr;
  const std::uint8_t* kinds_ = nullptr;
};

/// The one topological order of a view's DAG over the `sel` edges: Kahn's
/// algorithm with a FIFO queue, sources in id order.  Linear in the view
/// whatever its numbering.  On a cyclic view the nodes on or behind a
/// cycle never become ready, so the order holds fewer than nodeCount()
/// nodes; callers take that as their cycle verdict.
[[nodiscard]] std::vector<NodeId> topologicalOrder(const CsrView& v,
                                                   EdgeSel sel);

/// A small CSR over dense local ids 0..n-1 with data/control edges only:
/// the form identification contexts and the canonical ordering work on,
/// built straight from a node subset without a builder graph.  Out-lists
/// keep insertion order and edge kinds; in-lists keep multiplicity
/// (parallel edges appear once per edge).
struct LocalCsr {
  std::vector<OpKind> kinds;
  std::vector<std::uint32_t> out_off{0};  ///< n + 1 offsets into out/out_kind
  std::vector<std::uint32_t> out;
  std::vector<EdgeKind> out_kind;
  std::vector<std::uint32_t> in_off{0};   ///< n + 1 offsets into in
  std::vector<std::uint32_t> in;

  [[nodiscard]] std::size_t size() const noexcept { return kinds.size(); }
  [[nodiscard]] std::span<const std::uint32_t> successors(
      std::uint32_t v) const noexcept {
    return {out.data() + out_off[v], out_off[v + 1] - out_off[v]};
  }
  [[nodiscard]] std::span<const std::uint32_t> predecessors(
      std::uint32_t v) const noexcept {
    return {in.data() + in_off[v], in_off[v + 1] - in_off[v]};
  }

  /// Derives in_off/in from the out-lists.  Build protocol: push every
  /// node's kind, then per node in id order append its out-edges and push
  /// out.size() onto out_off; then call this once.
  void buildInLists();
};

/// The EdgeSel whose span equals filtering by `kind` alone.
[[nodiscard]] constexpr EdgeSel edgeSelOf(EdgeKind kind) noexcept {
  return static_cast<EdgeSel>(static_cast<std::uint8_t>(kind));
}

/// The edge kind of every member of a single-kind or merged selector
/// segment is recoverable per sub-segment; this helper names the three
/// primitive kinds in storage order for mask-driven traversals.
inline constexpr EdgeKind kCsrKindOrder[3] = {
    EdgeKind::kData, EdgeKind::kControl, EdgeKind::kTemporal};

}  // namespace locwm::cdfg
