#include "core/locality.h"

#include <algorithm>
#include <tuple>

#include "cdfg/error.h"
#include "cdfg/ordering.h"
#include "obs/obs.h"
#include "rt/rt.h"

namespace locwm::wm {

using cdfg::NodeId;

bool shapeEquals(const cdfg::Cdfg& a, const cdfg::Cdfg& b) {
  if (a.nodeCount() != b.nodeCount() || a.edgeCount() != b.edgeCount()) {
    return false;
  }
  // Direct table walks: the convenience API's allNodes()/allEdges() id
  // vectors are not worth allocating here.
  const std::vector<cdfg::Node>& an = a.nodes();
  const std::vector<cdfg::Node>& bn = b.nodes();
  for (std::size_t i = 0; i < an.size(); ++i) {
    if (an[i].kind != bn[i].kind) {
      return false;
    }
  }
  auto edgeSet = [](const cdfg::Cdfg& g) {
    std::vector<std::tuple<std::uint32_t, std::uint32_t, cdfg::EdgeKind>> set;
    set.reserve(g.edgeCount());
    for (const cdfg::Edge& ed : g.edges()) {
      set.emplace_back(ed.src.value(), ed.dst.value(), ed.kind);
    }
    std::sort(set.begin(), set.end());
    return set;
  };
  return edgeSet(a) == edgeSet(b);
}

bool Locality::sameShape(const Locality& other) const {
  return shapeEquals(shape, other.shape);
}

namespace {

using Edge3 = std::tuple<std::uint32_t, std::uint32_t, cdfg::EdgeKind>;

/// True for kinds the identification treats as wires, not operations:
/// pseudo-ops (the port boundary) and register-to-register copies.  Copy
/// transparency makes the cheapest structural attack — splitting edges
/// with no-op moves — a no-op against detection.
bool isTransparentKind(cdfg::OpKind kind) {
  return cdfg::isPseudoOp(kind) || kind == cdfg::OpKind::kCopy;
}

/// Per-lane scratch of the identification walks.  Membership of a design
/// node in the current ball is an epoch stamp (`mark[v] == epoch`), so a
/// root costs what its ball touches — not an O(design) bitmap per root.
/// Sized to the largest design the lane has walked; holds no context.
struct Scratch {
  std::vector<std::uint32_t> mark;
  /// Local id of a marked design node (valid where mark == epoch).
  std::vector<std::uint32_t> local;
  std::uint32_t epoch = 0;
  std::vector<NodeId> frontier;
  std::vector<NodeId> next;
  std::vector<NodeId> to_nodes;
  // Copy-transparent neighbour walks (adjacency build, contraction).
  std::vector<NodeId> walk;
  std::vector<NodeId> seen;
  std::vector<NodeId> stack;
  // Carve: carved[local] is 0, or the node's position in the carve + 1.
  std::vector<std::uint32_t> carved;
  std::vector<std::uint32_t> carve_frontier;
  std::vector<std::uint32_t> carve_next;
  std::vector<std::uint32_t> carve_list;
  std::vector<Edge3> edges;

  /// Starts a new membership epoch over a design of `n` nodes.
  std::uint32_t newEpoch(std::size_t n) {
    if (mark.size() < n) {
      mark.resize(n, 0);
      local.resize(n, 0);
    }
    if (++epoch == 0) {
      std::fill(mark.begin(), mark.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

Scratch& laneScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Copy-transparent walk from `start`: fills `s.walk` with the real
/// operations reached through `neighbours`, expanding copies and stopping
/// at pseudo-ops.  Unordered, possibly with repeats; `seen` is a linear
/// scan because a walk touches a handful of nodes.  Runs only while the
/// deriver builds its RealAdjacency.
template <typename Expand>
void realWalk(const cdfg::CsrView& v, NodeId start, Scratch& s,
              Expand&& neighbours) {
  s.walk.clear();
  s.seen.clear();
  {
    const auto first = neighbours(start);
    s.stack.assign(first.begin(), first.end());
  }
  while (!s.stack.empty()) {
    const NodeId p = s.stack.back();
    s.stack.pop_back();
    if (std::find(s.seen.begin(), s.seen.end(), p) != s.seen.end()) {
      continue;
    }
    s.seen.push_back(p);
    const cdfg::OpKind kind = v.kind(p);
    if (cdfg::isPseudoOp(kind)) {
      continue;
    }
    if (kind == cdfg::OpKind::kCopy) {
      for (const NodeId q : neighbours(p)) {
        s.stack.push_back(q);
      }
      continue;
    }
    s.walk.push_back(p);
  }
}

/// One direction of the RealAdjacency: the deduplicated walk of every
/// real operation, ascending, into `off` / `list`.
template <typename Expand>
void buildLists(const cdfg::CsrView& v, Scratch& s, Expand&& neighbours,
                std::vector<std::uint32_t>& off, std::vector<NodeId>& list) {
  const std::size_t n = v.nodeCount();
  off.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node(static_cast<std::uint32_t>(i));
    if (!isTransparentKind(v.kind(node))) {
      realWalk(v, node, s, neighbours);
      std::sort(s.walk.begin(), s.walk.end());
      list.insert(list.end(), s.walk.begin(),
                  std::unique(s.walk.begin(), s.walk.end()));
    }
    off[i + 1] = static_cast<std::uint32_t>(list.size());
  }
}

RealAdjacency buildAdjacency(const cdfg::CsrView& v) {
  RealAdjacency adj;
  Scratch& s = laneScratch();
  buildLists(
      v, s,
      [&](NodeId x) { return v.predecessors(x, cdfg::EdgeSel::kDataControl); },
      adj.pred_off, adj.pred);
  buildLists(
      v, s,
      [&](NodeId x) { return v.successors(x, cdfg::EdgeSel::kDataControl); },
      adj.succ_off, adj.succ);
  return adj;
}

/// The ball of `radius` around `root` over real neighbours (predecessors,
/// plus successors when `undirected`), root included, in `out` unordered:
/// a layered search of the RealAdjacency.  Leaves its members stamped with
/// the returned epoch.
std::uint32_t ball(const RealAdjacency& adj, NodeId root,
                   std::uint32_t radius, bool undirected, Scratch& s,
                   std::vector<NodeId>& out) {
  const std::uint32_t epoch = s.newEpoch(adj.pred_off.size() - 1);
  out.assign(1, root);
  s.mark[root.value()] = epoch;
  s.frontier.assign(1, root);
  const auto visit = [&](std::span<const NodeId> neighbours) {
    for (const NodeId p : neighbours) {
      if (s.mark[p.value()] != epoch) {
        s.mark[p.value()] = epoch;
        s.next.push_back(p);
        out.push_back(p);
      }
    }
  };
  for (std::uint32_t d = 0; d < radius && !s.frontier.empty(); ++d) {
    s.next.clear();
    for (const NodeId v : s.frontier) {
      visit(adj.predecessors(v));
      if (undirected) {
        visit(adj.successors(v));
      }
    }
    s.frontier.swap(s.next);
  }
  return epoch;
}

/// Calls f(dst, kind) for every data/control edge leaving `n`, in edge
/// *insertion* order — merging the kind-grouped CSR segments by edge id
/// reproduces the order the builder's outEdges() walk visits, so the
/// contracted graph's edge order (and every shape built from it) is the
/// one the builder-graph derivation produced.
template <typename F>
void forEachDataControlOut(const cdfg::CsrView& v, NodeId n, F&& f) {
  const auto dn = v.successors(n, cdfg::EdgeSel::kData);
  const auto de = v.outEdges(n, cdfg::EdgeSel::kData);
  const auto cn = v.successors(n, cdfg::EdgeSel::kControl);
  const auto ce = v.outEdges(n, cdfg::EdgeSel::kControl);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < dn.size() || j < cn.size()) {
    if (j >= cn.size() ||
        (i < dn.size() && de[i].value() < ce[j].value())) {
      f(dn[i], cdfg::EdgeKind::kData);
      ++i;
    } else {
      f(cn[j], cdfg::EdgeKind::kControl);
      ++j;
    }
  }
}

/// Contracts the design onto `members` (sorted, all non-transparent,
/// stamped with `epoch`, s.local = their index) into the empty `out`:
/// direct edges keep their kind; edges through copy chains become data
/// edges, path multiplicity kept (x + x through a copy stays a double
/// edge).
void contract(const cdfg::CsrView& view, const std::vector<NodeId>& members,
              std::uint32_t epoch, Scratch& s, cdfg::LocalCsr& out) {
  for (const NodeId v : members) {
    out.kinds.push_back(view.kind(v));
  }
  const auto inside = [&](NodeId q) { return s.mark[q.value()] == epoch; };
  for (const NodeId v : members) {
    forEachDataControlOut(view, v, [&](NodeId dst, cdfg::EdgeKind kind) {
      if (inside(dst)) {
        out.out.push_back(s.local[dst.value()]);
        out.out_kind.push_back(kind);
        return;
      }
      if (view.kind(dst) != cdfg::OpKind::kCopy) {
        return;  // boundary (pseudo-op or outside the member set)
      }
      // Expand the copy chain, preserving multiplicity (no dedup).
      s.stack.assign(1, dst);
      std::size_t guard = 0;
      while (!s.stack.empty() && ++guard < 4096) {
        const NodeId p = s.stack.back();
        s.stack.pop_back();
        forEachDataControlOut(view, p, [&](NodeId q, cdfg::EdgeKind) {
          if (view.kind(q) == cdfg::OpKind::kCopy) {
            s.stack.push_back(q);
          } else if (inside(q)) {
            out.out.push_back(s.local[q.value()]);
            out.out_kind.push_back(cdfg::EdgeKind::kData);
          }
        });
      }
    });
    out.out_off.push_back(static_cast<std::uint32_t>(out.out.size()));
  }
  out.buildInLists();
}

/// Canonical ranks of a contracted graph: rank_of[local] is its rank, or
/// kTied for automorphic nodes, which no locality may contain.  Returns
/// the ordering (local ids by ascending rank).
cdfg::NodeOrdering rankContracted(const cdfg::LocalCsr& graph,
                                  std::vector<std::uint32_t>& rank_of) {
  const std::vector<std::uint32_t> levels = cdfg::levelsOf(graph);
  cdfg::NodeOrdering ordering = cdfg::computeOrdering(graph, levels);
  rank_of.assign(graph.size(), IdentContext::kTied);
  for (std::size_t i = 0; i < ordering.ordered.size(); ++i) {
    const bool tied_prev =
        i > 0 && ordering.ranks[i] == ordering.ranks[i - 1];
    const bool tied_next = i + 1 < ordering.ranks.size() &&
                           ordering.ranks[i] == ordering.ranks[i + 1];
    if (!tied_prev && !tied_next) {
      rank_of[ordering.ordered[i].value()] = ordering.ranks[i];
    }
  }
  return ordering;
}

/// Builds the identification context of (root, Δ).  When To has fewer
/// than `min_to_size` members no carve can reach its minimum size, so
/// the context stops there, unidentified.
IdentContext identify(const cdfg::CsrView& view, const RealAdjacency& adj,
                      NodeId root, std::uint32_t max_distance,
                      std::size_t min_to_size) {
  IdentContext ctx;
  ctx.root = root;
  ctx.max_distance = max_distance;
  if (isTransparentKind(view.kind(root))) {
    return ctx;
  }
  LOCWM_OBS_SPAN("core.locality.context");
  Scratch& s = laneScratch();
  // --- Step 1a: the fanin tree To of max-distance Δ, real ops only — the
  // set the carve may select from (the paper's To).
  ball(adj, root, max_distance, /*undirected=*/false, s, s.to_nodes);
  ctx.to_size = s.to_nodes.size();
  if (ctx.to_size < min_to_size) {
    return ctx;
  }
  // --- Step 1b: the *identification context*: the undirected ball of the
  // same radius.  Fanin-only context cannot tell symmetric taps apart
  // (their difference lies in who consumes them); the undirected ball is
  // still root-anchored and structural, so the detector re-derives it
  // identically.  Pseudo-ops (the design's port boundary) are never
  // crossed, keeping the context invariant under host embedding.
  const std::uint32_t epoch =
      ball(adj, root, max_distance, /*undirected=*/true, s, ctx.members);
  std::sort(ctx.members.begin(), ctx.members.end());
  for (std::size_t i = 0; i < ctx.members.size(); ++i) {
    s.local[ctx.members[i].value()] = static_cast<std::uint32_t>(i);
  }
  ctx.root_local = s.local[root.value()];
  ctx.in_to.assign(ctx.members.size(), 0);
  for (const NodeId v : s.to_nodes) {  // To ⊆ the undirected ball
    ctx.in_to[s.local[v.value()]] = 1;
  }

  // --- Step 2: canonical ordering of the contracted context.  Automorphic
  // nodes (tied ranks) cannot be identified reproducibly on a re-indexed
  // copy, so they are barred from the carve; the root itself must be
  // uniquely identified.
  contract(view, ctx.members, epoch, s, ctx.graph);
  (void)rankContracted(ctx.graph, ctx.rank_of);
  LOCWM_OBS_COUNT("core.locality.contexts", 1);
  ctx.identified = ctx.rank_of[ctx.root_local] != IdentContext::kTied;
  if (!ctx.identified) {
    return ctx;
  }

  // Carve candidates per To member: distinct predecessors in To, untied,
  // by rank.  Key-independent, so every carve of the context shares them.
  const std::size_t n = ctx.members.size();
  ctx.select_off.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (ctx.in_to[v] != 0) {
      const std::size_t from = ctx.select.size();
      for (const std::uint32_t p : ctx.graph.predecessors(v)) {
        if (ctx.in_to[p] != 0 && ctx.rank_of[p] != IdentContext::kTied) {
          ctx.select.push_back(p);
        }
      }
      const auto byRank = [&](std::uint32_t a, std::uint32_t b) {
        return ctx.rank_of[a] < ctx.rank_of[b];
      };
      std::sort(ctx.select.begin() + static_cast<std::ptrdiff_t>(from),
                ctx.select.end(), byRank);
      ctx.select.erase(
          std::unique(ctx.select.begin() + static_cast<std::ptrdiff_t>(from),
                      ctx.select.end()),
          ctx.select.end());
    }
    ctx.select_off[v + 1] = static_cast<std::uint32_t>(ctx.select.size());
  }
  return ctx;
}

/// Step 3: the keyed breadth-first carve of T ⊆ To.  On success
/// s.carve_list holds T's local ids by ascending rank and s.carved[v] is
/// v's position in it + 1 (0 for uncarved nodes).
bool carveLocal(const IdentContext& ctx, const LocalityParams& params,
                crypto::KeyedBitstream& bits, Scratch& s) {
  LOCWM_OBS_SPAN("core.locality.derive");
  LOCWM_OBS_COUNT("core.locality.derive_calls", 1);
  if (!ctx.identified || ctx.to_size < params.min_size) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return false;
  }
  const auto byRank = [&](std::uint32_t a, std::uint32_t b) {
    return ctx.rank_of[a] < ctx.rank_of[b];
  };
  s.carved.assign(ctx.members.size(), 0);
  s.carved[ctx.root_local] = 1;
  s.carve_list.assign(1, ctx.root_local);
  s.carve_frontier.assign(1, ctx.root_local);
  while (!s.carve_frontier.empty()) {
    // Deterministic frontier order: ascending canonical rank.
    std::sort(s.carve_frontier.begin(), s.carve_frontier.end(), byRank);
    s.carve_next.clear();
    for (const std::uint32_t v : s.carve_frontier) {
      const std::uint32_t lo = ctx.select_off[v];
      const std::uint32_t count = ctx.select_off[v + 1] - lo;
      if (count == 0) {
        continue;
      }
      // At least one input is always included; each remaining input is
      // excluded with a fixed probability.
      const std::size_t keep = bits.below(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        const bool include =
            i == keep || !bits.chance(params.exclude_prob_256, 256);
        const std::uint32_t p = ctx.select[lo + i];
        if (include && s.carved[p] == 0) {
          s.carved[p] = 1;
          s.carve_next.push_back(p);
          s.carve_list.push_back(p);
        }
      }
    }
    s.carve_frontier.swap(s.carve_next);
  }
  if (s.carve_list.size() < params.min_size) {
    LOCWM_OBS_COUNT("core.locality.rejected", 1);
    return false;
  }
  std::sort(s.carve_list.begin(), s.carve_list.end(), byRank);
  for (std::size_t i = 0; i < s.carve_list.size(); ++i) {
    s.carved[s.carve_list[i]] = static_cast<std::uint32_t>(i) + 1;
  }
  LOCWM_OBS_COUNT("core.locality.accepted", 1);
  LOCWM_OBS_COUNT("core.locality.nodes_carved", s.carve_list.size());
  return true;
}

/// Materializes the locality of `list` (local ids in rank order; `slot`
/// maps a local id to its position + 1, or 0 outside the list).  The shape
/// is the induced contracted subgraph with node id == position, edges in
/// the contracted graph's order, no labels.
Locality assemble(NodeId root, const std::vector<NodeId>& members,
                  const cdfg::LocalCsr& graph,
                  const std::vector<std::uint32_t>& list,
                  const std::vector<std::uint32_t>& slot) {
  Locality result;
  result.root = root;
  result.nodes.reserve(list.size());
  for (const std::uint32_t v : list) {
    result.nodes.push_back(members[v]);
    (void)result.shape.addNode(graph.kinds[v]);
  }
  for (std::uint32_t u = 0; u < graph.size(); ++u) {
    if (slot[u] == 0) {
      continue;
    }
    for (std::uint32_t e = graph.out_off[u]; e < graph.out_off[u + 1]; ++e) {
      const std::uint32_t w = graph.out[e];
      if (slot[w] != 0) {
        (void)result.shape.addEdge(NodeId(slot[u] - 1), NodeId(slot[w] - 1),
                                   graph.out_kind[e]);
      }
    }
  }
  return result;
}

/// A certificate shape in the form a carve compares against: kinds per
/// rank and the sorted (src, dst, kind) edge list — shapeEquals() without
/// building the carved shape.
struct ShapeTarget {
  std::size_t node_count = 0;
  std::size_t edge_count = 0;
  std::vector<cdfg::OpKind> kinds;
  std::vector<Edge3> edges;

  explicit ShapeTarget(const cdfg::Cdfg& shape)
      : node_count(shape.nodeCount()), edge_count(shape.edgeCount()) {
    for (const cdfg::Node& n : shape.nodes()) {
      kinds.push_back(n.kind);
    }
    for (const cdfg::Edge& ed : shape.edges()) {
      edges.emplace_back(ed.src.value(), ed.dst.value(), ed.kind);
    }
    std::sort(edges.begin(), edges.end());
  }

  /// True when the carve in `s` (carveLocal succeeded) has this shape.
  [[nodiscard]] bool matches(const IdentContext& ctx, Scratch& s) const {
    if (s.carve_list.size() != node_count) {
      return false;
    }
    for (std::size_t i = 0; i < node_count; ++i) {
      if (ctx.graph.kinds[s.carve_list[i]] != kinds[i]) {
        return false;
      }
    }
    s.edges.clear();
    for (const std::uint32_t u : s.carve_list) {
      const std::uint32_t lo = ctx.graph.out_off[u];
      const std::uint32_t hi = ctx.graph.out_off[u + 1];
      for (std::uint32_t e = lo; e < hi; ++e) {
        const std::uint32_t w = ctx.graph.out[e];
        if (s.carved[w] != 0) {
          if (s.edges.size() == edge_count) {
            return false;
          }
          s.edges.emplace_back(s.carved[u] - 1, s.carved[w] - 1,
                               ctx.graph.out_kind[e]);
        }
      }
    }
    if (s.edges.size() != edge_count) {
      return false;
    }
    std::sort(s.edges.begin(), s.edges.end());
    return s.edges == edges;
  }
};

}  // namespace

LocalityDeriver::LocalityDeriver(const cdfg::Cdfg& graph)
    : csr_(graph), adjacency_(buildAdjacency(csr_)) {}

IdentContext LocalityDeriver::context(NodeId root,
                                      std::uint32_t max_distance) const {
  return identify(csr_, adjacency_, root, max_distance, /*min_to_size=*/0);
}

std::optional<Locality> LocalityDeriver::carve(
    const IdentContext& context, const LocalityParams& params,
    crypto::KeyedBitstream& bits) const {
  detail::check<WatermarkError>(
      context.max_distance == params.max_distance,
      "carve: the context was built at another max_distance");
  Scratch& s = laneScratch();
  if (!carveLocal(context, params, bits, s)) {
    return std::nullopt;
  }
  return assemble(context.root, context.members, context.graph, s.carve_list,
                  s.carved);
}

std::optional<Locality> LocalityDeriver::derive(
    NodeId root, const LocalityParams& params,
    crypto::KeyedBitstream& bits) const {
  return carve(identify(csr_, adjacency_, root, params.max_distance,
                        params.min_size),
               params, bits);
}

std::optional<Locality> LocalityDeriver::wholeDesign(
    std::size_t minSize) const {
  Scratch& s = laneScratch();
  std::vector<NodeId> real;
  const std::size_t n = csr_.nodeCount();
  const std::uint32_t epoch = s.newEpoch(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    if (!isTransparentKind(csr_.kind(v))) {
      s.mark[i] = epoch;
      s.local[i] = static_cast<std::uint32_t>(real.size());
      real.push_back(v);
    }
  }
  if (real.size() < minSize) {
    return std::nullopt;
  }
  cdfg::LocalCsr graph;
  contract(csr_, real, epoch, s, graph);
  std::vector<std::uint32_t> rank_of;
  const cdfg::NodeOrdering ordering = rankContracted(graph, rank_of);
  std::vector<std::uint32_t> untied;
  std::vector<std::uint32_t> slot(graph.size(), 0);
  for (const NodeId v : ordering.ordered) {
    if (rank_of[v.value()] != IdentContext::kTied) {
      untied.push_back(v.value());
      slot[v.value()] = static_cast<std::uint32_t>(untied.size());
    }
  }
  if (untied.size() < minSize) {
    return std::nullopt;
  }
  return assemble(NodeId::invalid(), real, graph, untied, slot);
}

std::array<std::uint32_t, cdfg::kOpKindCount> LocalityDeriver::faninKindCounts(
    NodeId root, std::uint32_t radius) const {
  std::array<std::uint32_t, cdfg::kOpKindCount> counts{};
  if (isTransparentKind(csr_.kind(root))) {
    return counts;
  }
  // Exactly the member set of the context's To.
  Scratch& s = laneScratch();
  ball(adjacency_, root, radius, /*undirected=*/false, s, s.to_nodes);
  for (const NodeId v : s.to_nodes) {
    counts[static_cast<std::size_t>(csr_.kind(v))] += 1;
  }
  return counts;
}

std::array<std::uint32_t, cdfg::kOpKindCount> LocalityDeriver::realKindCounts()
    const {
  std::array<std::uint32_t, cdfg::kOpKindCount> counts{};
  const std::size_t n = csr_.nodeCount();
  for (std::size_t i = 0; i < n; ++i) {
    const cdfg::OpKind kind = csr_.kind(NodeId(static_cast<std::uint32_t>(i)));
    if (!isTransparentKind(kind)) {
      counts[static_cast<std::size_t>(kind)] += 1;
    }
  }
  return counts;
}

std::vector<NodeId> LocalityDeriver::candidateRoots() const {
  std::vector<NodeId> roots;
  const std::size_t n = csr_.nodeCount();
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    if (!adjacency_.predecessors(v).empty()) {
      roots.push_back(v);
    }
  }
  return roots;
}

ReplayResult replayShapeMatches(const LocalityDeriver& deriver,
                                const std::vector<ShapeQuery>& queries) {
  LOCWM_OBS_SPAN("core.locality.shape_scan");
  const cdfg::CsrView& view = deriver.csr();
  std::vector<ShapeTarget> targets;
  targets.reserve(queries.size());
  // Each carve draws from a copy of its query's keyed carve stream: the
  // one the query brings, or one keyed here for a query that replays
  // somewhere and brings none.
  std::vector<std::optional<crypto::KeyedBitstream>> keyed(queries.size());
  std::vector<const crypto::KeyedBitstream*> carve_bits(queries.size());
  // One work item per (query, root occurrence) that a serial replay would
  // derive at, sorted root-major so each (root, Δ) is one contiguous group.
  struct Item {
    std::uint32_t root;
    std::uint32_t delta;
    std::uint32_t query;
    std::uint32_t index;
    auto operator<=>(const Item&) const = default;
  };
  std::vector<Item> items;
  std::vector<std::size_t> slot_base(queries.size() + 1, 0);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const ShapeQuery& query = queries[q];
    targets.emplace_back(*query.shape);
    LOCWM_OBS_COUNT("core.locality.shape_scan_roots", query.roots.size());
    const std::optional<cdfg::OpKind> root_kind = query.rootKind();
    const std::size_t first_item = items.size();
    for (std::size_t i = 0; i < query.roots.size(); ++i) {
      const NodeId root = query.roots[i];
      if (!root_kind.has_value() || view.kind(root) == *root_kind) {
        items.push_back({root.value(), query.params.max_distance,
                         static_cast<std::uint32_t>(q),
                         static_cast<std::uint32_t>(i)});
      }
    }
    carve_bits[q] = query.carve_bits;
    if (carve_bits[q] == nullptr && items.size() > first_item) {
      carve_bits[q] =
          &keyed[q].emplace(*query.signature, *query.context + "/carve");
    }
    slot_base[q + 1] = slot_base[q] + query.roots.size();
  }
  std::sort(items.begin(), items.end());
  std::vector<std::size_t> groups;  // start of each (root, Δ) group
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (k == 0 || items[k].root != items[k - 1].root ||
        items[k].delta != items[k - 1].delta) {
      groups.push_back(k);
    }
  }
  groups.push_back(items.size());

  // Each slot (query, root occurrence) and each group flag is written by
  // exactly one task; the serial fold below restores `roots` order.
  std::vector<std::optional<std::vector<NodeId>>> found(slot_base.back());
  std::vector<std::uint8_t> built(groups.size() - 1, 0);
  rt::parallel_for(0, groups.size() - 1, /*grain=*/1, [&](std::size_t g) {
    const std::size_t lo = groups[g];
    const std::size_t hi = groups[g + 1];
    std::size_t min_size = queries[items[lo].query].params.min_size;
    for (std::size_t k = lo + 1; k < hi; ++k) {
      min_size = std::min(min_size, queries[items[k].query].params.min_size);
    }
    const IdentContext ctx = identify(view, deriver.adjacency(),
                                      NodeId(items[lo].root), items[lo].delta,
                                      min_size);
    built[g] = ctx.graph.size() > 0 ? 1 : 0;
    Scratch& s = laneScratch();
    for (std::size_t k = lo; k < hi; ++k) {
      const Item& it = items[k];
      const ShapeQuery& query = queries[it.query];
      crypto::KeyedBitstream bits = *carve_bits[it.query];
      if (carveLocal(ctx, query.params, bits, s) &&
          targets[it.query].matches(ctx, s)) {
        std::vector<NodeId>& nodes = found[slot_base[it.query] + it.index]
                                         .emplace();
        for (const std::uint32_t v : s.carve_list) {
          nodes.push_back(ctx.members[v]);
        }
      }
    }
  });

  ReplayResult result;
  result.hits.resize(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t i = 0; i < queries[q].roots.size(); ++i) {
      std::optional<std::vector<NodeId>>& hit = found[slot_base[q] + i];
      if (hit.has_value()) {
        result.hits[q].push_back(
            ShapeHit{queries[q].roots[i], std::move(*hit)});
      }
    }
  }
  for (const std::uint8_t b : built) {
    result.contexts += b;
  }
  return result;
}

}  // namespace locwm::wm
