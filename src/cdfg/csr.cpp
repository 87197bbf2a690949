#include "cdfg/csr.h"

#include "obs/obs.h"

namespace locwm::cdfg {

CsrView::CsrView(const Cdfg& g) {
  nodes_ = g.nodeCount();
  edges_ = g.edgeCount();
  const std::size_t n = nodes_;
  const std::size_t e = edges_;

  const std::size_t off_words = 3 * n + 1;       // per direction
  const std::size_t kind_words = (n + 3) / 4;    // one byte per node, packed
  arena_.assign(2 * off_words + 4 * e + kind_words, 0);

  std::uint32_t* out_off = arena_.data();
  std::uint32_t* in_off = out_off + off_words;
  std::uint32_t* out_node = in_off + off_words;
  std::uint32_t* out_edge = out_node + e;
  std::uint32_t* in_node = out_edge + e;
  std::uint32_t* in_edge = in_node + e;
  auto* kinds = reinterpret_cast<std::uint8_t*>(in_edge + e);

  const std::vector<Node>& node_tab = g.nodes();
  for (std::size_t v = 0; v < n; ++v) {
    kinds[v] = static_cast<std::uint8_t>(node_tab[v].kind);
  }

  // Counting sort by (node, kind) over the LIVE edges — the edge table may
  // carry tombstones (graph.h removal semantics).  Pass 1: segment sizes,
  // stored one slot ahead so the exclusive prefix sum can run in place.
  const std::vector<Edge>& edge_tab = g.edges();
  const std::size_t table = g.edgeTableSize();
  for (std::size_t id = 0; id < table; ++id) {
    if (!g.edgeAlive(EdgeId(static_cast<std::uint32_t>(id)))) {
      continue;
    }
    const Edge& ed = edge_tab[id];
    const auto k = static_cast<std::size_t>(ed.kind);
    ++out_off[std::size_t{3} * ed.src.value() + k + 1];
    ++in_off[std::size_t{3} * ed.dst.value() + k + 1];
  }
  for (std::size_t i = 1; i < off_words; ++i) {
    out_off[i] += out_off[i - 1];
    in_off[i] += in_off[i - 1];
  }

  // Pass 2: fill in edge-id order, so within each (node, kind) segment
  // neighbours keep edge-insertion order — matching the relative order the
  // builder accessors produce.  Cursors start at the segment offsets.
  std::vector<std::uint32_t> out_cur(out_off, out_off + off_words - 1);
  std::vector<std::uint32_t> in_cur(in_off, in_off + off_words - 1);
  for (std::size_t id = 0; id < table; ++id) {
    if (!g.edgeAlive(EdgeId(static_cast<std::uint32_t>(id)))) {
      continue;
    }
    const Edge& ed = edge_tab[id];
    const auto k = static_cast<std::size_t>(ed.kind);
    const std::uint32_t o = out_cur[std::size_t{3} * ed.src.value() + k]++;
    out_node[o] = ed.dst.value();
    out_edge[o] = static_cast<std::uint32_t>(id);
    const std::uint32_t i = in_cur[std::size_t{3} * ed.dst.value() + k]++;
    in_node[i] = ed.src.value();
    in_edge[i] = static_cast<std::uint32_t>(id);
  }

  out_off_ = out_off;
  in_off_ = in_off;
  out_node_ = reinterpret_cast<const NodeId*>(out_node);
  out_edge_ = reinterpret_cast<const EdgeId*>(out_edge);
  in_node_ = reinterpret_cast<const NodeId*>(in_node);
  in_edge_ = reinterpret_cast<const EdgeId*>(in_edge);
  kinds_ = kinds;

  LOCWM_OBS_GAUGE_MAX("cdfg.csr.arena_bytes", memoryBytes());
}

std::vector<NodeId> topologicalOrder(const CsrView& v, EdgeSel sel) {
  const std::size_t n = v.nodeCount();
  std::vector<std::uint32_t> indegree(n);
  std::vector<NodeId> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId node(static_cast<std::uint32_t>(i));
    indegree[i] = static_cast<std::uint32_t>(v.inDegree(node, sel));
    if (indegree[i] == 0) {
      order.push_back(node);
    }
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const NodeId dst : v.successors(order[head], sel)) {
      if (--indegree[dst.value()] == 0) {
        order.push_back(dst);
      }
    }
  }
  return order;
}

void LocalCsr::buildInLists() {
  const std::size_t n = kinds.size();
  in_off.assign(n + 1, 0);
  for (const std::uint32_t dst : out) {
    ++in_off[dst + 1];
  }
  for (std::size_t v = 0; v < n; ++v) {
    in_off[v + 1] += in_off[v];
  }
  in.resize(out.size());
  std::vector<std::uint32_t> cursor(in_off.begin(), in_off.end() - 1);
  for (std::uint32_t src = 0; src < n; ++src) {
    for (std::uint32_t e = out_off[src]; e < out_off[src + 1]; ++e) {
      in[cursor[out[e]]++] = src;
    }
  }
}

}  // namespace locwm::cdfg
