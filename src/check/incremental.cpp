#include "check/incremental.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>

#include "cdfg/operation.h"
#include "check/internal.h"
#include "rt/rt.h"

namespace locwm::check::delta {

using cdfg::Edge;
using cdfg::EdgeId;
using cdfg::EdgeKind;
using cdfg::EdgeSel;
using cdfg::NodeId;
using cdfg::OpKind;

namespace {

/// Batch width at which a rank level is worth fanning out to the pool.
constexpr std::size_t kParallelBatch = 24;

/// Rank-ordered change propagation: pops dirty nodes in key order (rank
/// forward, reversed rank backward), recomputes each node's value from
/// scratch, and enqueues dependents only on change.  Because every edge is
/// strictly rank-increasing, a node's inputs are all finalized before it
/// pops, so each node is recomputed at most once per batch — the in-queue
/// bitmap is never cleared.  Nodes sharing a key are mutually independent
/// (no edge connects equal ranks); wide batches recompute in parallel with
/// disjoint writes, so the result is byte-identical at any thread count.
///
/// recompute(NodeId) -> bool (value changed); forEachNext(NodeId, push)
/// enumerates the nodes whose value reads this one's.
template <typename Recompute, typename ForEachNext>
std::size_t propagateRanked(const std::vector<std::uint32_t>& rank,
                            bool forward, std::size_t n,
                            const std::vector<NodeId>& seeds,
                            Recompute&& recompute,
                            ForEachNext&& forEachNext) {
  const auto key = [&](std::uint32_t v) {
    return forward ? rank[v] : ~rank[v];
  };
  using Entry = std::pair<std::uint32_t, std::uint32_t>;  // (key, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  std::vector<char> in_queue(n, 0);
  for (const NodeId s : seeds) {
    if (in_queue[s.value()] == 0) {
      in_queue[s.value()] = 1;
      pq.emplace(key(s.value()), s.value());
    }
  }
  std::size_t recomputed = 0;
  std::vector<std::uint32_t> batch;
  std::vector<char> changed;
  while (!pq.empty()) {
    const std::uint32_t k = pq.top().first;
    batch.clear();
    while (!pq.empty() && pq.top().first == k) {
      batch.push_back(pq.top().second);
      pq.pop();
    }
    changed.assign(batch.size(), 0);
    if (batch.size() >= kParallelBatch) {
      rt::parallel_for(0, batch.size(), /*grain=*/4, [&](std::size_t i) {
        changed[i] = recompute(NodeId(batch[i])) ? 1 : 0;
      });
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        changed[i] = recompute(NodeId(batch[i])) ? 1 : 0;
      }
    }
    recomputed += batch.size();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (changed[i] == 0) {
        continue;
      }
      forEachNext(NodeId(batch[i]), [&](NodeId next) {
        if (in_queue[next.value()] == 0) {
          in_queue[next.value()] = 1;
          pq.emplace(key(next.value()), next.value());
        }
      });
    }
  }
  return recomputed;
}

bool isSource(OpKind kind) noexcept {
  return kind == OpKind::kInput || kind == OpKind::kConst;
}

bool isSink(OpKind kind) noexcept {
  return kind == OpKind::kOutput || detail::isSideEffecting(kind);
}

}  // namespace

IncrementalAnalysis::IncrementalAnalysis(cdfg::Cdfg g, std::string artifact)
    : g_(std::move(g)),
      csr_(g_),
      artifact_(std::move(artifact)),
      lat_(sched::LatencyModel::unit()) {
  fullRebuild();
}

void IncrementalAnalysis::rebuildRanks() {
  const std::size_t n = g_.nodeCount();
  rank_.assign(n, 0);
  std::vector<std::uint32_t> indegree(n, 0);
  for (const EdgeId e : g_.allEdges()) {
    ++indegree[g_.edge(e).dst.value()];
  }
  std::vector<std::uint32_t> fifo;
  fifo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) {
      fifo.push_back(static_cast<std::uint32_t>(i));
    }
  }
  std::size_t head = 0;
  while (head < fifo.size()) {
    const std::uint32_t v = fifo[head++];
    for (const EdgeId e : g_.outEdges(NodeId(v))) {
      const std::uint32_t d = g_.edge(e).dst.value();
      rank_[d] = std::max(rank_[d], rank_[v] + 1);
      if (--indegree[d] == 0) {
        fifo.push_back(d);
      }
    }
  }
  cyclic_ = fifo.size() != n;
}

bool IncrementalAnalysis::repairRanks(const cdfg::AppliedDelta& applied) {
  // Relax rank[dst] = max(rank[dst], rank[src] + 1) forward from the
  // violating added edges.  Ranks only rise, every rise re-checks the
  // node's successors, and in a DAG no rank can reach the node count —
  // crossing it means the batch closed a cycle and the caller must run
  // the full Kahn pass to classify it.
  const std::uint32_t limit = static_cast<std::uint32_t>(g_.nodeCount());
  std::vector<NodeId> stack;
  for (const EdgeId id : applied.added_edge_ids) {
    const Edge& e = g_.edge(id);
    if (rank_[e.src.value()] >= rank_[e.dst.value()]) {
      rank_[e.dst.value()] = rank_[e.src.value()] + 1;
      stack.push_back(e.dst);
    }
  }
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    if (rank_[v.value()] >= limit) {
      return false;
    }
    csr_.forEachOut(v, EdgeSel::kAll, [&](NodeId dst, EdgeId, EdgeKind) {
      if (rank_[dst.value()] <= rank_[v.value()]) {
        rank_[dst.value()] = rank_[v.value()] + 1;
        stack.push_back(dst);
      }
    });
  }
  return true;
}

void IncrementalAnalysis::fullRebuild() {
  csr_.rebase();
  const cdfg::CsrView& view = csr_.base();
  const std::size_t n = g_.nodeCount();
  rebuildRanks();
  temporal_ = g_.temporalEdges();

  lw601_.assign(g_.edgeTableSize(), 0);
  lw602_.assign(g_.edgeTableSize(), 0);
  node_verdict_.assign(n, 0);
  fwd_mark_.assign(n, 0);
  bwd_mark_.assign(n, 0);
  asap_.assign(n, 0);
  alap_.assign(n, 0);
  critical_ = 0;
  deadline_ = 0;
  closure_enabled_ = n <= kClosureNodeLimit;
  anc_ = BitRows();
  report_dirty_ = true;
  if (cyclic_) {
    return;  // semanticReport() mirrors checkSemantics' empty report
  }

  if (closure_enabled_) {
    anc_ = std::move(
        computePrecedenceClosure(view, EdgeMask::all()).domain.ancestors);
  }

  std::vector<NodeId> sinks;
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    if (isSink(view.kind(v))) {
      sinks.push_back(v);
    }
    if (isSource(view.kind(v))) {
      sources.push_back(v);
    }
  }
  fwd_mark_ = std::move(computeReachability(view, sources,
                                            Direction::kForward,
                                            EdgeMask::dataControl())
                            .domain.mark);
  bwd_mark_ = std::move(computeReachability(view, sinks,
                                            Direction::kBackward,
                                            EdgeMask::dataControl())
                            .domain.mark);

  SlackAnalysis slack = computeSlack(view, lat_, std::nullopt,
                                     EdgeMask::dataControl());
  asap_ = std::move(slack.asap);
  alap_ = std::move(slack.alap);
  critical_ = slack.critical;
  deadline_ = slack.deadline;

  const std::vector<EdgeId>& temporal = temporal_;
  rt::parallel_for(0, temporal.size(), /*grain=*/1, [&](std::size_t i) {
    lw601_[temporal[i].value()] = evalLw601(temporal[i]) ? 1 : 0;
  });
  for (const EdgeId te : temporal) {
    const Edge& e = g_.edge(te);
    lw602_[te.value()] =
        asap_[e.src.value()] + 1 > alap_[e.dst.value()] ? 1 : 0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    node_verdict_[i] = evalNodeVerdict(NodeId(static_cast<std::uint32_t>(i)));
  }
}

bool IncrementalAnalysis::hasPathSkippingDelta(NodeId from, NodeId to,
                                               EdgeId skip,
                                               EdgeSel sel) const {
  if (!from.isValid() || !to.isValid() || from == to) {
    return from == to;
  }
  std::vector<char> seen(g_.nodeCount(), 0);
  std::vector<NodeId> stack{from};
  seen[from.value()] = 1;
  bool found = false;
  // Rank pruning: every edge is strictly rank-increasing, so only nodes
  // ranked below `to` can lie on a path to it.
  const std::uint32_t to_rank = rank_[to.value()];
  while (!stack.empty() && !found) {
    const NodeId v = stack.back();
    stack.pop_back();
    csr_.forEachOut(v, sel, [&](NodeId dst, EdgeId id, EdgeKind) {
      if (found || id == skip) {
        return;
      }
      if (dst == to) {
        found = true;
        return;
      }
      if (seen[dst.value()] == 0 && rank_[dst.value()] < to_rank) {
        seen[dst.value()] = 1;
        stack.push_back(dst);
      }
    });
  }
  return found;
}

bool IncrementalAnalysis::evalLw601(EdgeId te) const {
  const Edge& e = g_.edge(te);
  // One diagnostic per defect: implication by data/control structure alone
  // is LW104's finding.
  if (hasPathSkippingDelta(e.src, e.dst, te, EdgeSel::kDataControl)) {
    return false;
  }
  if (closure_enabled_) {
    bool implied = false;
    csr_.forEachOut(e.src, EdgeSel::kAll, [&](NodeId m, EdgeId id, EdgeKind) {
      if (id == te || implied) {
        return;
      }
      if (m == e.dst || anc_.test(e.dst.value(), m.value())) {
        implied = true;
      }
    });
    return implied;
  }
  return hasPathSkippingDelta(e.src, e.dst, te, EdgeSel::kAll);
}

std::uint8_t IncrementalAnalysis::evalNodeVerdict(NodeId n) const {
  const OpKind kind = csr_.kind(n);
  if (cdfg::isPseudoOp(kind) || detail::isSideEffecting(kind)) {
    return 0;
  }
  std::size_t degree = 0;
  csr_.forEachIn(n, EdgeSel::kAll,
                 [&](NodeId, EdgeId, EdgeKind) { ++degree; });
  csr_.forEachOut(n, EdgeSel::kAll,
                  [&](NodeId, EdgeId, EdgeKind) { ++degree; });
  if (degree == 0) {
    return 0;  // orphan: LW105's finding
  }
  if (bwd_mark_[n.value()] == 0) {
    return 1;
  }
  if (fwd_mark_[n.value()] == 0) {
    return 2;
  }
  return 0;
}

void IncrementalAnalysis::repairSlack(
    const std::vector<NodeId>& dc_dst_seeds,
    const std::vector<NodeId>& dc_src_seeds, std::vector<char>& asap_changed,
    std::vector<char>& alap_changed, DeltaStats& stats) {
  const std::size_t n = g_.nodeCount();

  stats.asap_recomputed += propagateRanked(
      rank_, /*forward=*/true, n, dc_dst_seeds,
      [&](NodeId v) {
        std::uint32_t val = 0;
        csr_.forEachIn(v, EdgeSel::kDataControl,
                       [&](NodeId src, EdgeId, EdgeKind kind) {
                         val = std::max(val, asap_[src.value()] +
                                                 lat_.edgeGap(csr_.kind(src),
                                                              kind));
                       });
        if (val == asap_[v.value()]) {
          return false;
        }
        asap_[v.value()] = val;
        asap_changed[v.value()] = 1;
        return true;
      },
      [&](NodeId v, auto&& push) {
        csr_.forEachOut(v, EdgeSel::kDataControl,
                        [&](NodeId dst, EdgeId, EdgeKind) { push(dst); });
      });

  std::uint32_t new_critical = 0;
  for (std::size_t i = 0; i < n; ++i) {
    new_critical = std::max(
        new_critical,
        asap_[i] + lat_.latency(csr_.kind(NodeId(
                       static_cast<std::uint32_t>(i)))));
  }
  const std::uint32_t new_deadline = new_critical;  // checkSemantics' choice
  if (new_deadline != deadline_) {
    // The old ALAP table is the exact fixpoint of the old graph under the
    // old deadline; with deadline >= critical the min-plus clamp never
    // binds, so shifting every frame by the deadline delta is the exact
    // fixpoint of the old graph under the new deadline.  The structural
    // repair below then moves old graph -> new graph.
    const std::int64_t shift = static_cast<std::int64_t>(new_deadline) -
                               static_cast<std::int64_t>(deadline_);
    for (std::size_t i = 0; i < n; ++i) {
      alap_[i] = static_cast<std::uint32_t>(
          static_cast<std::int64_t>(alap_[i]) + shift);
    }
  }
  critical_ = new_critical;
  deadline_ = new_deadline;

  stats.alap_recomputed += propagateRanked(
      rank_, /*forward=*/false, n, dc_src_seeds,
      [&](NodeId v) {
        std::uint32_t val = deadline_ - lat_.latency(csr_.kind(v));
        csr_.forEachOut(v, EdgeSel::kDataControl,
                        [&](NodeId dst, EdgeId, EdgeKind kind) {
                          const std::uint32_t gap =
                              lat_.edgeGap(csr_.kind(v), kind);
                          const std::uint32_t succ = alap_[dst.value()];
                          val = std::min(val,
                                         succ >= gap ? succ - gap : 0U);
                        });
        if (val == alap_[v.value()]) {
          return false;
        }
        alap_[v.value()] = val;
        alap_changed[v.value()] = 1;
        return true;
      },
      [&](NodeId v, auto&& push) {
        csr_.forEachIn(v, EdgeSel::kDataControl,
                       [&](NodeId src, EdgeId, EdgeKind) { push(src); });
      });
}

void IncrementalAnalysis::repairReach(const std::vector<NodeId>& dc_dst_seeds,
                                      const std::vector<NodeId>& dc_src_seeds,
                                      std::vector<char>& fwd_changed,
                                      std::vector<char>& bwd_changed,
                                      DeltaStats& stats) {
  const std::size_t n = g_.nodeCount();
  stats.reach_recomputed += propagateRanked(
      rank_, /*forward=*/true, n, dc_dst_seeds,
      [&](NodeId v) {
        char val = isSource(csr_.kind(v)) ? 1 : 0;
        csr_.forEachIn(v, EdgeSel::kDataControl,
                       [&](NodeId src, EdgeId, EdgeKind) {
                         val |= fwd_mark_[src.value()];
                       });
        if (val == fwd_mark_[v.value()]) {
          return false;
        }
        fwd_mark_[v.value()] = val;
        fwd_changed[v.value()] = 1;
        return true;
      },
      [&](NodeId v, auto&& push) {
        csr_.forEachOut(v, EdgeSel::kDataControl,
                        [&](NodeId dst, EdgeId, EdgeKind) { push(dst); });
      });
  stats.reach_recomputed += propagateRanked(
      rank_, /*forward=*/false, n, dc_src_seeds,
      [&](NodeId v) {
        char val = isSink(csr_.kind(v)) ? 1 : 0;
        csr_.forEachOut(v, EdgeSel::kDataControl,
                        [&](NodeId dst, EdgeId, EdgeKind) {
                          val |= bwd_mark_[dst.value()];
                        });
        if (val == bwd_mark_[v.value()]) {
          return false;
        }
        bwd_mark_[v.value()] = val;
        bwd_changed[v.value()] = 1;
        return true;
      },
      [&](NodeId v, auto&& push) {
        csr_.forEachIn(v, EdgeSel::kDataControl,
                       [&](NodeId src, EdgeId, EdgeKind) { push(src); });
      });
}

void IncrementalAnalysis::repairClosure(const cdfg::AppliedDelta& applied,
                                        DeltaStats& stats) {
  const std::size_t n = g_.nodeCount();
  std::vector<NodeId> seeds;
  for (const EdgeId id : applied.added_edge_ids) {
    seeds.push_back(g_.edge(id).dst);
  }
  for (const Edge& e : applied.removed_edges) {
    seeds.push_back(e.dst);
  }
  stats.closure_rows += propagateRanked(
      rank_, /*forward=*/true, n, seeds,
      [&](NodeId v) {
        // A row per recompute: wide rank levels recompute in parallel, so
        // no two nodes may share scratch.
        BitRows scratch(1, n);
        csr_.forEachIn(v, EdgeSel::kAll,
                       [&](NodeId src, EdgeId, EdgeKind) {
                         scratch.set(0, src.value());
                         scratch.unionRowFrom(anc_, 0, src.value());
                       });
        if (scratch.rowEquals(anc_, 0, v.value())) {
          return false;
        }
        anc_.copyRowFrom(scratch, v.value(), 0);
        return true;
      },
      [&](NodeId v, auto&& push) {
        csr_.forEachOut(v, EdgeSel::kAll,
                        [&](NodeId dst, EdgeId, EdgeKind) { push(dst); });
      });
}

void IncrementalAnalysis::repairLw601(const cdfg::AppliedDelta& applied,
                                      DeltaStats& stats) {
  if (temporal_.empty()) {
    return;
  }
  // Affected region: everything forward-reachable (any edge kind, seeds
  // included) from the touched frontier.  Any path src->dst that appeared
  // or vanished has a suffix free of changed edges starting at a changed
  // edge's head, so dst lies in this region (see docs/STATIC_ANALYSIS.md).
  // Only temporal-edge *destinations* consume the region, so the walk
  // stops as soon as every one of them is classified.
  const std::size_t n = g_.nodeCount();
  std::vector<char> region(n, 0);
  std::vector<char> is_dst(n, 0);
  std::size_t undecided = 0;
  for (const EdgeId te : temporal_) {
    const std::uint32_t d = g_.edge(te).dst.value();
    if (is_dst[d] == 0) {
      is_dst[d] = 1;
      ++undecided;
    }
  }
  std::vector<NodeId> stack;
  const auto mark = [&](NodeId v) {
    if (region[v.value()] != 0) {
      return;
    }
    region[v.value()] = 1;
    if (is_dst[v.value()] != 0) {
      --undecided;
    }
    stack.push_back(v);
  };
  for (const NodeId v : applied.touched_nodes) {
    mark(v);
  }
  while (!stack.empty() && undecided > 0) {
    const NodeId v = stack.back();
    stack.pop_back();
    csr_.forEachOut(v, EdgeSel::kAll,
                    [&](NodeId dst, EdgeId, EdgeKind) { mark(dst); });
  }

  std::vector<char> added(g_.edgeTableSize(), 0);
  for (const EdgeId id : applied.added_edge_ids) {
    added[id.value()] = 1;
  }
  std::vector<EdgeId> dirty;
  for (const EdgeId te : temporal_) {
    if (added[te.value()] != 0 || region[g_.edge(te).dst.value()] != 0) {
      dirty.push_back(te);
    }
  }
  if (dirty.empty()) {
    return;
  }
  std::vector<char> verdict(dirty.size(), 0);
  rt::parallel_for(0, dirty.size(), /*grain=*/1, [&](std::size_t i) {
    verdict[i] = evalLw601(dirty[i]) ? 1 : 0;
  });
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (lw601_[dirty[i].value()] != verdict[i]) {
      lw601_[dirty[i].value()] = verdict[i];
      report_dirty_ = true;
    }
  }
  stats.lw601_evals += dirty.size();
}

void IncrementalAnalysis::repairLw602(const cdfg::AppliedDelta& applied,
                                      bool critical_moved,
                                      const std::vector<char>& asap_changed,
                                      const std::vector<char>& alap_changed,
                                      DeltaStats& stats) {
  if (temporal_.empty()) {
    return;
  }
  std::vector<char> added(g_.edgeTableSize(), 0);
  for (const EdgeId id : applied.added_edge_ids) {
    added[id.value()] = 1;
  }
  for (const EdgeId te : temporal_) {
    const Edge& e = g_.edge(te);
    if (!critical_moved && added[te.value()] == 0 &&
        asap_changed[e.src.value()] == 0 &&
        alap_changed[e.dst.value()] == 0) {
      continue;
    }
    const char verdict =
        asap_[e.src.value()] + 1 > alap_[e.dst.value()] ? 1 : 0;
    if (lw602_[te.value()] != verdict) {
      lw602_[te.value()] = verdict;
      report_dirty_ = true;
    }
    ++stats.lw602_evals;
  }
}

void IncrementalAnalysis::repairNodeVerdicts(
    const cdfg::AppliedDelta& applied, bool dc_changed,
    const std::vector<char>& fwd_changed,
    const std::vector<char>& bwd_changed, DeltaStats& stats) {
  const std::size_t n = g_.nodeCount();
  std::vector<NodeId> dirty;
  if (dc_changed) {
    std::vector<char> dirty_map(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      dirty_map[i] = static_cast<char>(fwd_changed[i] | bwd_changed[i]);
    }
    for (const NodeId v : applied.touched_nodes) {
      dirty_map[v.value()] = 1;  // degree flips move the orphan gate
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (dirty_map[i] != 0) {
        dirty.emplace_back(static_cast<std::uint32_t>(i));
      }
    }
  } else {
    // Temporal-only batch: the marks cannot have moved, so only the
    // touched endpoints' degrees (the orphan gate) need re-deriving.
    dirty = applied.touched_nodes;
    std::sort(dirty.begin(), dirty.end(),
              [](NodeId a, NodeId b) { return a.value() < b.value(); });
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }
  if (dirty.empty()) {
    return;
  }
  std::vector<std::uint8_t> verdict(dirty.size(), 0);
  rt::parallel_for(0, dirty.size(), /*grain=*/16, [&](std::size_t i) {
    verdict[i] = evalNodeVerdict(dirty[i]);
  });
  for (std::size_t i = 0; i < dirty.size(); ++i) {
    if (node_verdict_[dirty[i].value()] != verdict[i]) {
      node_verdict_[dirty[i].value()] = verdict[i];
      report_dirty_ = true;
    }
  }
  stats.node_evals += dirty.size();
}

DeltaStats IncrementalAnalysis::applyDelta(const cdfg::EditDelta& delta,
                                           cdfg::AppliedDelta* applied) {
  DeltaStats stats;
  const cdfg::AppliedDelta ap = cdfg::applyDelta(g_, csr_, delta);
  if (applied != nullptr) {
    *applied = ap;
  }
  stats.rejected_ops = ap.rejected.size();
  stats.accepted_ops = delta.ops.size() - ap.rejected.size();
  stats.relowered = ap.relowered;
  if (!ap.any()) {
    return stats;
  }

  lw601_.resize(g_.edgeTableSize(), 0);
  lw602_.resize(g_.edgeTableSize(), 0);

  // Keep the live temporal-edge index current (ascending ids — the report
  // emission order).
  const auto id_less = [](EdgeId a, EdgeId b) {
    return a.value() < b.value();
  };
  for (std::size_t i = 0; i < ap.removed_edge_ids.size(); ++i) {
    if (ap.removed_edges[i].kind != EdgeKind::kTemporal) {
      continue;
    }
    const auto it = std::lower_bound(temporal_.begin(), temporal_.end(),
                                     ap.removed_edge_ids[i], id_less);
    if (it != temporal_.end() && *it == ap.removed_edge_ids[i]) {
      temporal_.erase(it);
    }
  }
  for (const EdgeId id : ap.added_edge_ids) {
    if (g_.edge(id).kind != EdgeKind::kTemporal) {
      continue;
    }
    temporal_.insert(
        std::lower_bound(temporal_.begin(), temporal_.end(), id, id_less),
        id);
  }

  // Removed temporal edges leave the report outright.
  for (std::size_t i = 0; i < ap.removed_edge_ids.size(); ++i) {
    if (ap.removed_edges[i].kind != EdgeKind::kTemporal) {
      continue;
    }
    const std::uint32_t id = ap.removed_edge_ids[i].value();
    if (lw601_[id] != 0 || lw602_[id] != 0) {
      report_dirty_ = true;
    }
    lw601_[id] = 0;
    lw602_[id] = 0;
  }

  const bool was_cyclic = cyclic_;
  bool ranks_ok = !was_cyclic && ap.added_nodes.empty();
  if (ranks_ok) {
    bool violated = false;
    for (const EdgeId id : ap.added_edge_ids) {
      const Edge& e = g_.edge(id);
      if (rank_[e.src.value()] >= rank_[e.dst.value()]) {
        violated = true;
        break;
      }
    }
    if (violated) {
      ranks_ok = repairRanks(ap);
    }
  }
  if (!ranks_ok) {
    rebuildRanks();
    stats.ranks_rebuilt = true;
  }

  if (cyclic_) {
    // Mirror of checkSemantics' acyclic guard: no analysis is valid, the
    // report is empty.  The next delta that restores a DAG rebuilds.
    if (!was_cyclic) {
      report_dirty_ = true;
    }
    return stats;
  }
  if (was_cyclic || !ap.added_nodes.empty()) {
    fullRebuild();
    stats.full_rebuild = true;
    stats.relowered = true;
    return stats;
  }

  // Edge-only incremental path.
  const std::size_t n = g_.nodeCount();
  std::vector<NodeId> dc_dst_seeds;
  std::vector<NodeId> dc_src_seeds;
  bool dc_changed = false;
  const auto classify = [&](const Edge& e) {
    if (e.kind == EdgeKind::kTemporal) {
      return;
    }
    dc_changed = true;
    dc_dst_seeds.push_back(e.dst);
    dc_src_seeds.push_back(e.src);
  };
  for (const EdgeId id : ap.added_edge_ids) {
    classify(g_.edge(id));
  }
  for (const Edge& e : ap.removed_edges) {
    classify(e);
  }

  std::vector<char> asap_changed;
  std::vector<char> alap_changed;
  std::vector<char> fwd_changed;
  std::vector<char> bwd_changed;
  bool critical_moved = false;
  if (dc_changed) {
    asap_changed.assign(n, 0);
    alap_changed.assign(n, 0);
    fwd_changed.assign(n, 0);
    bwd_changed.assign(n, 0);
    const std::uint32_t old_critical = critical_;
    repairSlack(dc_dst_seeds, dc_src_seeds, asap_changed, alap_changed,
                stats);
    critical_moved = critical_ != old_critical;
    repairReach(dc_dst_seeds, dc_src_seeds, fwd_changed, bwd_changed, stats);
  } else {
    // Temporal-only batch: the dataControl-masked analyses cannot move.
    asap_changed.assign(n, 0);
    alap_changed.assign(n, 0);
    fwd_changed.assign(n, 0);
    bwd_changed.assign(n, 0);
  }

  if (closure_enabled_) {
    repairClosure(ap, stats);
  }
  repairLw601(ap, stats);
  repairLw602(ap, critical_moved, asap_changed, alap_changed, stats);
  repairNodeVerdicts(ap, dc_changed, fwd_changed, bwd_changed, stats);
  if (critical_moved) {
    report_dirty_ = true;  // LW602 messages embed the critical path
  }
  stats.report_rebuilt = report_dirty_;
  return stats;
}

void IncrementalAnalysis::rebuildReportCache() {
  report_ = Report();
  if (!cyclic_) {
    for (const EdgeId te : temporal_) {
      if (lw601_[te.value()] != 0) {
        report_.add(detail::lw601Diag(artifact_, g_.edge(te)));
      }
    }
    for (const EdgeId te : temporal_) {
      if (lw602_[te.value()] != 0) {
        report_.add(detail::lw602Diag(artifact_, g_.edge(te), critical_));
      }
    }
    for (std::size_t i = 0; i < node_verdict_.size(); ++i) {
      const NodeId v(static_cast<std::uint32_t>(i));
      if (node_verdict_[i] == 1) {
        report_.add(detail::lw603Diag(artifact_, g_, v));
      } else if (node_verdict_[i] == 2) {
        report_.add(detail::lw604Diag(artifact_, g_, v));
      }
    }
  }
  report_text_ = report_.renderText();
  report_dirty_ = false;
}

const Report& IncrementalAnalysis::semanticReport() {
  if (report_dirty_) {
    rebuildReportCache();
  }
  return report_;
}

const std::string& IncrementalAnalysis::semanticReportText() {
  if (report_dirty_) {
    rebuildReportCache();
  }
  return report_text_;
}

}  // namespace locwm::check::delta
