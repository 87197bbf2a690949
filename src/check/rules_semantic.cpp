// Semantic rules (LW6xx).  Where LW1xx asserts structural well-formedness,
// these rules interpret the graph: transitive precedence (is a watermark
// edge redundant once *all* constraints are considered?), scheduling slack
// (does an edge stretch the dependence-only critical path?), and
// reachability/liveness (does an operation contribute to any output?).
// Each is one pass over the acyclic design: the batched path queries of
// check/paths.h, the reachability of check/dataflow.h, and the ASAP/ALAP
// windows of sched::TimeFrames.
#include <optional>
#include <string>
#include <vector>

#include "cdfg/csr.h"
#include "check/dataflow.h"
#include "check/internal.h"
#include "check/paths.h"
#include "check/rules.h"
#include "sched/latency.h"
#include "sched/timeframes.h"

namespace locwm::check {
namespace {

using cdfg::NodeId;
using cdfg::OpKind;
using detail::isSideEffecting;

/// LW601: a temporal edge implied by the *rest* of the precedence relation
/// (other temporal edges included) constrains nothing.  LW104 already
/// covers implication by data/control structure alone, so this rule fires
/// only when the implication needs at least one other temporal edge —
/// typically a buggy embedder stacking constraints onto one chain.
void checkRedundantTemporal(Report& r, const cdfg::Cdfg& g,
                            const cdfg::CsrView& view,
                            const std::vector<NodeId>& order,
                            const std::string& artifact) {
  const std::vector<cdfg::EdgeId> temporal = g.temporalEdges();
  const std::vector<char> implied =
      detail::lw601Verdicts(g, view, order, temporal);
  for (std::size_t i = 0; i < temporal.size(); ++i) {
    if (implied[i] != 0) {
      r.add(detail::lw601Diag(artifact, g.edge(temporal[i])));
    }
  }
}

/// LW602: a temporal edge that cannot be satisfied within the
/// dependence-only critical path stretches the schedule — a latency cost
/// the published design pays, and exactly the kind of anomaly an adversary
/// profiles for (§IV-A picks high-laxity pairs to avoid this).
void checkStretchingTemporal(Report& r, const cdfg::Cdfg& g,
                             const cdfg::CsrView& view,
                             const std::string& artifact) {
  const std::vector<cdfg::EdgeId> temporal = g.temporalEdges();
  if (temporal.empty()) {
    return;
  }
  const sched::TimeFrames frames(view, sched::LatencyModel::unit(),
                                 std::nullopt, /*includeTemporal=*/false);
  for (const cdfg::EdgeId te : temporal) {
    const cdfg::Edge& e = g.edge(te);
    if (frames.asap(e.src) + 1 > frames.alap(e.dst)) {
      r.add(detail::lw602Diag(artifact, e, frames.criticalPathSteps()));
    }
  }
}

/// LW603/LW604: liveness and reachability.  Dead: no data/control path to
/// a primary output or side-effecting operation.  Unreachable: no
/// data/control path from a primary input or constant.  Orphans (no edges
/// at all) are LW105's finding and excluded here.
void checkLiveness(Report& r, const cdfg::Cdfg& g, const cdfg::CsrView& view,
                   const std::string& artifact) {
  std::vector<NodeId> sinks;
  std::vector<NodeId> sources;
  const std::size_t n_count = view.nodeCount();
  for (std::size_t i = 0; i < n_count; ++i) {
    const NodeId n(static_cast<std::uint32_t>(i));
    const OpKind kind = view.kind(n);
    if (kind == OpKind::kOutput || isSideEffecting(kind)) {
      sinks.push_back(n);
    }
    if (kind == OpKind::kInput || kind == OpKind::kConst) {
      sources.push_back(n);
    }
  }
  const Reachability live =
      computeReachability(view, sinks, Direction::kBackward);
  const Reachability reachable =
      computeReachability(view, sources, Direction::kForward);

  for (std::size_t i = 0; i < n_count; ++i) {
    const NodeId n(static_cast<std::uint32_t>(i));
    const OpKind kind = view.kind(n);
    if (cdfg::isPseudoOp(kind) || isSideEffecting(kind)) {
      continue;
    }
    if (view.inDegree(n, cdfg::EdgeSel::kAll) == 0 &&
        view.outDegree(n, cdfg::EdgeSel::kAll) == 0) {
      continue;  // LW105's finding
    }
    if (!live.reached(n)) {
      r.add(detail::lw603Diag(artifact, g, n));
    } else if (!reachable.reached(n)) {
      r.add(detail::lw604Diag(artifact, g, n));
    }
  }
}

}  // namespace

std::vector<char> detail::lw601Verdicts(
    const cdfg::Cdfg& g, const cdfg::CsrView& view,
    const std::vector<NodeId>& order,
    const std::vector<cdfg::EdgeId>& temporal) {
  std::vector<PathQuery> queries;
  queries.reserve(temporal.size());
  for (const cdfg::EdgeId te : temporal) {
    queries.push_back({g.edge(te).src, g.edge(te).dst});
  }
  const std::vector<char> by_structure =
      skippingPaths(view, queries, cdfg::EdgeSel::kDataControl, order);
  // One diagnostic per defect: the edges LW104 flags leave the second
  // query, which may use every kind but the edge itself.
  std::vector<std::size_t> open;
  std::vector<PathQuery> rest;
  for (std::size_t i = 0; i < temporal.size(); ++i) {
    if (by_structure[i] == 0) {
      open.push_back(i);
      rest.push_back({queries[i].from, queries[i].to, temporal[i]});
    }
  }
  const std::vector<char> by_all =
      skippingPaths(view, rest, cdfg::EdgeSel::kAll, order);
  std::vector<char> verdict(temporal.size(), 0);
  for (std::size_t j = 0; j < open.size(); ++j) {
    verdict[open[j]] = by_all[j];
  }
  return verdict;
}

Report checkSemantics(const cdfg::Cdfg& g, const std::string& artifact) {
  Report r;
  // One lowering serves the cycle verdict and all three rule families; the
  // builder stays around for edge endpoints and node labels in diagnostics.
  const cdfg::CsrView view(g);
  const std::vector<NodeId> order =
      cdfg::topologicalOrder(view, cdfg::EdgeSel::kAll);
  if (order.size() < view.nodeCount()) {
    return r;  // LW103 is checkGraph's finding; these passes need a DAG
  }
  checkRedundantTemporal(r, g, view, order, artifact);
  checkStretchingTemporal(r, g, view, artifact);
  checkLiveness(r, g, view, artifact);
  return r;
}

}  // namespace locwm::check
