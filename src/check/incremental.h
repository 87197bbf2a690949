// check::delta — the incremental static-analysis engine.
//
// One-shot analysis (rules_semantic.cpp) recomputes transitive precedence,
// reachability, ASAP/ALAP slack, and the LW6xx verdicts from scratch on
// every call.  IncrementalAnalysis keeps all of that state *resident* next
// to the graph and, for each cdfg::EditDelta batch, repairs only the
// affected region:
//
//   * a topological rank table (longest-path Kahn over all edge kinds)
//     orders the repair worklists; it is rebuilt only when an added edge
//     violates the current order or the node set grows;
//   * ASAP re-propagates forward from the destinations of changed
//     data/control edges; ALAP first applies the uniform deadline shift
//     (the old fixpoint plus the critical-path delta is the old graph's
//     exact fixpoint under the new deadline) and then re-propagates
//     backward from the sources of changed edges.  Temporal-only deltas
//     skip slack entirely — data/control frames cannot see them;
//   * forward/backward liveness marks are recomputed from scratch per
//     dirty node (seed-by-kind OR over masked neighbours), which handles
//     both mark growth and the non-monotone shrinkage a removal causes;
//   * LW601 re-evaluates only temporal edges whose destination is
//     forward-reachable (over all kinds) from the touched frontier — any
//     path that appeared or vanished has its last changed edge's head in
//     that region — each with a path probe pruned by rank (the full
//     rebuild answers every edge with check/paths.h's batched query);
//     LW602 re-evaluates edges whose endpoint frames moved (all of them
//     when the critical path itself moved, since the message embeds it);
//     LW603/604 re-evaluates nodes whose marks or degrees changed;
//   * the rendered report is cached and rebuilt only when a verdict
//     actually changed, in exactly checkSemantics' emission order, from
//     the shared detail:: builders — byte-identical to full recompute.
//
// Worklists process nodes in rank order, so each node is recomputed at
// most once per batch; rank-equal nodes are independent and wide batches
// recompute under rt::parallel_for with disjoint writes — deterministic
// at any thread count.  On a cyclic graph every analysis is invalid and
// the report is empty, mirroring checkSemantics' acyclic guard; the first
// delta that restores acyclicity triggers a full rebuild.
//
// Every public result is differentially verified against the one-shot
// oracle by tests/test_incremental.cpp; bench/perf_incremental measures
// the speedup that pays for the added machinery.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/delta.h"
#include "cdfg/graph.h"
#include "cdfg/ids.h"
#include "check/diagnostics.h"
#include "sched/latency.h"

namespace locwm::check::delta {

/// What one applyDelta batch cost — the observability row of the engine.
struct DeltaStats {
  std::size_t accepted_ops = 0;
  std::size_t rejected_ops = 0;
  std::size_t asap_recomputed = 0;   ///< nodes re-solved by the ASAP pass
  std::size_t alap_recomputed = 0;
  std::size_t reach_recomputed = 0;  ///< fwd + bwd mark recomputations
  std::size_t lw601_evals = 0;
  std::size_t lw602_evals = 0;
  std::size_t node_evals = 0;        ///< LW603/604 verdicts re-derived
  bool ranks_rebuilt = false;
  bool relowered = false;      ///< CSR side rebased instead of patching
  bool full_rebuild = false;   ///< node growth / cyclic flip: start over
  bool report_rebuilt = false;
};

/// Resident graph + analyses + verdicts.  See file comment.
class IncrementalAnalysis {
 public:
  /// Takes ownership of the graph and runs the initial full analysis.
  explicit IncrementalAnalysis(cdfg::Cdfg g,
                               std::string artifact = "<design>");

  // The CsrDelta member points back at the graph member.
  IncrementalAnalysis(const IncrementalAnalysis&) = delete;
  IncrementalAnalysis& operator=(const IncrementalAnalysis&) = delete;

  /// Applies one edit batch and repairs the resident analyses.  When
  /// `applied` is non-null the structural change summary (including
  /// per-op rejections) is copied out.
  DeltaStats applyDelta(const cdfg::EditDelta& delta,
                        cdfg::AppliedDelta* applied = nullptr);

  [[nodiscard]] const cdfg::Cdfg& graph() const noexcept { return g_; }
  [[nodiscard]] const cdfg::CsrDelta& csr() const noexcept { return csr_; }
  [[nodiscard]] const std::string& artifact() const noexcept {
    return artifact_;
  }
  [[nodiscard]] bool cyclic() const noexcept { return cyclic_; }
  [[nodiscard]] std::uint32_t asap(cdfg::NodeId n) const {
    return asap_[n.value()];
  }
  [[nodiscard]] std::uint32_t alap(cdfg::NodeId n) const {
    return alap_[n.value()];
  }
  [[nodiscard]] std::uint32_t critical() const noexcept { return critical_; }

  /// The LW6xx report over the current graph — byte-identical (diagnostics
  /// and rendering alike) to checkSemantics(graph(), artifact()).
  [[nodiscard]] const Report& semanticReport();
  /// renderText() of semanticReport(), cached between verdict changes.
  [[nodiscard]] const std::string& semanticReportText();

 private:
  void rebuildRanks();
  /// Forward rank relaxation from added edges that violate the current
  /// order; returns false (caller falls back to the full Kahn rebuild)
  /// when a rank climbs past the node count — the cycle signature.
  bool repairRanks(const cdfg::AppliedDelta& applied);
  void fullRebuild();
  void rebuildReportCache();

  void repairSlack(const std::vector<cdfg::NodeId>& dc_dst_seeds,
                   const std::vector<cdfg::NodeId>& dc_src_seeds,
                   std::vector<char>& asap_changed,
                   std::vector<char>& alap_changed, DeltaStats& stats);
  void repairReach(const std::vector<cdfg::NodeId>& dc_dst_seeds,
                   const std::vector<cdfg::NodeId>& dc_src_seeds,
                   std::vector<char>& fwd_changed,
                   std::vector<char>& bwd_changed, DeltaStats& stats);
  void repairLw601(const cdfg::AppliedDelta& applied, DeltaStats& stats);
  void repairLw602(const cdfg::AppliedDelta& applied, bool critical_moved,
                   const std::vector<char>& asap_changed,
                   const std::vector<char>& alap_changed, DeltaStats& stats);
  void repairNodeVerdicts(const cdfg::AppliedDelta& applied, bool dc_changed,
                          const std::vector<char>& fwd_changed,
                          const std::vector<char>& bwd_changed,
                          DeltaStats& stats);

  [[nodiscard]] bool evalLw601(cdfg::EdgeId te) const;
  [[nodiscard]] std::uint8_t evalNodeVerdict(cdfg::NodeId n) const;
  [[nodiscard]] bool hasPathSkippingDelta(cdfg::NodeId from, cdfg::NodeId to,
                                          cdfg::EdgeId skip,
                                          cdfg::EdgeSel sel) const;

  cdfg::Cdfg g_;
  cdfg::CsrDelta csr_;
  std::string artifact_;
  sched::LatencyModel lat_;

  bool cyclic_ = false;
  std::vector<std::uint32_t> rank_;  ///< longest-path topo rank, mask all
  /// Live temporal edge ids, ascending — the report emission order.  Kept
  /// resident so per-batch repairs never rescan the whole edge table.
  std::vector<cdfg::EdgeId> temporal_;

  std::vector<char> fwd_mark_;  ///< reachable from sources, dataControl
  std::vector<char> bwd_mark_;  ///< live into sinks, dataControl
  std::vector<std::uint32_t> asap_;
  std::vector<std::uint32_t> alap_;
  std::uint32_t critical_ = 0;
  std::uint32_t deadline_ = 0;

  // Verdict slots, indexed by edge id / node id.  Only live temporal
  // edges' slots are meaningful; removal clears them.
  std::vector<char> lw601_;
  std::vector<char> lw602_;
  std::vector<std::uint8_t> node_verdict_;  ///< 0 none, 1 LW603, 2 LW604

  Report report_;
  std::string report_text_;
  bool report_dirty_ = true;
};

}  // namespace locwm::check::delta
