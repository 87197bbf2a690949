// cdfg::CsrView — the CSR/SoA graph snapshot (cdfg/csr.h): adjacency
// oracle against the Cdfg builder it is lowered from (every node, every
// selector, on random DFGs with temporal edges, parallel-edge and
// post-stripTemporalEdges graphs), edge-id/neighbour span alignment,
// empty/degenerate inputs, the CSR-backed analyses (closure,
// reachability, slack, path queries) against independent references on
// the builder graph, and the determinism pin — those analyses, the
// semantic rules and watermark detection must produce byte-identical
// results at 1, 2, and 8 runtime lanes.
//
// Self-loops are absent by construction: Cdfg::addEdge rejects
// src == dst (pinned below), so the view never has to represent one.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/error.h"
#include "cdfg/graph.h"
#include "cdfg/prng.h"
#include "check/dataflow.h"
#include "check/rules.h"
#include "core/sched_wm.h"
#include "naive_oracles.h"
#include "rt/rt.h"
#include "sched/latency.h"
#include "sched/list_scheduler.h"
#include "sched/schedule_io.h"
#include "sched/timeframes.h"

namespace {

using namespace locwm;
using cdfg::CsrView;
using cdfg::EdgeId;
using cdfg::EdgeKind;
using cdfg::EdgeSel;
using cdfg::NodeId;
using locwm::GraphError;
using locwm::testing::addTemporalEdges;
using locwm::testing::smallRandomDfg;

/// Builder-derived neighbour list for one (node, selector, direction),
/// straight off the edge table — the oracle the CSR spans must match.
std::vector<NodeId> oracleNeighbours(const cdfg::Cdfg& g, NodeId v,
                                     EdgeSel sel, bool out) {
  const auto accepts = [sel](EdgeKind k) {
    switch (sel) {
      case EdgeSel::kData:
        return k == EdgeKind::kData;
      case EdgeSel::kControl:
        return k == EdgeKind::kControl;
      case EdgeSel::kTemporal:
        return k == EdgeKind::kTemporal;
      case EdgeSel::kDataControl:
        return k != EdgeKind::kTemporal;
      case EdgeSel::kAll:
        return true;
    }
    return false;
  };
  // CSR groups each node's neighbours by kind (data, control, temporal),
  // preserving insertion order within a kind — so the oracle collects per
  // kind in storage order, not in raw edge-list order.
  std::vector<NodeId> result;
  for (const EdgeKind kind : cdfg::kCsrKindOrder) {
    if (!accepts(kind)) {
      continue;
    }
    for (const EdgeId e : out ? g.outEdges(v) : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (ed.kind == kind) {
        result.push_back(out ? ed.dst : ed.src);
      }
    }
  }
  return result;
}

constexpr EdgeSel kAllSels[] = {EdgeSel::kData, EdgeSel::kControl,
                                EdgeSel::kTemporal, EdgeSel::kDataControl,
                                EdgeSel::kAll};

/// Full adjacency comparison: every node, every selector, both
/// directions, spans and degrees and aligned edge ids.
void expectViewMatches(const cdfg::Cdfg& g, const CsrView& view) {
  ASSERT_EQ(view.nodeCount(), g.nodeCount());
  ASSERT_EQ(view.edgeCount(), g.edgeCount());
  for (std::size_t i = 0; i < g.nodeCount(); ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    EXPECT_EQ(view.kind(v), g.node(v).kind);
    for (const EdgeSel sel : kAllSels) {
      for (const bool out : {true, false}) {
        const std::vector<NodeId> expect = oracleNeighbours(g, v, sel, out);
        const auto got = out ? view.successors(v, sel)
                             : view.predecessors(v, sel);
        const auto ids = out ? view.outEdges(v, sel) : view.inEdges(v, sel);
        ASSERT_EQ(got.size(), expect.size())
            << "node " << i << " sel " << static_cast<int>(sel);
        ASSERT_EQ(ids.size(), got.size());
        EXPECT_EQ(out ? view.outDegree(v, sel) : view.inDegree(v, sel),
                  expect.size());
        for (std::size_t j = 0; j < got.size(); ++j) {
          EXPECT_EQ(got[j], expect[j])
              << "node " << i << " sel " << static_cast<int>(sel)
              << " slot " << j;
          // Edge ids are aligned index-for-index with the neighbours.
          const cdfg::Edge& ed = g.edge(ids[j]);
          EXPECT_EQ(out ? ed.src : ed.dst, v);
          EXPECT_EQ(out ? ed.dst : ed.src, got[j]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Adjacency oracle.

TEST(Csr, MatchesBuilderAdjacencyOnRandomDfgs) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    cdfg::Cdfg g = smallRandomDfg(seed, 60 + 20 * seed);
    addTemporalEdges(g, 12, seed * 97);
    expectViewMatches(g, CsrView(g));
  }
}

TEST(Csr, MatchesBuilderAfterStrippingTemporalEdges) {
  cdfg::Cdfg g = smallRandomDfg(5, 80);
  addTemporalEdges(g, 16, 55);
  const cdfg::Cdfg stripped = g.stripTemporalEdges();
  const CsrView view(stripped);
  expectViewMatches(stripped, view);
  // The stripped view has no temporal segments anywhere.
  for (std::size_t i = 0; i < stripped.nodeCount(); ++i) {
    const NodeId v(static_cast<std::uint32_t>(i));
    EXPECT_TRUE(view.successors(v, EdgeSel::kTemporal).empty());
    EXPECT_TRUE(view.predecessors(v, EdgeSel::kTemporal).empty());
  }
}

TEST(Csr, EmptyGraph) {
  const cdfg::Cdfg g;
  const CsrView view(g);
  EXPECT_EQ(view.nodeCount(), 0u);
  EXPECT_EQ(view.edgeCount(), 0u);
  EXPECT_EQ(view.bytesPerNode(), 0.0);
}

TEST(Csr, SingleNodeHasEmptySpans) {
  cdfg::Cdfg g;
  const NodeId v = g.addNode(cdfg::OpKind::kAdd, "a");
  const CsrView view(g);
  EXPECT_EQ(view.kind(v), cdfg::OpKind::kAdd);
  for (const EdgeSel sel : kAllSels) {
    EXPECT_TRUE(view.successors(v, sel).empty());
    EXPECT_TRUE(view.predecessors(v, sel).empty());
  }
  EXPECT_GT(view.memoryBytes(), 0u);  // offset tables exist even with no edges
}

TEST(Csr, ParallelEdgesPreservedWithMultiplicityAndOrder) {
  cdfg::Cdfg g;
  const NodeId a = g.addNode(cdfg::OpKind::kInput, "a");
  const NodeId b = g.addNode(cdfg::OpKind::kMul, "b");
  // b consumes a twice (a * a) — duplicate data edges are legal.
  const EdgeId e0 = g.addEdge(a, b, EdgeKind::kData);
  const EdgeId e1 = g.addEdge(a, b, EdgeKind::kData);
  g.addEdge(a, b, EdgeKind::kTemporal);
  const CsrView view(g);
  const auto succ = view.successors(a, EdgeSel::kData);
  ASSERT_EQ(succ.size(), 2u);
  EXPECT_EQ(succ[0], b);
  EXPECT_EQ(succ[1], b);
  const auto ids = view.outEdges(a, EdgeSel::kData);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_EQ(ids[0], e0);  // insertion order within the kind segment
  EXPECT_EQ(ids[1], e1);
  EXPECT_EQ(view.successors(a, EdgeSel::kAll).size(), 3u);
  EXPECT_EQ(view.inDegree(b, EdgeSel::kAll), 3u);
  expectViewMatches(g, view);
}

// Self-loops cannot be represented because they cannot be built: the
// graph rejects them at construction, so the view's contract excludes
// them by fiat rather than by handling.
TEST(Csr, SelfLoopsAreUnconstructible) {
  cdfg::Cdfg g;
  const NodeId a = g.addNode(cdfg::OpKind::kAdd, "a");
  EXPECT_THROW(g.addEdge(a, a, EdgeKind::kData), GraphError);
}

TEST(Csr, MemoryAccountingMatchesArenaFormula) {
  cdfg::Cdfg g = smallRandomDfg(9, 100);
  addTemporalEdges(g, 8, 13);
  const CsrView view(g);
  // Arena layout: two offset tables (3n+1 words each), four id sections
  // (E words each), and the packed kind bytes ((n+3)/4 words).
  const std::size_t n = g.nodeCount();
  const std::size_t e = g.edgeCount();
  const std::size_t words = 2 * (3 * n + 1) + 4 * e + (n + 3) / 4;
  EXPECT_EQ(view.memoryBytes(), words * sizeof(std::uint32_t));
  EXPECT_DOUBLE_EQ(view.bytesPerNode(),
                   static_cast<double>(view.memoryBytes()) /
                       static_cast<double>(n));
}

// ---------------------------------------------------------------------------
// Analysis equivalence: the CSR analyses must match references computed
// on the builder graph that share none of their code — the naive DFS of
// naive_oracles.h (closure precedes-matrix, reachability marks, path
// queries) and sched::TimeFrames (slack windows).

TEST(Csr, AnalysesMatchBuilderPath) {
  for (const std::uint64_t seed : {21u, 22u}) {
    cdfg::Cdfg g = smallRandomDfg(seed, 120);
    addTemporalEdges(g, 10, seed);
    const CsrView view(g);
    const std::size_t n = g.nodeCount();

    const auto closure = check::computePrecedenceClosure(view);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId a(static_cast<std::uint32_t>(i));
      const std::vector<char> desc = locwm::testing::naiveReach(
          g, {a}, check::Direction::kForward, check::EdgeMask::all());
      for (std::size_t j = 0; j < n; ++j) {
        const NodeId b(static_cast<std::uint32_t>(j));
        ASSERT_EQ(closure.precedes(a, b), desc[j] != 0) << i << " -> " << j;
      }
    }

    std::vector<NodeId> sources;
    for (const NodeId v : g.allNodes()) {
      if (g.inEdges(v).empty()) {
        sources.push_back(v);
      }
    }
    const auto reach =
        check::computeReachability(view, sources, check::Direction::kForward);
    std::vector<char> expected =
        locwm::testing::naiveReach(g, sources, check::Direction::kForward,
                                   check::EdgeMask::dataControl());
    for (const NodeId s : sources) {
      expected[s.value()] = 1;  // seeds count as reached
    }
    EXPECT_EQ(reach.domain.mark, expected);

    const auto slack = check::computeSlack(view, sched::LatencyModel::unit());
    const sched::TimeFrames tf(g, sched::LatencyModel::unit());
    EXPECT_EQ(slack.critical, tf.criticalPathSteps());
    EXPECT_EQ(slack.deadline, tf.deadline());
    for (const NodeId v : g.allNodes()) {
      EXPECT_EQ(slack.asap[v.value()], tf.asap(v));
      EXPECT_EQ(slack.alap[v.value()], tf.alap(v));
    }

    cdfg::SplitMix64 rng(seed * 31);
    for (std::size_t q = 0; q < 64; ++q) {
      const NodeId from(static_cast<std::uint32_t>(rng.below(n)));
      const NodeId to(static_cast<std::uint32_t>(rng.below(n)));
      const EdgeId skip(static_cast<std::uint32_t>(rng.below(g.edgeCount())));
      const bool expected_path =
          from == to || locwm::testing::naivePath(
                            g, from, to, check::EdgeMask::dataControl(), skip);
      ASSERT_EQ(check::hasPathSkipping(view, from, to, skip,
                                       check::EdgeMask::dataControl()),
                expected_path);
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism pin: the CSR-backed passes produce byte-identical results
// at 1, 2, and 8 lanes — closure render, semantic-rule report, and a
// full embed -> publish -> detect digest.

std::string csrPipelineDigest(std::uint64_t seed) {
  cdfg::Cdfg g = smallRandomDfg(seed, 140);

  wm::SchedulingWatermarker marker({"alice", "csr-pin"});
  wm::SchedWmParams params;
  params.min_eligible = 3;
  params.k_fraction = 0.5;
  const sched::TimeFrames tf(g, params.latency);
  params.deadline = tf.criticalPathSteps() + 3;
  const auto mark = marker.embed(g, params);
  if (!mark.has_value()) {
    return "no-mark";
  }

  const cdfg::Cdfg published = g.stripTemporalEdges();
  const sched::Schedule s = sched::listSchedule(published);
  std::string digest = sched::scheduleToString(published, s);

  const wm::SchedDetector detector(marker, published, mark->certificate);
  const auto det = detector.check(s);
  digest += "|det:" + std::to_string(det.found) + "/" +
            std::to_string(det.satisfied) + "/" + std::to_string(det.total);

  // Semantic rules over the marked graph (closure/reach/slack on CSR).
  digest += "|sem:" + check::checkSemantics(g, "pin").renderText();

  // CSR closure reachable-pair count (exercises the parallel Kahn path).
  const CsrView view(g);
  const auto closure = check::computePrecedenceClosure(view);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < view.nodeCount(); ++i) {
    for (std::size_t j = 0; j < view.nodeCount(); ++j) {
      if (closure.precedes(NodeId(static_cast<std::uint32_t>(i)),
                           NodeId(static_cast<std::uint32_t>(j)))) {
        ++pairs;
      }
    }
  }
  digest += "|clo:" + std::to_string(pairs);
  return digest;
}

TEST(Csr, DeterminismAcrossThreadCounts) {
  for (const std::uint64_t seed : {7u, 19u}) {
    rt::setThreadCount(1);
    const std::string serial = csrPipelineDigest(seed);
    ASSERT_NE(serial, "no-mark");
    for (const std::size_t threads : {2u, 8u}) {
      rt::setThreadCount(threads);
      EXPECT_EQ(csrPipelineDigest(seed), serial)
          << "thread count " << threads << " changed CSR output (seed "
          << seed << ")";
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

}  // namespace
