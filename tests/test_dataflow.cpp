// Dataflow engine (check/dataflow.h) and differential verifier
// (check/differ.h): fixpoint properties on random DFGs (closure vs the
// naive DFS oracle of naive_oracles.h, idempotence, monotonicity),
// SlackAnalysis equivalence with the pinned sched::TimeFrames,
// liveness/reachability on handcrafted graphs,
// cyclic-input degradation, and the diff-vs-mutation matrix — every
// core/attack.h structural mutation must surface as an LW7xx error.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "check/dataflow.h"
#include "check/differ.h"
#include "check/rules.h"
#include "core/attack.h"
#include "core/sched_wm.h"
#include "naive_oracles.h"
#include "sched/latency.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"

namespace {

using namespace locwm;
using cdfg::CsrView;
using check::Direction;
using check::EdgeMask;
using locwm::testing::addTemporalEdges;
using locwm::testing::smallRandomDfg;

// ---------------------------------------------------------------------------
// Precedence closure vs the naive DFS oracle.

TEST(Dataflow, ClosureMatchesDfsOracleOnRandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cdfg::Cdfg g = smallRandomDfg(seed);
    addTemporalEdges(g, 6, seed * 77);
    const auto closure = check::computePrecedenceClosure(CsrView(g));
    ASSERT_TRUE(closure.stats.converged);
    for (const cdfg::NodeId a : g.allNodes()) {
      for (const cdfg::NodeId b : g.allNodes()) {
        EXPECT_EQ(closure.precedes(a, b), locwm::testing::naivePath(g, a, b))
            << "seed " << seed << ": " << a.value() << " -> " << b.value();
      }
    }
  }
}

TEST(Dataflow, ClosureRespectsEdgeMask) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  const auto c = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(a, b, cdfg::EdgeKind::kData);
  g.addEdge(b, c, cdfg::EdgeKind::kTemporal);
  const CsrView view(g);
  const auto all = check::computePrecedenceClosure(view, EdgeMask::all());
  EXPECT_TRUE(all.precedes(a, c));
  const auto dc =
      check::computePrecedenceClosure(view, EdgeMask::dataControl());
  EXPECT_TRUE(dc.precedes(a, b));
  EXPECT_FALSE(dc.precedes(a, c));
  EXPECT_FALSE(dc.precedes(b, c));
}

TEST(Dataflow, FixpointIsIdempotent) {
  for (std::uint64_t seed = 10; seed <= 12; ++seed) {
    cdfg::Cdfg g = smallRandomDfg(seed);
    addTemporalEdges(g, 4, seed);
    const CsrView view(g);
    check::ClosureDomain closure(g.nodeCount());
    const auto first = check::solveFixpoint(view, Direction::kForward,
                                            EdgeMask::all(), closure);
    ASSERT_TRUE(first.converged);
    const auto second = check::solveFixpoint(view, Direction::kForward,
                                             EdgeMask::all(), closure);
    EXPECT_TRUE(second.converged);
    EXPECT_EQ(second.updates, 0u) << "seed " << seed;

    check::ReachDomain reach(g.nodeCount());
    reach.mark[0] = 1;
    check::solveFixpoint(view, Direction::kForward, EdgeMask::all(), reach);
    const auto rerun =
        check::solveFixpoint(view, Direction::kForward, EdgeMask::all(), reach);
    EXPECT_EQ(rerun.updates, 0u) << "seed " << seed;
  }
}

TEST(Dataflow, ClosureGrowsMonotonicallyUnderEdgeAddition) {
  cdfg::Cdfg g = smallRandomDfg(21);
  const auto before = check::computePrecedenceClosure(CsrView(g));
  // A fresh forward edge between two unrelated nodes.
  cdfg::NodeId src = cdfg::NodeId::invalid();
  cdfg::NodeId dst = cdfg::NodeId::invalid();
  for (const cdfg::NodeId a : g.allNodes()) {
    for (const cdfg::NodeId b : g.allNodes()) {
      if (a.value() < b.value() && !before.precedes(a, b) &&
          !before.precedes(b, a)) {
        src = a;
        dst = b;
      }
    }
  }
  ASSERT_TRUE(src.isValid());
  g.addEdge(src, dst, cdfg::EdgeKind::kTemporal);
  const auto after = check::computePrecedenceClosure(CsrView(g));
  EXPECT_TRUE(after.precedes(src, dst));
  for (const cdfg::NodeId a : g.allNodes()) {
    for (const cdfg::NodeId b : g.allNodes()) {
      if (before.precedes(a, b)) {
        EXPECT_TRUE(after.precedes(a, b))
            << a.value() << " -> " << b.value() << " lost";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SlackAnalysis must agree with the pinned sched::TimeFrames.

void expectSlackMatchesTimeFrames(const cdfg::Cdfg& g,
                                  const sched::LatencyModel& lat,
                                  std::optional<std::uint32_t> deadline) {
  const sched::TimeFrames tf(g, lat, deadline);
  const auto slack = check::computeSlack(CsrView(g), lat, deadline);
  ASSERT_TRUE(slack.converged());
  EXPECT_EQ(slack.critical, tf.criticalPathSteps());
  EXPECT_EQ(slack.deadline, tf.deadline());
  for (const cdfg::NodeId v : g.allNodes()) {
    EXPECT_EQ(slack.asap[v.value()], tf.asap(v)) << "asap " << v.value();
    EXPECT_EQ(slack.alap[v.value()], tf.alap(v)) << "alap " << v.value();
  }
}

TEST(Dataflow, SlackMatchesTimeFramesOnRandomDfgs) {
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    cdfg::Cdfg g = smallRandomDfg(seed);
    expectSlackMatchesTimeFrames(g, sched::LatencyModel::unit(),
                                 std::nullopt);
    expectSlackMatchesTimeFrames(g, sched::LatencyModel::hyperDefault(),
                                 std::nullopt);
    addTemporalEdges(g, 5, seed * 3);
    expectSlackMatchesTimeFrames(g, sched::LatencyModel::unit(),
                                 std::nullopt);
    const auto tight =
        check::computeSlack(CsrView(g), sched::LatencyModel::unit());
    expectSlackMatchesTimeFrames(g, sched::LatencyModel::unit(),
                                 tight.critical + 3);
  }
}

TEST(Dataflow, SlackClampsInfeasibleDeadline) {
  // A deadline below the critical path makes TimeFrames throw; the linter
  // analysis instead clamps to the critical path and reports that.
  const cdfg::Cdfg g = smallRandomDfg(5);
  const auto slack =
      check::computeSlack(CsrView(g), sched::LatencyModel::unit(), 1);
  EXPECT_TRUE(slack.converged());
  EXPECT_EQ(slack.deadline, slack.critical);
}

// ---------------------------------------------------------------------------
// Reachability / liveness.

TEST(Dataflow, ReachabilityForwardAndBackward) {
  // input(0) -> add(1) -> output(2); add(3) -> add(1) makes 3 an
  // undefined producer; add(4) consumes 1 but feeds nothing.
  cdfg::Cdfg g;
  const auto in = g.addNode(cdfg::OpKind::kInput);
  const auto mid = g.addNode(cdfg::OpKind::kAdd);
  const auto out = g.addNode(cdfg::OpKind::kOutput);
  const auto ghost = g.addNode(cdfg::OpKind::kAdd);
  const auto dead = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(in, mid);
  g.addEdge(mid, out);
  g.addEdge(ghost, mid);
  g.addEdge(mid, dead);

  const CsrView view(g);
  const auto fwd =
      check::computeReachability(view, {in}, Direction::kForward);
  EXPECT_TRUE(fwd.reached(mid));
  EXPECT_TRUE(fwd.reached(out));
  EXPECT_TRUE(fwd.reached(dead));
  EXPECT_FALSE(fwd.reached(ghost));

  const auto bwd =
      check::computeReachability(view, {out}, Direction::kBackward);
  EXPECT_TRUE(bwd.reached(mid));
  EXPECT_TRUE(bwd.reached(in));
  EXPECT_TRUE(bwd.reached(ghost));
  EXPECT_FALSE(bwd.reached(dead));
}

// ---------------------------------------------------------------------------
// Cyclic input: the engine terminates and reports instead of hanging.

TEST(Dataflow, CyclicGraphTerminates) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(a, b);
  g.addEdge(b, a);
  const CsrView view(g);
  // The closure converges (a and b precede each other)...
  const auto closure = check::computePrecedenceClosure(view);
  EXPECT_TRUE(closure.stats.converged);
  EXPECT_TRUE(closure.precedes(a, b));
  EXPECT_TRUE(closure.precedes(b, a));
  // ...while the unbounded max-plus ASAP hits the visit cap.
  const auto slack = check::computeSlack(view, sched::LatencyModel::unit());
  EXPECT_FALSE(slack.converged());
  // The semantic rules bail out cleanly (LW103 owns cyclic graphs).
  EXPECT_TRUE(check::checkSemantics(g).empty());
}

TEST(Dataflow, HasPathSkippingIgnoresTheSkippedEdge) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  const auto e = g.addEdge(a, b, cdfg::EdgeKind::kTemporal);
  const CsrView view(g);
  EXPECT_TRUE(check::hasPathSkipping(view, a, b));
  EXPECT_FALSE(check::hasPathSkipping(view, a, b, e));
}

// ---------------------------------------------------------------------------
// Differential verifier: embed -> clean diff; mutate -> LW7xx error.

struct MarkedFixture {
  cdfg::Cdfg original;
  cdfg::Cdfg marked;
  wm::WatermarkCertificate certificate;
};

MarkedFixture embedFixture() {
  MarkedFixture f;
  f.original = workloads::hyperSuite()[0].graph;
  f.marked = f.original;
  wm::SchedulingWatermarker marker({"alice", "diff-test"});
  wm::SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline =
      sched::TimeFrames(f.marked, params.latency).criticalPathSteps() + 3;
  const auto result = marker.embed(f.marked, params);
  EXPECT_TRUE(result.has_value());
  if (result) {
    f.certificate = result->certificate;
  }
  return f;
}

bool reportHasCode(const check::Report& r, std::string_view code) {
  for (const auto& d : r.diagnostics()) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

TEST(Differ, CleanEmbeddingDiffsClean) {
  const MarkedFixture f = embedFixture();
  ASSERT_FALSE(f.certificate.constraints.empty());
  const auto diff =
      check::diffDesigns(f.original, f.marked, {f.certificate});
  EXPECT_FALSE(diff.report.hasErrors()) << diff.report.renderText();
  EXPECT_TRUE(diff.identical_core);
  EXPECT_FALSE(diff.extra_temporal.empty());
  EXPECT_EQ(diff.explained, diff.extra_temporal.size())
      << diff.report.renderText();
  EXPECT_TRUE(reportHasCode(diff.report, "LW706"));
}

TEST(Differ, UnattributedWatermarkIsInfoWithoutCertificates) {
  const MarkedFixture f = embedFixture();
  const auto diff = check::diffDesigns(f.original, f.marked, {});
  EXPECT_FALSE(diff.report.hasErrors()) << diff.report.renderText();
  EXPECT_TRUE(reportHasCode(diff.report, "LW706"));
  EXPECT_EQ(diff.explained, 0u);
}

TEST(Differ, IdenticalDesignsDiffEmpty) {
  const cdfg::Cdfg g = workloads::hyperSuite()[0].graph;
  const auto diff = check::diffDesigns(g, g, {});
  EXPECT_TRUE(diff.report.empty()) << diff.report.renderText();
  EXPECT_TRUE(diff.identical_core);
  EXPECT_TRUE(diff.extra_temporal.empty());
}

/// The LW7xx family a mutation kind must surface as.
std::string_view expectedCodeFor(wm::MutationKind kind) {
  switch (kind) {
    case wm::MutationKind::kAddOperation:
    case wm::MutationKind::kDeleteOperation:
      return "LW701";
    case wm::MutationKind::kChangeOpKind:
      return "LW702";
    case wm::MutationKind::kAddDataEdge:
    case wm::MutationKind::kDeleteDataEdge:
    case wm::MutationKind::kRedirectEdge:
      return "LW703";
    case wm::MutationKind::kDeleteTemporalEdge:
      return "LW707";
    case wm::MutationKind::kAddTemporalEdge:
      return "LW705";
  }
  return "LW700";
}

TEST(Differ, EveryStructuralMutationIsDetected) {
  const MarkedFixture f = embedFixture();
  ASSERT_FALSE(f.certificate.constraints.empty());
  for (std::size_t k = 0; k < wm::kMutationKindCount; ++k) {
    const auto kind = static_cast<wm::MutationKind>(k);
    // Hunt a seed that yields an applicable mutation (some kinds have no
    // target under some seeds; determinism keeps the hunt reproducible).
    wm::MutationOutcome outcome;
    for (std::uint64_t seed = 1; seed <= 16 && !outcome.applied; ++seed) {
      outcome = wm::mutateDesign(f.marked, kind, seed);
    }
    ASSERT_TRUE(outcome.applied) << wm::mutationKindName(kind);
    const auto diff =
        check::diffDesigns(f.original, outcome.design, {f.certificate});
    EXPECT_TRUE(diff.report.hasErrors())
        << wm::mutationKindName(kind) << ": " << outcome.description << "\n"
        << diff.report.renderText();
    EXPECT_TRUE(reportHasCode(diff.report, expectedCodeFor(kind)))
        << wm::mutationKindName(kind) << " expected "
        << expectedCodeFor(kind) << ": " << outcome.description << "\n"
        << diff.report.renderText();
  }
}

TEST(Differ, ShapeMatcherLocatesTheEmbeddedLocality) {
  const MarkedFixture f = embedFixture();
  std::vector<std::pair<cdfg::NodeId, cdfg::NodeId>> anchors;
  for (const cdfg::EdgeId e : f.marked.temporalEdges()) {
    anchors.emplace_back(f.marked.edge(e).src, f.marked.edge(e).dst);
  }
  ASSERT_FALSE(anchors.empty());
  const auto match =
      check::matchCertificateShape(f.marked, anchors, f.certificate);
  ASSERT_TRUE(match.matched);
  ASSERT_EQ(match.nodes.size(), f.certificate.shape.nodeCount());
  // Kind-exactness: each rank's design node has the shape node's kind.
  for (std::size_t rank = 0; rank < match.nodes.size(); ++rank) {
    EXPECT_EQ(f.marked.node(match.nodes[rank]).kind,
              f.certificate.shape.node(cdfg::NodeId(
                  static_cast<std::uint32_t>(rank))).kind);
  }
}

TEST(Differ, ShapeMatcherRejectsForeignCertificate) {
  const MarkedFixture f = embedFixture();
  std::vector<std::pair<cdfg::NodeId, cdfg::NodeId>> anchors;
  for (const cdfg::EdgeId e : f.marked.temporalEdges()) {
    anchors.emplace_back(f.marked.edge(e).src, f.marked.edge(e).dst);
  }
  wm::WatermarkCertificate foreign = f.certificate;
  foreign.shape = cdfg::Cdfg{};  // 10 mul nodes in a chain: not present
  cdfg::NodeId prev = foreign.shape.addNode(cdfg::OpKind::kMul);
  for (int i = 0; i < 9; ++i) {
    const auto next = foreign.shape.addNode(cdfg::OpKind::kMul);
    foreign.shape.addEdge(prev, next);
    prev = next;
  }
  foreign.root_rank = 0;
  const auto match = check::matchCertificateShape(f.marked, anchors, foreign);
  EXPECT_FALSE(match.matched);
}

}  // namespace
