// Graph analyses (check/dataflow.h) and differential verifier
// (check/differ.h): the closure and reachability against the naive DFS
// oracle of naive_oracles.h on random DFGs under generated, reversed and
// shuffled ids at 1, 2 and 8 threads, the LW601/LW602 verdicts against
// naive oracles under the same numberings, closure monotonicity,
// liveness/reachability on handcrafted graphs, cyclic input, and the
// diff-vs-mutation matrix — every core/attack.h structural mutation must
// surface as an LW7xx error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/graph.h"
#include "check/dataflow.h"
#include "check/differ.h"
#include "check/rules.h"
#include "core/attack.h"
#include "core/sched_wm.h"
#include "naive_oracles.h"
#include "rt/rt.h"
#include "sched/latency.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"

namespace {

using namespace locwm;
using cdfg::CsrView;
using cdfg::EdgeSel;
using check::Direction;
using locwm::testing::addTemporalEdges;
using locwm::testing::Numbering;
using locwm::testing::numberingName;
using locwm::testing::renumbered;
using locwm::testing::smallRandomDfg;

// ---------------------------------------------------------------------------
// Precedence closure vs the naive DFS oracle.

TEST(Dataflow, ClosureMatchesDfsOracleOnRandomDfgs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cdfg::Cdfg generated = smallRandomDfg(seed);
    addTemporalEdges(generated, 6, seed * 77);
    for (const Numbering how : locwm::testing::kNumberings) {
      const cdfg::Cdfg g = renumbered(generated, how, seed);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        rt::setThreadCount(threads);
        const auto closure = check::computePrecedenceClosure(CsrView(g));
        ASSERT_FALSE(closure.cyclic);
        for (const cdfg::NodeId a : g.allNodes()) {
          for (const cdfg::NodeId b : g.allNodes()) {
            ASSERT_EQ(closure.precedes(a, b),
                      locwm::testing::naivePath(g, a, b))
                << "seed " << seed << ", " << numberingName(how) << " ids, "
                << threads << " threads: " << a.value() << " -> "
                << b.value();
          }
        }
      }
    }
  }
  rt::setThreadCount(0);
}

TEST(Dataflow, ClosureRespectsEdgeMask) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  const auto c = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(a, b, cdfg::EdgeKind::kData);
  g.addEdge(b, c, cdfg::EdgeKind::kTemporal);
  const CsrView view(g);
  const auto all = check::computePrecedenceClosure(view, EdgeSel::kAll);
  EXPECT_TRUE(all.precedes(a, c));
  const auto dc = check::computePrecedenceClosure(view, EdgeSel::kDataControl);
  EXPECT_TRUE(dc.precedes(a, b));
  EXPECT_FALSE(dc.precedes(a, c));
  EXPECT_FALSE(dc.precedes(b, c));
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
// LW601 and LW602 verdicts vs naive oracles, whatever the numbering.

/// The temporal edges LW601 and LW602 must flag in an acyclic `g`, by
/// definition: LW601, a path that skips the edge exists over all kinds
/// but not over data/control alone (that is LW104's); LW602, the edge
/// cannot fit the data/control-only frames.  Each entry is the location a
/// finding names, "edge src->dst (temporal)".
struct TemporalVerdicts {
  std::vector<std::string> lw601;
  std::vector<std::string> lw602;
};

TemporalVerdicts naiveTemporalVerdicts(const cdfg::Cdfg& g) {
  const auto frames =
      locwm::testing::naiveFrames(g, sched::LatencyModel::unit());
  TemporalVerdicts out;
  for (const cdfg::EdgeId te : g.temporalEdges()) {
    const cdfg::Edge& e = g.edge(te);
    const std::string ref = "edge " + std::to_string(e.src.value()) + "->" +
                            std::to_string(e.dst.value()) + " (temporal)";
    if (!locwm::testing::naivePath(g, e.src, e.dst, EdgeSel::kDataControl,
                                   te) &&
        locwm::testing::naivePath(g, e.src, e.dst, EdgeSel::kAll, te)) {
      out.lw601.push_back(ref);
    }
    if (frames.asap[e.src.value()] + 1 > frames.alap[e.dst.value()]) {
      out.lw602.push_back(ref);
    }
  }
  return out;
}

/// The same verdicts read off checkSemantics, in report order.
TemporalVerdicts reportedTemporalVerdicts(const cdfg::Cdfg& g) {
  TemporalVerdicts out;
  const check::Report report = check::checkSemantics(g);
  for (const auto& d : report.diagnostics()) {
    if (d.code == "LW601") {
      out.lw601.push_back(d.location);
    } else if (d.code == "LW602") {
      out.lw602.push_back(d.location);
    }
  }
  return out;
}

TEST(Dataflow, TemporalVerdictsMatchNaiveOracleUnderAnyNumbering) {
  std::size_t lw601 = 0;
  std::size_t lw602 = 0;
  for (std::uint64_t seed = 40; seed <= 45; ++seed) {
    cdfg::Cdfg generated = smallRandomDfg(seed, 60);
    addTemporalEdges(generated, 24, seed * 5);
    // Stacked constraints a -> b -> c plus a -> c, the LW601 pattern, where
    // no data/control path already orders a before c.
    cdfg::SplitMix64 rng(seed);
    const std::size_t n = generated.nodeCount();
    for (int k = 0; k < 4; ++k) {
      std::uint32_t v[3];
      for (auto& x : v) {
        x = static_cast<std::uint32_t>(rng.below(n));
      }
      std::sort(std::begin(v), std::end(v));
      const cdfg::NodeId a(v[0]);
      const cdfg::NodeId b(v[1]);
      const cdfg::NodeId c(v[2]);
      if (a == b || b == c ||
          locwm::testing::naivePath(generated, a, c, EdgeSel::kDataControl)) {
        continue;
      }
      for (const auto& [src, dst] : {std::pair{a, b}, std::pair{b, c},
                                     std::pair{a, c}}) {
        if (!generated.hasEdge(src, dst, cdfg::EdgeKind::kTemporal)) {
          generated.addEdge(src, dst, cdfg::EdgeKind::kTemporal);
        }
      }
    }
    for (const Numbering how : locwm::testing::kNumberings) {
      const cdfg::Cdfg g = renumbered(generated, how, seed);
      const TemporalVerdicts expected = naiveTemporalVerdicts(g);
      lw601 += expected.lw601.size();
      lw602 += expected.lw602.size();
      for (const std::size_t threads : {1u, 2u, 8u}) {
        rt::setThreadCount(threads);
        const TemporalVerdicts got = reportedTemporalVerdicts(g);
        EXPECT_EQ(got.lw601, expected.lw601)
            << "seed " << seed << ", " << numberingName(how) << " ids, "
            << threads << " threads";
        EXPECT_EQ(got.lw602, expected.lw602)
            << "seed " << seed << ", " << numberingName(how) << " ids, "
            << threads << " threads";
      }
    }
  }
  rt::setThreadCount(0);
  EXPECT_GT(lw601, 0u);
  EXPECT_GT(lw602, 0u);
}

TEST(Dataflow, TimeFramesMatchNaiveFramesUnderAnyNumbering) {
  for (std::uint64_t seed = 31; seed <= 33; ++seed) {
    cdfg::Cdfg generated = smallRandomDfg(seed);
    addTemporalEdges(generated, 5, seed * 3);
    for (const Numbering how : locwm::testing::kNumberings) {
      const cdfg::Cdfg g = renumbered(generated, how, seed);
      for (const auto& lat : {sched::LatencyModel::unit(),
                              sched::LatencyModel::hyperDefault()}) {
        for (const bool temporal : {false, true}) {
          const auto naive = locwm::testing::naiveFrames(g, lat, temporal);
          const sched::TimeFrames tf(g, lat, std::nullopt, temporal);
          EXPECT_EQ(tf.criticalPathSteps(), naive.critical);
          for (const cdfg::NodeId v : g.allNodes()) {
            ASSERT_EQ(tf.asap(v), naive.asap[v.value()])
                << numberingName(how) << " ids, temporal " << temporal
                << ", asap " << v.value();
            ASSERT_EQ(tf.alap(v), naive.alap[v.value()])
                << numberingName(how) << " ids, temporal " << temporal
                << ", alap " << v.value();
          }
        }
      }
    }
  }
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
// Cyclic input: every analysis terminates; the closure declines.

TEST(Dataflow, CyclicGraphTerminates) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  const auto c = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(a, b);
  g.addEdge(b, a);
  g.addEdge(b, c);
  const CsrView view(g);
  const auto reach = check::computeReachability(view, {a}, Direction::kForward);
  EXPECT_TRUE(reach.reached(b));
  EXPECT_TRUE(reach.reached(c));
  EXPECT_TRUE(check::hasPathSkipping(view, b, a));
  // The semantic rules bail out cleanly (LW103 owns cyclic graphs).
  EXPECT_TRUE(check::checkSemantics(g).empty());
}

TEST(Dataflow, ClosureOfCyclicViewIsCyclicAndEmpty) {
  // A 200-node ring numbered against its edges, with a tail: the cycle is
  // found by the Kahn order before any bit matrix is allocated.
  cdfg::Cdfg g;
  constexpr std::uint32_t kRing = 200;
  for (std::uint32_t i = 0; i < kRing + 1; ++i) {
    g.addNode(cdfg::OpKind::kAdd);
  }
  for (std::uint32_t i = 0; i < kRing; ++i) {
    g.addEdge(cdfg::NodeId((i + 1) % kRing), cdfg::NodeId(i));
  }
  g.addEdge(cdfg::NodeId(0), cdfg::NodeId(kRing), cdfg::EdgeKind::kTemporal);
  const CsrView view(g);
  for (const EdgeSel sel : {EdgeSel::kAll, EdgeSel::kDataControl}) {
    const auto closure = check::computePrecedenceClosure(view, sel);
    EXPECT_TRUE(closure.cyclic);
    EXPECT_EQ(closure.ancestors.memoryBytes(), 0u);
  }
  // The tail alone is acyclic: only the temporal edge selected.
  const auto tail = check::computePrecedenceClosure(view, EdgeSel::kTemporal);
  EXPECT_FALSE(tail.cyclic);
  EXPECT_TRUE(tail.precedes(cdfg::NodeId(0), cdfg::NodeId(kRing)));
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

TEST(Differ, AppendedMarksAreEachExplained) {
  // Two marks embedded one after the other into the same design: after
  // each, the core is unchanged and every extra temporal edge is explained
  // by the certificates embedded so far.
  const cdfg::Cdfg original = workloads::waveFilter(8);
  cdfg::Cdfg marked = original;
  wm::SchedulingWatermarker marker({"alice", "design"});
  std::vector<wm::WatermarkCertificate> certs;
  std::size_t extra_before = 0;
  for (std::size_t mark = 0; mark < 2; ++mark) {
    wm::SchedWmParams params;
    params.locality.min_size = 4;
    params.min_eligible = 2;
    params.deadline =
        sched::TimeFrames(marked, params.latency).criticalPathSteps() + 3;
    const auto result = marker.embed(marked, params, mark);
    ASSERT_TRUE(result.has_value()) << "mark " << mark;
    certs.push_back(result->certificate);
    const auto diff = check::diffDesigns(original, marked, certs);
    EXPECT_FALSE(diff.report.hasErrors())
        << "mark " << mark << "\n" << diff.report.renderText();
    EXPECT_TRUE(diff.identical_core) << "mark " << mark;
    EXPECT_GT(diff.extra_temporal.size(), extra_before) << "mark " << mark;
    EXPECT_EQ(diff.explained, diff.extra_temporal.size())
        << "mark " << mark << "\n" << diff.report.renderText();
    extra_before = diff.extra_temporal.size();
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
