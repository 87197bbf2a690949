// Graph analyses (check/dataflow.h, check/paths.h) and differential
// verifier (check/differ.h): the batched path query against the naive DFS
// oracle of naive_oracles.h on random DFGs, acyclic and cyclic, under
// generated, reversed and shuffled ids, every edge selector, batch sizes
// around the 64-query word and 1, 2 and 8 threads; the LW601/LW602
// verdicts against naive oracles under the same numberings;
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
#include "check/paths.h"
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
// Batched path queries vs the naive DFS oracle.

constexpr EdgeSel kEverySel[] = {EdgeSel::kData, EdgeSel::kControl,
                                 EdgeSel::kTemporal, EdgeSel::kDataControl,
                                 EdgeSel::kAll};

/// `count` random queries over `g`.  A third skip one of `from`'s
/// out-edges and ask for its head (the LW104/LW601 shape, where the skip
/// decides the answer), a third skip one and ask for any node, a third
/// skip nothing.
std::vector<check::PathQuery> randomQueries(const cdfg::Cdfg& g,
                                            std::size_t count,
                                            std::uint64_t seed) {
  cdfg::SplitMix64 rng(seed);
  const auto node = [&] {
    return cdfg::NodeId(static_cast<std::uint32_t>(rng.below(g.nodeCount())));
  };
  std::vector<check::PathQuery> queries;
  for (std::size_t i = 0; i < count; ++i) {
    check::PathQuery q{node(), node()};
    const auto out = g.outEdges(q.from);
    const std::uint64_t roll = rng.below(3);
    if (roll < 2 && !out.empty()) {
      q.skip = out[rng.below(out.size())];
      if (roll == 0) {
        q.to = g.edge(q.skip).dst;
      }
    }
    queries.push_back(q);
  }
  return queries;
}

/// Path counts over a run of checks, so a test can show it was not vacuous.
struct PathTally {
  std::size_t found = 0;
  std::size_t absent = 0;
  std::size_t cut_by_skip = 0;  ///< no path only because of the skip
};

/// skippingPaths against naivePath for every query; `from == to` is the
/// empty path.
void expectMatchesNaive(const cdfg::Cdfg& g, const CsrView& view,
                        const std::vector<check::PathQuery>& queries,
                        EdgeSel sel, const std::string& where,
                        PathTally& tally) {
  const std::vector<char> got = check::skippingPaths(view, queries, sel);
  ASSERT_EQ(got.size(), queries.size()) << where;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const check::PathQuery& q = queries[i];
    const bool expected =
        q.from == q.to ||
        locwm::testing::naivePath(g, q.from, q.to, sel, q.skip);
    ASSERT_EQ(got[i] != 0, expected)
        << where << ", sel " << static_cast<int>(sel) << ", query " << i
        << ": " << q.from.value() << " -> " << q.to.value() << " skipping "
        << q.skip.value();
    ++(expected ? tally.found : tally.absent);
    if (!expected && locwm::testing::naivePath(g, q.from, q.to, sel)) {
      ++tally.cut_by_skip;
    }
  }
}

/// Every selector, batch size and thread count over `generated` under the
/// three numberings.
void expectQueriesMatchNaive(const cdfg::Cdfg& generated, std::uint64_t seed,
                             PathTally& tally) {
  for (const Numbering how : locwm::testing::kNumberings) {
    const cdfg::Cdfg g = renumbered(generated, how, seed);
    const CsrView view(g);
    for (const std::size_t batch : {1u, 63u, 64u, 65u, 129u}) {
      const auto queries = randomQueries(g, batch, seed * 1000 + batch);
      for (const std::size_t threads : {1u, 2u, 8u}) {
        rt::setThreadCount(threads);
        for (const EdgeSel sel : kEverySel) {
          expectMatchesNaive(
              g, view, queries, sel,
              "seed " + std::to_string(seed) + ", " + numberingName(how) +
                  " ids, " + std::to_string(batch) + " queries, " +
                  std::to_string(threads) + " threads",
              tally);
        }
      }
    }
  }
  rt::setThreadCount(0);
}

TEST(PathQuery, MatchesNaivePathOnRandomDfgs) {
  PathTally tally;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    cdfg::Cdfg generated = smallRandomDfg(seed);
    addTemporalEdges(generated, 6, seed * 77);
    expectQueriesMatchNaive(generated, seed, tally);
  }
  EXPECT_GT(tally.found, 100u);
  EXPECT_GT(tally.absent, 100u);
  EXPECT_GT(tally.cut_by_skip, 10u);
}

TEST(PathQuery, CyclicViewMatchesNaivePath) {
  // A 200-node ring numbered against its edges, with a temporal tail: the
  // topological order stops short, so the worklist answers.
  cdfg::Cdfg ring;
  constexpr std::uint32_t kRing = 200;
  for (std::uint32_t i = 0; i < kRing + 1; ++i) {
    ring.addNode(cdfg::OpKind::kAdd);
  }
  for (std::uint32_t i = 0; i < kRing; ++i) {
    ring.addEdge(cdfg::NodeId((i + 1) % kRing), cdfg::NodeId(i));
  }
  ring.addEdge(cdfg::NodeId(0), cdfg::NodeId(kRing),
               cdfg::EdgeKind::kTemporal);
  EXPECT_LT(cdfg::topologicalOrder(CsrView(ring), EdgeSel::kAll).size(),
            ring.nodeCount());
  PathTally tally;
  expectQueriesMatchNaive(ring, 5, tally);
  // Random DFGs with back edges, so cycles cross the data, control and
  // temporal selections.
  for (std::uint64_t seed = 6; seed <= 8; ++seed) {
    cdfg::Cdfg generated = smallRandomDfg(seed);
    addTemporalEdges(generated, 6, seed * 13);
    cdfg::SplitMix64 rng(seed);
    const std::size_t n = generated.nodeCount();
    for (int k = 0; k < 6; ++k) {
      const auto a = static_cast<std::uint32_t>(rng.below(n));
      const auto b = static_cast<std::uint32_t>(rng.below(n));
      if (a != b) {
        generated.addEdge(cdfg::NodeId(std::max(a, b)),
                          cdfg::NodeId(std::min(a, b)),
                          k % 2 == 0 ? cdfg::EdgeKind::kData
                                     : cdfg::EdgeKind::kTemporal);
      }
    }
    expectQueriesMatchNaive(generated, seed, tally);
  }
  EXPECT_GT(tally.found, 100u);
  EXPECT_GT(tally.absent, 100u);
  EXPECT_GT(tally.cut_by_skip, 10u);
}

TEST(PathQuery, RespectsEdgeSelector) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  const auto c = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(a, b, cdfg::EdgeKind::kData);
  g.addEdge(b, c, cdfg::EdgeKind::kTemporal);
  const CsrView view(g);
  const std::vector<check::PathQuery> queries{{a, c}, {a, b}, {b, c}};
  EXPECT_EQ(check::skippingPaths(view, queries, EdgeSel::kAll),
            (std::vector<char>{1, 1, 1}));
  EXPECT_EQ(check::skippingPaths(view, queries, EdgeSel::kDataControl),
            (std::vector<char>{0, 1, 0}));
  EXPECT_EQ(check::skippingPaths(view, queries, EdgeSel::kTemporal),
            (std::vector<char>{0, 0, 1}));
}

TEST(PathQuery, IgnoresTheSkippedEdge) {
  cdfg::Cdfg g;
  const auto a = g.addNode(cdfg::OpKind::kAdd);
  const auto b = g.addNode(cdfg::OpKind::kAdd);
  const auto e = g.addEdge(a, b, cdfg::EdgeKind::kTemporal);
  const CsrView view(g);
  // The skipped edge, the empty path, and endpoints outside the view.
  const std::vector<check::PathQuery> queries{
      {a, b}, {a, b, e}, {a, a, e}, {b, a},
      {cdfg::NodeId::invalid(), b}, {a, cdfg::NodeId(7)}};
  EXPECT_EQ(check::skippingPaths(view, queries, EdgeSel::kAll),
            (std::vector<char>{1, 0, 1, 0, 0, 0}));
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

/// Two chains a_0 -> ... -> a_{n-1} and b_0 -> ... -> b_{n-1} (ids a
/// first) with temporal edges a_k -> b_{k+1} for even k and a_k ->
/// b_{n-1-k} for k divisible by 3.  The second family nests: each edge is
/// implied through the next one (LW601), by paths that climb far past the
/// edge's head in rank, and the edges with k >= n/2 point backwards in
/// step (LW602).
cdfg::Cdfg twoChains(std::uint32_t n) {
  cdfg::Cdfg g;
  for (std::uint32_t i = 0; i < 2 * n; ++i) {
    g.addNode(i % n == 0 ? cdfg::OpKind::kInput : cdfg::OpKind::kAdd);
  }
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    g.addEdge(cdfg::NodeId(i), cdfg::NodeId(i + 1));
    g.addEdge(cdfg::NodeId(n + i), cdfg::NodeId(n + i + 1));
  }
  for (std::uint32_t k = 0; k + 1 < n; k += 2) {
    g.addEdge(cdfg::NodeId(k), cdfg::NodeId(n + k + 1),
              cdfg::EdgeKind::kTemporal);
  }
  for (std::uint32_t k = 0; k < n; k += 3) {
    if (!g.hasEdge(cdfg::NodeId(k), cdfg::NodeId(2 * n - 1 - k),
                   cdfg::EdgeKind::kTemporal)) {
      g.addEdge(cdfg::NodeId(k), cdfg::NodeId(2 * n - 1 - k),
                cdfg::EdgeKind::kTemporal);
    }
  }
  return g;
}

TEST(Dataflow, TemporalVerdictsMatchNaiveOracleUnderAnyNumbering) {
  std::size_t lw601 = 0;
  std::size_t lw602 = 0;
  const auto expectVerdicts = [&](const cdfg::Cdfg& generated,
                                  std::uint64_t seed) {
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
  };
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
    expectVerdicts(generated, seed);
  }
  // More temporal edges than one 64-query batch holds.
  for (const std::uint32_t n : {40u, 200u}) {
    expectVerdicts(twoChains(n), n);
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
// Cyclic input: every analysis terminates.

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
  EXPECT_EQ(check::skippingPaths(view, std::vector<check::PathQuery>{{b, a}},
                                 EdgeSel::kAll),
            std::vector<char>{1});
  // The semantic rules bail out cleanly (LW103 owns cyclic graphs).
  EXPECT_TRUE(check::checkSemantics(g).empty());
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
