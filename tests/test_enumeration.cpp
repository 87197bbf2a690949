// Schedule-enumeration tests: exact counts on graphs small enough to
// verify by hand, the Ψ pair semantics of Fig. 3, budget behaviour, and
// the memoized counter against a naive exhaustive oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "sched/enumeration.h"
#include "sched/schedule.h"
#include "sched/timeframes.h"
#include "workloads/iir4.h"
#include "workloads/mediabench.h"

namespace locwm::sched {
namespace {

using cdfg::Cdfg;
using cdfg::EdgeKind;
using cdfg::NodeId;
using cdfg::OpKind;

Cdfg independentOps(std::size_t n) {
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  for (std::size_t i = 0; i < n; ++i) {
    g.addEdge(in, g.addNode(OpKind::kAdd, "op" + std::to_string(i)));
  }
  return g;
}

// ---------------------------------------------------------------------------
// The naive oracle: the plain exhaustive DFS countSchedules used before it
// was memoized, kept verbatim in behaviour.  Same variable order (Kahn over
// graph + extra edges, lowest id first), one step per search-tree state,
// the budget checked before each state.

CountResult oracleCount(const Cdfg& g, const EnumerationOptions& options) {
  const std::size_t n = g.nodeCount();
  const TimeFrames tf(g, options.latency, options.deadline,
                      options.honor_temporal);
  std::vector<std::uint32_t> lo_bound(n, 0);
  std::vector<std::uint32_t> alap(n, 0);
  for (const NodeId v : g.allNodes()) {
    alap[v.value()] = tf.alap(v);
  }
  for (const EnumerationOptions::Window& w : options.windows) {
    lo_bound[w.node.value()] = std::max(lo_bound[w.node.value()], w.lo);
    alap[w.node.value()] = std::min(alap[w.node.value()], w.hi);
  }
  auto skipped = [&](const cdfg::Edge& ed) {
    return ed.kind == EdgeKind::kTemporal && !options.honor_temporal;
  };
  std::vector<std::size_t> indegree(n, 0);
  std::vector<std::vector<NodeId>> succ(n);
  std::vector<std::vector<NodeId>> extra_before(n);
  for (const cdfg::EdgeId e : g.allEdges()) {
    if (!skipped(g.edge(e))) {
      succ[g.edge(e).src.value()].push_back(g.edge(e).dst);
      ++indegree[g.edge(e).dst.value()];
    }
  }
  for (const auto& [src, dst] : options.extra_edges) {
    succ[src.value()].push_back(dst);
    ++indegree[dst.value()];
    extra_before[dst.value()].push_back(src);
  }
  std::vector<NodeId> order;
  std::vector<NodeId> ready;
  for (const NodeId v : g.allNodes()) {
    if (indegree[v.value()] == 0) {
      ready.push_back(v);
    }
  }
  while (!ready.empty()) {
    std::sort(ready.begin(), ready.end());
    const NodeId v = ready.front();
    ready.erase(ready.begin());
    if (options.latency.latency(g.node(v).kind) > 0) {
      order.push_back(v);
    }
    for (const NodeId s : succ[v.value()]) {
      if (--indegree[s.value()] == 0) {
        ready.push_back(s);
      }
    }
  }

  CountResult r;
  std::vector<std::uint32_t> start(n, 0);
  auto run = [&](auto& self, std::size_t index) -> void {
    if (++r.steps > options.max_steps) {
      r.exact = false;
      return;
    }
    if (index == order.size()) {
      ++r.count;
      return;
    }
    const NodeId v = order[index];
    std::uint32_t lo = lo_bound[v.value()];
    for (const cdfg::EdgeId e : g.inEdges(v)) {
      const cdfg::Edge& ed = g.edge(e);
      if (!skipped(ed) && options.latency.latency(g.node(ed.src).kind) > 0) {
        lo = std::max(lo, start[ed.src.value()] +
                              options.latency.edgeGap(g.node(ed.src).kind,
                                                      ed.kind));
      }
    }
    for (const NodeId u : extra_before[v.value()]) {
      lo = std::max(lo, start[u.value()] + 1);
    }
    for (std::uint32_t t = lo; t <= alap[v.value()]; ++t) {
      start[v.value()] = t;
      self(self, index + 1);
      if (!r.exact) {
        return;
      }
    }
  };
  run(run, 0);
  return r;
}

void expectSameAsOracle(const Cdfg& g, const EnumerationOptions& o,
                        const std::string& what) {
  const CountResult want = oracleCount(g, o);
  const CountResult got = countSchedules(g, o);
  EXPECT_EQ(got.count, want.count) << what;
  EXPECT_EQ(got.exact, want.exact) << what;
  EXPECT_EQ(got.steps, want.steps) << what;
}

TEST(Enumeration, SingleOpCountsDeadline) {
  const Cdfg g = independentOps(1);
  EnumerationOptions o;
  o.deadline = 5;
  EXPECT_EQ(countSchedules(g, o).count, 5u);  // steps 0..4
}

TEST(Enumeration, IndependentOpsMultiply) {
  const Cdfg g = independentOps(3);
  EnumerationOptions o;
  o.deadline = 4;
  EXPECT_EQ(countSchedules(g, o).count, 64u);  // 4^3
}

TEST(Enumeration, ChainCountsBinomially) {
  // A chain of 3 ops in 5 steps: C(5,3) = 10 strictly increasing triples.
  Cdfg g;
  NodeId prev = g.addNode(OpKind::kInput);
  for (int i = 0; i < 3; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  EnumerationOptions o;
  o.deadline = 5;
  EXPECT_EQ(countSchedules(g, o).count, 10u);
}

TEST(Enumeration, TightDeadlineHasOneSchedule) {
  Cdfg g;
  NodeId prev = g.addNode(OpKind::kInput);
  for (int i = 0; i < 4; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  EXPECT_EQ(countSchedules(g, {}).count, 1u);  // deadline = critical path
}

TEST(Enumeration, ExtraEdgeRestrictsCount) {
  const Cdfg g = independentOps(2);
  const NodeId a = g.findByName("op0");
  const NodeId b = g.findByName("op1");
  EnumerationOptions o;
  o.deadline = 4;
  const std::uint64_t all = countSchedules(g, o).count;
  EXPECT_EQ(all, 16u);
  EnumerationOptions oc = o;
  oc.extra_edges.push_back({a, b});
  // a before b strictly: C(4,2) = 6 ordered pairs.
  EXPECT_EQ(countSchedules(g, oc).count, 6u);
}

TEST(Enumeration, PsiPairSymmetry) {
  const Cdfg g = independentOps(2);
  const NodeId a = g.findByName("op0");
  const NodeId b = g.findByName("op1");
  EnumerationOptions o;
  o.deadline = 4;
  const PsiPair ab = countPsi(g, a, b, o);
  const PsiPair ba = countPsi(g, b, a, o);
  EXPECT_EQ(ab.without_edge.count, ba.without_edge.count);
  EXPECT_EQ(ab.with_edge.count, ba.with_edge.count);
  // ΨW(a→b) + ΨW(b→a) + ties == ΨN.
  EXPECT_EQ(ab.with_edge.count + ba.with_edge.count + 4, ab.without_edge.count);
}

TEST(Enumeration, ConflictingExtraEdgesYieldCycleError) {
  const Cdfg g = independentOps(2);
  const NodeId a = g.findByName("op0");
  const NodeId b = g.findByName("op1");
  EnumerationOptions o;
  o.deadline = 4;
  o.extra_edges = {{a, b}, {b, a}};
  EXPECT_THROW((void)countSchedules(g, o), ScheduleError);
}

TEST(Enumeration, ExtraEdgeOnPseudoOpRejected) {
  const Cdfg g = independentOps(2);
  EnumerationOptions o;
  o.deadline = 4;
  o.extra_edges = {{NodeId(0), g.findByName("op1")}};  // input node
  EXPECT_THROW((void)countSchedules(g, o), ScheduleError);
}

TEST(Enumeration, BudgetReportsInexact) {
  const Cdfg g = independentOps(8);
  EnumerationOptions o;
  o.deadline = 8;
  o.max_steps = 100;
  const CountResult r = countSchedules(g, o);
  EXPECT_FALSE(r.exact);
}

TEST(Enumeration, VisitorSeesValidSchedules) {
  const Cdfg g = independentOps(2);
  EnumerationOptions o;
  o.deadline = 3;
  std::size_t seen = 0;
  enumerateSchedules(g, o, [&](const Schedule& s) {
    EXPECT_FALSE(validate(g, s, o.latency).has_value());
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 9u);
}

TEST(Enumeration, VisitorEarlyStop) {
  const Cdfg g = independentOps(3);
  EnumerationOptions o;
  o.deadline = 4;
  std::size_t seen = 0;
  enumerateSchedules(g, o, [&](const Schedule&) {
    return ++seen < 5;
  });
  EXPECT_EQ(seen, 5u);
}

TEST(Enumeration, HonorsExistingTemporalEdges) {
  Cdfg g = independentOps(2);
  g.addEdge(g.findByName("op0"), g.findByName("op1"), EdgeKind::kTemporal);
  EnumerationOptions with;
  with.deadline = 4;
  EnumerationOptions without = with;
  without.honor_temporal = false;
  EXPECT_EQ(countSchedules(g, with).count, 6u);
  EXPECT_EQ(countSchedules(g, without).count, 16u);
}

TEST(Enumeration, MotivationalExampleShape) {
  // Fig. 3's qualitative claim: adding the watermark's temporal edges cuts
  // the schedule count by an order of magnitude (166 -> 15 in the paper).
  const Cdfg g = workloads::iir4Parallel();
  EnumerationOptions o;
  const auto edges = workloads::fig3TemporalEdges(g);
  o.deadline = 7;  // critical path 5 + 2 slack
  const std::uint64_t base = countSchedules(g, o).count;
  EnumerationOptions oc = o;
  for (const auto& e : edges) {
    oc.extra_edges.push_back(e);
  }
  const std::uint64_t constrained = countSchedules(g, oc).count;
  EXPECT_GT(base, 10 * constrained);
  EXPECT_GT(constrained, 0u);
}

// ---------------------------------------------------------------------------
// The memoized counter against the oracle.  Equality is on the whole
// (count, exact, steps) triple: steps are the budget unit, so matching them
// is what keeps every budget verdict (and every "Pc n/a") unchanged.

/// A seeded random case: a small DAG with a temporal edge in the graph,
/// extra edges, start windows and either latency model.
struct RandomCase {
  Cdfg g;
  EnumerationOptions options;
};

RandomCase randomCase(std::uint64_t seed) {
  cdfg::SplitMix64 rng(seed);
  cdfg::RandomDfgOptions ro;
  ro.operations = 7 + rng.below(7);
  ro.inputs = 2 + rng.below(2);
  ro.width = 2 + rng.below(3);
  RandomCase c{cdfg::randomDfg(ro, seed), {}};
  EnumerationOptions& o = c.options;
  o.latency = rng.chance(0.5) ? LatencyModel::unit()
                              : LatencyModel::hyperDefault();
  o.max_steps = 1'000'000;
  // Temporal and extra edges both run forward in one topological order,
  // so no combination of them closes a cycle.
  std::vector<NodeId> topo;
  for (const NodeId v : c.g.topologicalOrder()) {
    if (o.latency.latency(c.g.node(v).kind) > 0) {
      topo.push_back(v);
    }
  }
  auto forwardPair = [&] {
    const std::size_t a = rng.below(topo.size() - 1);
    return ExtraEdge{topo[a], topo[a + 1 + rng.below(topo.size() - 1 - a)]};
  };
  const auto [ta, tb] = forwardPair();
  c.g.addEdge(ta, tb, EdgeKind::kTemporal);
  o.honor_temporal = rng.chance(0.5);
  for (std::uint64_t i = rng.below(4); i > 0; --i) {
    o.extra_edges.push_back(forwardPair());
  }
  // Frames with the temporal edge, so the deadline holds for either setting.
  const TimeFrames tf(c.g, o.latency);
  o.deadline = tf.criticalPathSteps() + static_cast<std::uint32_t>(
                                            rng.below(4));
  for (std::uint64_t i = rng.below(3); i > 0; --i) {
    const NodeId w = topo[rng.below(topo.size())];
    const auto lo = static_cast<std::uint32_t>(rng.below(*o.deadline));
    o.windows.push_back({w, lo, lo + static_cast<std::uint32_t>(
                                         rng.below(4))});
  }
  return c;
}

TEST(Enumeration, MemoMatchesOracleOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomCase c = randomCase(seed);
    expectSameAsOracle(c.g, c.options, "seed " + std::to_string(seed));
    c.options.honor_temporal = !c.options.honor_temporal;
    expectSameAsOracle(c.g, c.options,
                       "seed " + std::to_string(seed) + " flipped temporal");
  }
}

/// Scheduling certificates embedded on MediaBench profiles the way the
/// CLI's `embed --marks 3` does.
std::vector<wm::WatermarkCertificate> mediaBenchCertificates(
    std::size_t profiles) {
  std::vector<wm::WatermarkCertificate> certs;
  const auto all = workloads::mediaBenchProfiles();
  for (std::size_t i = 0; i < profiles && i < all.size(); ++i) {
    Cdfg g = workloads::buildMediaBench(all[i]);
    const wm::SchedulingWatermarker marker({"oracle", all[i].name});
    wm::SchedWmParams params;
    const TimeFrames tf(g, params.latency);
    params.deadline = tf.criticalPathSteps() + 3;
    params.locality.min_size = 4;
    params.min_eligible = 2;
    for (const auto& mark : marker.embedMany(g, 3, params)) {
      certs.push_back(mark.certificate);
    }
  }
  return certs;
}

/// ΨN and ΨW options for a certificate, as exactSchedulingPc sets them up.
std::pair<EnumerationOptions, EnumerationOptions> psiOptions(
    const wm::WatermarkCertificate& cert, std::uint32_t slack,
    std::uint64_t max_steps) {
  EnumerationOptions base;
  base.max_steps = max_steps;
  base.deadline =
      TimeFrames(cert.shape, base.latency).criticalPathSteps() + slack;
  EnumerationOptions constrained = base;
  for (const wm::RankConstraint& rc : cert.constraints) {
    constrained.extra_edges.push_back(
        {NodeId(rc.before_rank), NodeId(rc.after_rank)});
  }
  return {base, constrained};
}

TEST(Enumeration, MemoMatchesOracleOnMediaBenchCertificates) {
  const auto certs = mediaBenchCertificates(3);
  ASSERT_GE(certs.size(), 6u);
  for (std::size_t i = 0; i < certs.size(); ++i) {
    for (const std::uint32_t slack : {1u, 2u}) {
      const auto [psi_n, psi_w] = psiOptions(certs[i], slack, 300'000);
      const std::string what =
          "cert " + std::to_string(i) + " slack " + std::to_string(slack);
      expectSameAsOracle(certs[i].shape, psi_n, what + " ΨN");
      expectSameAsOracle(certs[i].shape, psi_w, what + " ΨW");
    }
  }
}

TEST(Enumeration, BudgetBoundaryMatchesOracle) {
  const Cdfg g = workloads::iir4Parallel();
  EnumerationOptions o;
  o.deadline = 8;
  for (const auto& e : workloads::fig3TemporalEdges(g)) {
    o.extra_edges.push_back(e);
  }
  const CountResult full = oracleCount(g, o);
  ASSERT_TRUE(full.exact);
  ASSERT_GT(full.steps, 1000u);

  o.max_steps = full.steps;
  const CountResult at = countSchedules(g, o);
  EXPECT_TRUE(at.exact);
  EXPECT_EQ(at.steps, full.steps);
  EXPECT_EQ(at.count, full.count);

  o.max_steps = full.steps - 1;
  const CountResult below = countSchedules(g, o);
  EXPECT_FALSE(below.exact);
  EXPECT_EQ(below.steps, full.steps);  // the step that broke the budget
  expectSameAsOracle(g, o, "one step short");

  // Cuts through the middle of memoized subtrees land where the plain
  // DFS stops, so the partial count is the same lower bound.
  for (const std::uint64_t budget :
       {full.steps / 2, full.steps / 3, full.steps / 7 + 5}) {
    o.max_steps = budget;
    expectSameAsOracle(g, o, "budget " + std::to_string(budget));
  }
}

TEST(Enumeration, MemoOverflowStillMatchesOracle) {
  // Eleven independent pairs a_i -> b_i, b_i pinned to [1, 2]: every
  // assignment of the a's leaves a distinct frontier, so the a-levels alone
  // offer tens of thousands of distinct memoizable subtrees, more than the
  // memo's byte cap holds.  The overflow is recomputed, not guessed.
  constexpr std::size_t kPairs = 11;
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput);
  std::vector<NodeId> a;
  for (std::size_t i = 0; i < kPairs; ++i) {
    a.push_back(g.addNode(OpKind::kAdd));
    g.addEdge(in, a.back());
  }
  EnumerationOptions o;
  o.deadline = 4;
  for (std::size_t i = 0; i < kPairs; ++i) {
    const NodeId b = g.addNode(OpKind::kAdd);
    g.addEdge(a[i], b);
    o.windows.push_back({b, 1, 2});
  }
#if LOCWM_OBS_ENABLED
  obs::setEnabled(true);
  auto& full = obs::MetricsRegistry::instance().counter("sched.enum.memo_full");
  const std::uint64_t before = full.value();
#endif
  expectSameAsOracle(g, o, "memo overflow");
#if LOCWM_OBS_ENABLED
  EXPECT_EQ(full.value(), before + 1);
  obs::setEnabled(false);
#endif
}

TEST(Enumeration, VisitorCountMatchesCounter) {
  // Both walk the same tree in the same order, so they agree on inexact
  // (budget-cut) counts too.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomCase c = randomCase(seed);
    c.options.max_steps = 200'000;
    std::uint64_t seen = 0;
    enumerateSchedules(c.g, c.options, [&](const Schedule&) {
      ++seen;
      return true;
    });
    EXPECT_EQ(seen, countSchedules(c.g, c.options).count) << seed;
  }
}

#if LOCWM_OBS_ENABLED
TEST(Enumeration, VisitorReportsBudgetHits) {
  obs::setEnabled(true);
  auto& hits =
      obs::MetricsRegistry::instance().counter("sched.enum.budget_hits");
  const std::uint64_t before = hits.value();
  const Cdfg g = independentOps(6);
  EnumerationOptions o;
  o.deadline = 6;
  o.max_steps = 100;
  enumerateSchedules(g, o, [](const Schedule&) { return true; });
  EXPECT_EQ(hits.value(), before + 1);
  obs::setEnabled(false);
}
#endif

TEST(Enumeration, AggregatePcIndependentOfThreadCount) {
  // Each aggregate call runs one memo per certificate enumeration; under
  // TSan with an oversubscribed pool this pins that they share nothing.
  const auto certs = mediaBenchCertificates(2);
  ASSERT_FALSE(certs.empty());
  constexpr std::uint64_t kBudget = 2'000'000;
  std::vector<std::optional<wm::PcEstimate>> serial;
  for (const wm::WatermarkCertificate& cert : certs) {
    try {
      serial.push_back(wm::exactSchedulingPc(cert, 2, kBudget));
    } catch (const Error&) {
      serial.push_back(std::nullopt);
    }
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    const wm::AggregatePc agg = wm::aggregateSchedulingPc(certs, 2, kBudget);
    ASSERT_EQ(agg.per_certificate.size(), serial.size());
    double combined = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(agg.per_certificate[i].has_value(), serial[i].has_value())
          << "cert " << i << " at " << threads << " threads";
      if (serial[i]) {
        EXPECT_EQ(agg.per_certificate[i]->schedules_unconstrained,
                  serial[i]->schedules_unconstrained);
        EXPECT_EQ(agg.per_certificate[i]->schedules_constrained,
                  serial[i]->schedules_constrained);
        combined += serial[i]->log10_pc;
      } else {
        ++failed;
      }
    }
    EXPECT_EQ(agg.failed, failed);
    EXPECT_EQ(agg.combined.log10_pc, combined);
  }
  rt::setThreadCount(0);
}

}  // namespace
}  // namespace locwm::sched
