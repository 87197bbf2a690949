// Schedule-counting tests: exact counts on graphs small enough to verify
// by hand, the Ψ pair semantics of Fig. 3, budget behaviour, and the
// memoized counter against a naive exhaustive oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
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
// was memoized.  Same variable order (Kahn over graph + extra edges, lowest
// id first); it gives up (exact = false) past `max_states` search states.
// `visit`, when given, sees every schedule, pseudo-ops pinned after their
// producers, and may return false to stop the search early.

constexpr std::uint64_t kOracleStates = 1'000'000;

using Visitor = std::function<bool(const Schedule&)>;

CountResult oracleCount(const Cdfg& g, const EnumerationOptions& options,
                        const Visitor& visit = {},
                        std::uint64_t max_states = kOracleStates) {
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

  std::vector<NodeId> pseudo;
  for (const NodeId v : g.topologicalOrder(options.honor_temporal)) {
    if (options.latency.latency(g.node(v).kind) == 0) {
      pseudo.push_back(v);
    }
  }
  std::vector<std::uint32_t> start(n, 0);
  auto emit = [&] {
    Schedule s(n);
    for (const NodeId v : order) {
      s.set(v, start[v.value()]);
    }
    for (const NodeId v : pseudo) {
      std::uint32_t t = 0;
      for (const cdfg::EdgeId e : g.inEdges(v)) {
        const cdfg::Edge& ed = g.edge(e);
        if (!skipped(ed) && s.isSet(ed.src)) {
          t = std::max(t, s.at(ed.src) + options.latency.edgeGap(
                                             g.node(ed.src).kind, ed.kind));
        }
      }
      s.set(v, t);
    }
    return visit(s);
  };

  CountResult r;
  std::uint64_t states = 0;
  bool stopped = false;
  auto run = [&](auto& self, std::size_t index) -> void {
    if (++states > max_states) {
      r.exact = false;
      return;
    }
    if (index == order.size()) {
      ++r.count;
      stopped = visit && !emit();
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
      if (!r.exact || stopped) {
        return;
      }
    }
  };
  run(run, 0);
  return r;
}

/// Compares the counter with the oracle: equal counts whenever both are
/// exact, and an inexact count is a lower bound.  Returns whether both were
/// exact.
bool expectSameAsOracle(const Cdfg& g, const EnumerationOptions& o,
                        const std::string& what,
                        std::uint64_t max_states = kOracleStates) {
  const CountResult want = oracleCount(g, o, {}, max_states);
  const CountResult got = countSchedules(g, o);
  if (want.exact && got.exact) {
    EXPECT_EQ(got.count, want.count) << what;
    return true;
  }
  if (want.exact) {
    EXPECT_LE(got.count, want.count) << what;
  }
  return false;
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

/// A chain of `n` adds fed by one input.
Cdfg chain(std::size_t n) {
  Cdfg g;
  NodeId prev = g.addNode(OpKind::kInput);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId v = g.addNode(OpKind::kAdd);
    g.addEdge(prev, v);
    prev = v;
  }
  return g;
}

TEST(Enumeration, BudgetReportsInexact) {
  // C(16, 8) = 12870 schedules; the memo counts them in several hundred
  // units of work, more than the budget grants.
  const Cdfg g = chain(8);
  EnumerationOptions o;
  o.deadline = 16;
  o.max_work = 100;
  const CountResult r = countSchedules(g, o);
  EXPECT_FALSE(r.exact);
  EXPECT_LT(r.count, 12870u);
  o.max_work = 200'000;
  EXPECT_EQ(countSchedules(g, o).count, 12870u);
}

TEST(Enumeration, BudgetCountsRealWorkNotSchedules) {
  // 8 independent ops in 8 steps: 8^8 schedules, but every level's
  // subtree is the same, so the memo counts them in a few hundred units.
  const Cdfg g = independentOps(8);
  EnumerationOptions o;
  o.deadline = 8;
  o.max_work = 1'000;
  const CountResult r = countSchedules(g, o);
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.count, 16'777'216u);
}

TEST(Enumeration, CountPastTwoToThe64IsInexact) {
  // 23 independent ops in 7 steps: 7^23 ≈ 2.7e19 > 2^64 ≈ 1.8e19.  The
  // count stops at a lower bound instead of wrapping.
  const Cdfg g = independentOps(23);
  EnumerationOptions o;
  o.deadline = 7;
  const CountResult r = countSchedules(g, o);
  EXPECT_FALSE(r.exact);
  EXPECT_GT(r.count, std::uint64_t{1} << 63);
  // 7^22 ≈ 3.9e18 still fits.
  const CountResult fits = countSchedules(independentOps(22), o);
  EXPECT_TRUE(fits.exact);
  EXPECT_EQ(fits.count, 3'909'821'048'582'988'049u);
}

TEST(Enumeration, VisitorSeesValidSchedules) {
  const Cdfg g = independentOps(2);
  EnumerationOptions o;
  o.deadline = 3;
  std::size_t seen = 0;
  (void)oracleCount(g, o, [&](const Schedule& s) {
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
  (void)oracleCount(g, o, [&](const Schedule&) { return ++seen < 5; });
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
// The memoized counter against the oracle: equal counts whenever both are
// exact.  The budgets differ in unit (real work against plain-DFS states),
// so the tests also pin that the cases they compare come out exact.

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
  // A few cases are too large for the oracle's state cap.
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomCase c = randomCase(seed);
    compared +=
        expectSameAsOracle(c.g, c.options, "seed " + std::to_string(seed));
    c.options.honor_temporal = !c.options.honor_temporal;
    compared += expectSameAsOracle(
        c.g, c.options, "seed " + std::to_string(seed) + " flipped temporal");
  }
  EXPECT_GE(compared, 110u);
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

/// ΨN and ΨW options for a certificate at `slack` steps past its shape's
/// critical path, with the budget `max_work`.
std::pair<EnumerationOptions, EnumerationOptions> psiOptions(
    const wm::WatermarkCertificate& cert, std::uint32_t slack,
    std::uint64_t max_work) {
  EnumerationOptions base;
  base.max_work = max_work;
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
  std::size_t compared = 0;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    for (const std::uint32_t slack : {1u, 2u}) {
      const auto [psi_n, psi_w] = psiOptions(certs[i], slack, 300'000);
      const std::string what =
          "cert " + std::to_string(i) + " slack " + std::to_string(slack);
      compared += expectSameAsOracle(certs[i].shape, psi_n, what + " ΨN");
      compared += expectSameAsOracle(certs[i].shape, psi_w, what + " ΨW");
    }
  }
  EXPECT_GE(compared, certs.size() * 3);
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
  EXPECT_TRUE(expectSameAsOracle(g, o, "memo overflow", 20'000'000));
#if LOCWM_OBS_ENABLED
  EXPECT_EQ(full.value(), before + 1);
  obs::setEnabled(false);
#endif
}

TEST(Enumeration, VisitorCountMatchesCounter) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const RandomCase c = randomCase(seed);
    std::uint64_t seen = 0;
    const CountResult oracle =
        oracleCount(c.g, c.options, [&](const Schedule&) {
          ++seen;
          return true;
        });
    ASSERT_TRUE(oracle.exact) << seed;
    EXPECT_EQ(seen, oracle.count) << seed;
    EXPECT_EQ(seen, countSchedules(c.g, c.options).count) << seed;
  }
}

#if LOCWM_OBS_ENABLED
TEST(Enumeration, CounterReportsBudgetHits) {
  obs::setEnabled(true);
  auto& hits =
      obs::MetricsRegistry::instance().counter("sched.enum.budget_hits");
  const std::uint64_t before = hits.value();
  EnumerationOptions o;
  o.deadline = 12;
  o.max_work = 100;
  (void)countSchedules(chain(6), o);
  EXPECT_EQ(hits.value(), before + 1);
  obs::setEnabled(false);
}
#endif

// ---------------------------------------------------------------------------
// The detectors' scheduling Pc against the oracle.

/// A seeded random certificate: a small DAG shape with forward rank
/// constraints between its real ops.
wm::WatermarkCertificate randomCertificate(std::uint64_t seed) {
  cdfg::SplitMix64 rng(seed);
  cdfg::RandomDfgOptions ro;
  ro.operations = 6 + rng.below(6);
  ro.inputs = 2;
  ro.width = 2 + rng.below(3);
  wm::WatermarkCertificate cert;
  cert.shape = cdfg::randomDfg(ro, seed);
  std::vector<NodeId> topo;
  for (const NodeId v : cert.shape.topologicalOrder()) {
    if (LatencyModel::unit().latency(cert.shape.node(v).kind) > 0) {
      topo.push_back(v);
    }
  }
  for (std::uint64_t i = 1 + rng.below(4); i > 0; --i) {
    const std::size_t a = rng.below(topo.size() - 1);
    const std::size_t b = a + 1 + rng.below(topo.size() - 1 - a);
    cert.constraints.push_back({topo[a].value(), topo[b].value()});
  }
  return cert;
}

TEST(Pc, SchedulingPcMatchesOracleOnSeededShapes) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const wm::WatermarkCertificate cert = randomCertificate(seed);
    const wm::PcEstimate pc = wm::schedulingPc(cert, 1);
    ASSERT_TRUE(pc.exact) << seed;
    auto [psi_n, psi_w] =
        psiOptions(cert, wm::kPcDeadlineSlack, wm::kPcWorkBudget);
    EXPECT_GE(pc.deadline, *psi_n.deadline) << seed;
    psi_n.deadline = psi_w.deadline = pc.deadline;
    const CountResult n = oracleCount(cert.shape, psi_n);
    const CountResult w = oracleCount(cert.shape, psi_w);
    ASSERT_TRUE(n.exact && w.exact) << seed;
    EXPECT_EQ(pc.schedules_unconstrained, n.count) << seed;
    EXPECT_EQ(pc.schedules_constrained, w.count) << seed;
    EXPECT_GT(w.count, 0u) << seed;
    EXPECT_DOUBLE_EQ(pc.log10_pc, std::log10(static_cast<double>(w.count)) -
                                      std::log10(static_cast<double>(n.count)))
        << seed;
    // §IV-B's multiplier: each further place the shape occurs adds a
    // chance of coincidence.
    EXPECT_DOUBLE_EQ(wm::schedulingPc(cert, 3).log10_pc,
                     pc.log10_pc + std::log10(3.0))
        << seed;
  }
}

TEST(Pc, SchedulingPcIndependentOfThreadCount) {
  // The counts of concurrent calls each own their memo; under TSan with an
  // oversubscribed pool this pins that they share nothing.
  const auto certs = mediaBenchCertificates(2);
  ASSERT_FALSE(certs.empty());
  std::vector<wm::PcEstimate> serial;
  for (const wm::WatermarkCertificate& cert : certs) {
    serial.push_back(wm::schedulingPc(cert, 1));
  }
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    std::vector<wm::PcEstimate> got(certs.size());
    rt::parallel_for(0, certs.size(), /*grain=*/1, [&](std::size_t i) {
      got[i] = wm::schedulingPc(certs[i], 1);
    });
    for (std::size_t i = 0; i < certs.size(); ++i) {
      EXPECT_EQ(got[i].exact, serial[i].exact) << i << " @" << threads;
      EXPECT_EQ(got[i].log10_pc, serial[i].log10_pc) << i << " @" << threads;
      EXPECT_EQ(got[i].schedules_unconstrained,
                serial[i].schedules_unconstrained);
      EXPECT_EQ(got[i].schedules_constrained, serial[i].schedules_constrained);
    }
  }
  rt::setThreadCount(0);
}

}  // namespace
}  // namespace locwm::sched
