// Watermarking-core tests: scheduling and template watermark embedding,
// detection, false positives, Pc estimation, and attacks.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "cdfg/random_dfg.h"
#include "cdfg/subgraph.h"
#include "core/attack.h"
#include "core/pc.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "naive_oracles.h"
#include "sched/force_directed.h"
#include "sched/list_scheduler.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"
#include "workloads/mediabench.h"

namespace locwm::wm {
namespace {

using cdfg::Cdfg;
using cdfg::NodeId;

crypto::AuthorSignature alice() { return {"alice", "design"}; }
crypto::AuthorSignature mallory() { return {"mallory", "design"}; }

SchedWmParams midParams(const Cdfg& g, std::uint32_t slack = 3) {
  SchedWmParams p;
  p.locality.min_size = 4;
  p.min_eligible = 2;
  const sched::TimeFrames tf(g, p.latency);
  p.deadline = tf.criticalPathSteps() + slack;
  return p;
}

TEST(SchedWm, EmbedAddsOnlyTemporalEdges) {
  Cdfg g = workloads::waveFilter(8);
  const std::size_t data_edges = g.edgeCount();
  SchedulingWatermarker marker(alice());
  const auto r = marker.embed(g, midParams(g));
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(g.edgeCount(), data_edges + r->added_edges.size());
  for (const cdfg::EdgeId e : r->added_edges) {
    EXPECT_EQ(g.edge(e).kind, cdfg::EdgeKind::kTemporal);
  }
  EXPECT_NO_THROW(g.checkAcyclic());
}

TEST(SchedWm, MarkedDesignStillMeetsDeadline) {
  Cdfg g = workloads::waveFilter(8);
  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  const std::uint32_t deadline = tf.criticalPathSteps() + 3;
  SchedulingWatermarker marker(alice());
  const auto r = marker.embed(g, midParams(g));
  ASSERT_TRUE(r.has_value());
  sched::ForceDirectedOptions fd;
  fd.deadline = deadline;
  const sched::Schedule s = sched::forceDirectedSchedule(g, fd);
  EXPECT_FALSE(sched::validate(g, s, fd.latency).has_value());
  EXPECT_LE(s.makespan(g, fd.latency), deadline);
}

TEST(SchedWm, DetectRequiresCorrectSignature) {
  // A bushy graph: with many carve choices, a wrong key re-derives a
  // different locality and the certificate cannot match.  (On tiny chain
  // localities a wrong key can coincide — that case is covered by the Pc
  // strength analysis, not by this structural test.)
  cdfg::RandomDfgOptions o;
  o.operations = 80;
  o.inputs = 6;
  Cdfg g = cdfg::randomDfg(o, 77);
  SchedulingWatermarker marker(alice());
  SchedWmParams p = midParams(g, 4);
  p.locality.min_size = 8;
  p.min_eligible = 4;
  p.k_fraction = 0.5;
  const auto r = marker.embed(g, p);
  ASSERT_TRUE(r.has_value());
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg published = g.stripTemporalEdges();

  EXPECT_TRUE(marker.detect(published, s, r->certificate).found);
  SchedulingWatermarker thief(mallory());
  EXPECT_FALSE(thief.detect(published, s, r->certificate).found);
}

TEST(SchedWm, UnmarkedScheduleRarelySatisfiesAllConstraints) {
  Cdfg g = workloads::waveFilter(8);
  SchedulingWatermarker marker(alice());
  SchedWmParams p = midParams(g);
  p.alpha = 0.0;       // admit the whole off-critical pool...
  p.k_fraction = 0.8;  // ...and pack it with constraints
  const auto r = marker.embed(g, p);
  ASSERT_TRUE(r.has_value());
  ASSERT_GE(r->certificate.constraints.size(), 3u);
  // Schedule the ORIGINAL (unconstrained) design — the coincidence case.
  const Cdfg original = g.stripTemporalEdges();
  sched::ListSchedulerOptions opts;
  const sched::Schedule s = sched::listSchedule(original, opts);
  const auto det = marker.detect(original, s, r->certificate);
  // The locality must be found, but the odds of all constraints holding by
  // chance are Pc ≈ 2^-K; with K >= 3 a single ASAP-flavoured schedule
  // should miss at least one.
  EXPECT_GT(det.shape_matches, 0u);
  EXPECT_LT(det.satisfied, det.total);
  EXPECT_FALSE(det.found);
}

TEST(SchedWm, EmbedManyProducesIndependentMarks) {
  Cdfg g = workloads::waveFilter(10);
  SchedulingWatermarker marker(alice());
  const auto marks = marker.embedMany(g, 3, midParams(g));
  ASSERT_GE(marks.size(), 2u);
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg published = g.stripTemporalEdges();
  for (const auto& m : marks) {
    EXPECT_TRUE(marker.detect(published, s, m.certificate).found);
  }
  // Certificates are distinct.
  EXPECT_NE(marks[0].certificate.context, marks[1].certificate.context);
}

TEST(SchedWm, SurvivesRelabeling) {
  Cdfg g = workloads::waveFilter(8);
  SchedulingWatermarker marker(alice());
  const auto r = marker.embed(g, midParams(g));
  ASSERT_TRUE(r.has_value());
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg published = g.stripTemporalEdges();

  std::vector<std::uint32_t> perm(published.nodeCount());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::uint32_t>((i * 31 + 7) % perm.size());
  }
  cdfg::NodeMap map;
  const Cdfg suspect = cdfg::relabel(published, perm, &map);
  sched::Schedule s2(suspect.nodeCount());
  for (const NodeId v : published.allNodes()) {
    s2.set(map.at(v), s.at(v));
  }
  EXPECT_TRUE(marker.detect(suspect, s2, r->certificate).found);
}

TEST(SchedWm, KFractionScalesConstraintCount) {
  SchedulingWatermarker marker(alice());
  Cdfg g1 = workloads::waveFilter(10);
  SchedWmParams small = midParams(g1);
  small.k_fraction = 0.1;
  const auto r1 = marker.embed(g1, small);
  Cdfg g2 = workloads::waveFilter(10);
  SchedWmParams big = midParams(g2);
  big.k_fraction = 0.6;
  const auto r2 = marker.embed(g2, big);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_LE(r1->certificate.constraints.size(),
            r2->certificate.constraints.size());
}

TEST(SchedWm, FailsGracefullyOnTinyGraph) {
  Cdfg g;
  const NodeId in = g.addNode(cdfg::OpKind::kInput);
  const NodeId a = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(in, a);
  SchedulingWatermarker marker(alice());
  EXPECT_FALSE(marker.embed(g, midParams(g)).has_value());
}

TEST(SchedWm, DeadlineIsCheckedOnlyOnceALocalityIsDerived) {
  // An FIR filter yields no locality under the default parameters, so an
  // unreachable deadline is never checked and the embed just fails; a
  // design that derives one rejects the same deadline.
  SchedWmParams tight;
  tight.deadline = 1;
  SchedulingWatermarker marker(alice());
  Cdfg fir = workloads::fir(8);
  EXPECT_FALSE(marker.embed(fir, tight).has_value());
  Cdfg wave = workloads::waveFilter(8);
  EXPECT_THROW((void)marker.embed(wave, tight), ScheduleError);
}

TEST(SchedWm, BoundedReachesMatchesNaiveDfs) {
  // The asap bound prunes only nodes that cannot lead to `to`, on random
  // DFGs with control and temporal edges under every numbering and under
  // latency models with and without zero-latency adds (a path may then
  // cross nodes of asap(to) itself); one scratch serves every call, its
  // epoch starting just short of the wrap.
  sched::LatencyModel free_adds = sched::LatencyModel::unit();
  free_adds.setLatency(cdfg::OpKind::kAdd, 0);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Cdfg base = locwm::testing::smallRandomDfg(seed, 20 + 8 * seed);
    locwm::testing::addTemporalEdges(base, 6, seed * 5,
                                     cdfg::EdgeKind::kControl);
    locwm::testing::addTemporalEdges(base, 12, seed * 5 + 1);
    for (const auto how : locwm::testing::kNumberings) {
      const Cdfg g = locwm::testing::renumbered(base, how, seed);
      for (const auto& lat : {sched::LatencyModel::unit(),
                              sched::LatencyModel::hyperDefault(),
                              free_adds}) {
        const sched::TimeFrames frames(g, lat);
        ReachScratch scratch;
        scratch.stamp.assign(g.nodeCount(), 0);
        scratch.epoch = std::numeric_limits<std::uint32_t>::max() - 2;
        for (const NodeId from : g.allNodes()) {
          const std::vector<char> oracle = locwm::testing::naiveReach(
              g, {from}, check::Direction::kForward, cdfg::EdgeSel::kAll);
          for (const NodeId to : g.allNodes()) {
            const bool expected = from == to || oracle[to.value()] != 0;
            ASSERT_EQ(reaches(g, frames, from, to, scratch), expected)
                << "seed " << seed << " "
                << locwm::testing::numberingName(how) << " " << from.value()
                << " -> " << to.value();
          }
        }
      }
    }
  }
}

TEST(TmWm, ForcedMatchingsAppearInCoverAndDetect) {
  const Cdfg g = workloads::iir4Parallel();
  const tm::TemplateLibrary lib = workloads::fig4Library();
  TemplateWatermarker marker(alice(), lib);
  TmWmParams params;
  params.locality.min_size = 4;
  params.beta = 0.0;
  params.z_explicit = 2;
  const auto r = marker.embed(g, params);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->forced.size(), r->certificate.matchings.size());
  EXPECT_EQ(r->solutions.size(), r->forced.size());

  const tm::CoverResult cov = marker.applyCover(g, *r);
  EXPECT_TRUE(marker.detect(g, cov.chosen, r->certificate).found);

  // Wrong-signature detector fails.
  TemplateWatermarker thief(mallory(), lib);
  EXPECT_FALSE(thief.detect(g, cov.chosen, r->certificate).found);
}

TEST(TmWm, UnwatermarkedCoverUsuallyLacksTheMark) {
  // A design with many alternative matchings so coincidence is unlikely.
  const Cdfg g = workloads::lattice(6);
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  TemplateWatermarker marker(alice(), lib);
  TmWmParams params;
  params.locality.min_size = 8;
  params.beta = 0.0;
  params.z_explicit = 3;
  const auto r = marker.embed(g, params);
  ASSERT_TRUE(r.has_value());
  ASSERT_GE(r->certificate.matchings.size(), 2u);

  // Cover WITHOUT the watermark constraints (independent tool).
  const auto all = tm::enumerateMatchings(g, lib, {});
  const tm::CoverResult plain = tm::cover(g, lib, all, {});
  const auto det = marker.detect(g, plain.chosen, r->certificate);
  EXPECT_LT(det.present, det.total);
}

TEST(TmWm, OverheadIsBounded) {
  const Cdfg g = workloads::waveFilter(8);
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  TemplateWatermarker marker(alice(), lib);
  TmWmParams params;
  params.beta = 0.2;
  const auto r = marker.embed(g, params);
  if (!r) {
    GTEST_SKIP() << "no locality in this configuration";
  }
  const auto all = tm::enumerateMatchings(g, lib, {});
  const tm::CoverResult base = tm::cover(g, lib, all, {});
  const tm::CoverResult marked = marker.applyCover(g, *r);
  // The watermark may cost some modules but never more than its node count.
  EXPECT_LE(marked.module_count,
            base.module_count + 2 * r->forced.size() + r->ppo.size());
}

TEST(Pc, OrderProbabilityHandChecked) {
  // Disjoint windows: a always before b.
  EXPECT_DOUBLE_EQ(orderProbability(0, 1, 2, 3), 1.0);
  // Reversed: never.
  EXPECT_DOUBLE_EQ(orderProbability(2, 3, 0, 1), 0.0);
  // Identical windows of width 2: P = 1/4 (one of four pairs is <).
  EXPECT_DOUBLE_EQ(orderProbability(0, 1, 0, 1), 0.25);
  // Identical windows of width n: P = (n-1)/2n -> 1/2 as n grows.
  EXPECT_NEAR(orderProbability(0, 9, 0, 9), 0.45, 1e-12);
  EXPECT_THROW((void)orderProbability(3, 2, 0, 1), Error);
}

TEST(Pc, ApproxMatchesExactOnIndependentPair) {
  // Two independent ops, deadline 4: P(a<b) = 6/16 by enumeration; the
  // window model must agree exactly here.
  Cdfg g;
  const NodeId in = g.addNode(cdfg::OpKind::kInput);
  const NodeId a = g.addNode(cdfg::OpKind::kAdd, "a");
  const NodeId b = g.addNode(cdfg::OpKind::kAdd, "b");
  g.addEdge(in, a);
  g.addEdge(in, b);
  const auto est = approxSchedulingPc(g, {{a, b}}, sched::LatencyModel::unit(),
                                      4u);
  EXPECT_NEAR(est.pc(), 6.0 / 16.0, 1e-12);
}

TEST(Pc, MoreConstraintsStrengthenProof) {
  Cdfg g = workloads::waveFilter(10);
  SchedulingWatermarker marker(alice());
  SchedWmParams p = midParams(g);
  p.k_fraction = 0.8;
  const auto r = marker.embed(g, p);
  ASSERT_TRUE(r.has_value());
  const Cdfg original = g.stripTemporalEdges();
  std::vector<sched::ExtraEdge> all_edges;
  for (const cdfg::EdgeId e : r->added_edges) {
    all_edges.push_back({g.edge(e).src, g.edge(e).dst});
  }
  ASSERT_GE(all_edges.size(), 2u);
  const std::vector<sched::ExtraEdge> half(all_edges.begin(),
                                           all_edges.begin() + 1);
  const auto few = approxSchedulingPc(original, half,
                                      sched::LatencyModel::unit(),
                                      *p.deadline);
  const auto many = approxSchedulingPc(original, all_edges,
                                       sched::LatencyModel::unit(),
                                       *p.deadline);
  EXPECT_LT(many.log10_pc, few.log10_pc);
}

TEST(Pc, ExactEstimateAgreesWithCounts) {
  Cdfg g = workloads::iir4Parallel();
  SchedulingWatermarker marker(alice());
  const auto r = marker.embed(g, midParams(g, 3));
  ASSERT_TRUE(r.has_value());
  const auto pc = exactSchedulingPc(r->certificate, 2);
  EXPECT_TRUE(pc.exact);
  EXPECT_NEAR(pc.pc(),
              static_cast<double>(pc.schedules_constrained) /
                  static_cast<double>(pc.schedules_unconstrained),
              1e-9);
}

TEST(Pc, TemplatePcMultipliesSolutionCounts) {
  const auto est = templatePc({6, 5, 2});
  EXPECT_NEAR(est.pc(), 1.0 / 60.0, 1e-12);
  // Solution counts of 1 (forced anyway) contribute nothing.
  EXPECT_DOUBLE_EQ(templatePc({1, 1}).log10_pc, 0.0);
}

TEST(Attack, PerturbKeepsFunctionalValidity) {
  Cdfg g = workloads::waveFilter(8);
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg original = g.stripTemporalEdges();
  PerturbOptions po;
  po.moves = 400;
  po.seed = 7;
  const PerturbResult r = perturbSchedule(original, s, po);
  EXPECT_FALSE(sched::validate(original, r.schedule, po.latency).has_value());
  EXPECT_GT(r.changed, 0u);
  EXPECT_LE(r.ops_touched, original.nodeCount());
}

TEST(Attack, HeavierPerturbationErodesDetection) {
  Cdfg g = workloads::waveFilter(10);
  SchedulingWatermarker marker(alice());
  SchedWmParams p = midParams(g);
  p.k_fraction = 0.8;
  const auto r = marker.embed(g, p);
  ASSERT_TRUE(r.has_value());
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg published = g.stripTemporalEdges();

  std::size_t survived_light = 0;
  std::size_t survived_heavy = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    PerturbOptions light;
    light.moves = 5;
    light.seed = seed;
    PerturbOptions heavy;
    heavy.moves = 2000;
    heavy.seed = seed;
    const auto sl = perturbSchedule(published, s, light).schedule;
    const auto sh = perturbSchedule(published, s, heavy).schedule;
    survived_light +=
        marker.detect(published, sl, r->certificate).satisfied ==
        r->certificate.constraints.size();
    survived_heavy +=
        marker.detect(published, sh, r->certificate).satisfied ==
        r->certificate.constraints.size();
  }
  EXPECT_GE(survived_light, survived_heavy);
}

TEST(Attack, EraseProbabilityMonotoneInEffort) {
  double prev = 0;
  for (std::size_t pairs = 1000; pairs <= 50000; pairs += 7000) {
    const double p = eraseProbability(100000, 100, pairs);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_LE(prev, 1.0);
}

TEST(Attack, RequiredAlterationsInvertsEraseProbability) {
  const std::size_t pairs = requiredAlterations(100000, 100, 1e-6);
  const double p = eraseProbability(100000, 100, pairs);
  EXPECT_GE(p, 1e-6 * 0.5);
  EXPECT_LE(p, 1e-6 * 5.0);
  EXPECT_THROW((void)requiredAlterations(100000, 0, 1e-6), Error);
  EXPECT_THROW((void)requiredAlterations(100000, 100, 2.0), Error);
}

TEST(Attack, EdgeSurvivalBounds) {
  EXPECT_DOUBLE_EQ(edgeSurvivalProbability(0.0), 1.0);
  EXPECT_DOUBLE_EQ(edgeSurvivalProbability(1.0), 0.0);
  EXPECT_THROW((void)edgeSurvivalProbability(1.5), Error);
}

TEST(Pc, UnsatisfiableSlackRaisesDeadlineToConstrainedCriticalPath) {
  // Four independent adds (critical path 1) chained by three constraints:
  // at deadline CP + slack = 2 no schedule meets them (ΨW = 0), but the
  // author's schedule does at the constrained critical path, 4.
  WatermarkCertificate cert;
  for (int i = 0; i < 4; ++i) {
    (void)cert.shape.addNode(cdfg::OpKind::kAdd);
  }
  cert.constraints = {{0, 1}, {1, 2}, {2, 3}};
  const PcEstimate pc = schedulingPc(cert, 1);
  EXPECT_TRUE(pc.exact);
  EXPECT_EQ(pc.deadline, 4u);
  EXPECT_EQ(pc.schedules_constrained, 1u);
  EXPECT_EQ(pc.schedules_unconstrained, 256u);  // 4^4
  EXPECT_DOUBLE_EQ(pc.log10_pc, -std::log10(256.0));
}

TEST(Pc, UncountableConstraintsFallBackToApprox) {
  // Constraints no schedule meets (a self constraint, a cycle, a pseudo-op
  // endpoint) cannot be counted; schedulingPc still rates them.
  WatermarkCertificate base;
  (void)base.shape.addNode(cdfg::OpKind::kInput);
  for (int i = 0; i < 3; ++i) {
    (void)base.shape.addNode(cdfg::OpKind::kAdd);
  }
  for (const std::vector<RankConstraint>& constraints :
       std::vector<std::vector<RankConstraint>>{
           {{1, 1}}, {{1, 2}, {2, 1}}, {{0, 2}}}) {
    WatermarkCertificate cert = base;
    cert.constraints = constraints;
    EXPECT_THROW((void)exactSchedulingPc(cert, 1), Error);
    const PcEstimate pc = schedulingPc(cert, 1);
    EXPECT_FALSE(pc.exact);
    EXPECT_EQ(pc.deadline, 2u);
    EXPECT_LT(pc.log10_pc, 0.0);
  }
}

TEST(Pc, CountPastTwoToThe64FallsBackToApprox) {
  // 64 independent adds in 2 steps: ΨN = 2^64 does not fit a count, so the
  // estimate is the window approximation at the same deadline.
  WatermarkCertificate cert;
  for (int i = 0; i < 64; ++i) {
    (void)cert.shape.addNode(cdfg::OpKind::kAdd);
  }
  cert.constraints = {{0, 1}};
  const PcEstimate pc = schedulingPc(cert, 1);
  EXPECT_FALSE(pc.exact);
  EXPECT_EQ(pc.deadline, 2u);
  EXPECT_DOUBLE_EQ(pc.log10_pc, std::log10(orderProbability(0, 1, 0, 1)));
  EXPECT_THROW((void)exactSchedulingPc(cert, 1), Error);
}

}  // namespace
}  // namespace locwm::wm
