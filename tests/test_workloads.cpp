// Workload tests: every benchmark builder produces a well-formed,
// deterministic CDFG with the documented structure.
#include <gtest/gtest.h>

#include "cdfg/io.h"
#include "cdfg/random_dfg.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"
#include "workloads/mediabench.h"

namespace locwm::workloads {
namespace {

using cdfg::Cdfg;
using cdfg::NodeId;
using cdfg::OpKind;

std::size_t countKind(const Cdfg& g, OpKind kind) {
  std::size_t n = 0;
  for (const NodeId v : g.allNodes()) {
    n += g.node(v).kind == kind;
  }
  return n;
}

std::size_t realOps(const Cdfg& g) {
  std::size_t n = 0;
  for (const NodeId v : g.allNodes()) {
    n += !cdfg::isPseudoOp(g.node(v).kind);
  }
  return n;
}

TEST(Iir4, StructureMatchesTheFigure) {
  const Cdfg g = iir4Parallel();
  EXPECT_EQ(countKind(g, OpKind::kConstMul), 8u);  // C1..C8
  EXPECT_EQ(countKind(g, OpKind::kAdd), 9u);       // A1..A9
  // One of A6's inputs is a primary input (§IV-B).
  const NodeId a6 = g.findByName("A6");
  bool primary_input = false;
  for (const NodeId p : g.dataPredecessors(a6)) {
    primary_input |= g.node(p).kind == OpKind::kInput;
  }
  EXPECT_TRUE(primary_input);
  // A9's operands are exactly two additions (A5 and A7).
  const NodeId a9 = g.findByName("A9");
  const auto preds = g.dataPredecessors(a9);
  ASSERT_EQ(preds.size(), 2u);
  for (const NodeId p : preds) {
    EXPECT_EQ(g.node(p).kind, OpKind::kAdd);
  }
  // C7 feeds both A5 and A8 (the (A8, C7) matching of Fig. 4).
  const NodeId c7 = g.findByName("C7");
  EXPECT_EQ(g.dataSuccessors(c7).size(), 2u);
  const sched::StructuralAnalysis an(g);
  EXPECT_EQ(an.criticalPathLength(), 5u);
}

TEST(Iir4, Fig3EdgesAreIndependentPairs) {
  const Cdfg g = iir4Parallel();
  for (const auto& [src, dst] : fig3TemporalEdges(g)) {
    EXPECT_FALSE(g.hasEdge(src, dst, cdfg::EdgeKind::kData));
    EXPECT_FALSE(g.hasEdge(dst, src, cdfg::EdgeKind::kData));
  }
}

TEST(Hyper, FirHasExpectedCounts) {
  const Cdfg g = fir(11);
  EXPECT_EQ(countKind(g, OpKind::kConstMul), 11u);
  EXPECT_EQ(countKind(g, OpKind::kAdd), 10u);
  EXPECT_EQ(countKind(g, OpKind::kOutput), 1u);
  // Balanced tree: critical path ~ 1 + ceil(log2(11)).
  const sched::StructuralAnalysis an(g);
  EXPECT_EQ(an.criticalPathLength(), 5u);
}

TEST(Hyper, LatticeScalesPerStage) {
  const Cdfg g = lattice(6);
  EXPECT_EQ(countKind(g, OpKind::kConstMul), 12u);  // 2 per stage
  EXPECT_EQ(countKind(g, OpKind::kAdd), 12u);
}

TEST(Hyper, WaveFilterAdaptorStructure) {
  const Cdfg g = waveFilter(8);
  EXPECT_EQ(countKind(g, OpKind::kConstMul), 8u);  // 1 per adaptor
  // 3 ops per adaptor plus the 7-add reflection summation tree.
  EXPECT_EQ(countKind(g, OpKind::kSub) + countKind(g, OpKind::kAdd), 31u);
  // Long critical path: the forward wave traverses every adaptor.
  const sched::StructuralAnalysis an(g);
  EXPECT_GE(an.criticalPathLength(), 16u);
}

TEST(Hyper, Dct8IsEightPoint) {
  const Cdfg g = dct8();
  EXPECT_EQ(countKind(g, OpKind::kInput), 8u);
  EXPECT_EQ(countKind(g, OpKind::kOutput), 8u);
  EXPECT_GE(realOps(g), 25u);
}

TEST(Hyper, SuiteBuildsAndIsAcyclic) {
  const auto suite = hyperSuite();
  EXPECT_GE(suite.size(), 9u);
  for (const HyperDesign& d : suite) {
    SCOPED_TRACE(d.name);
    EXPECT_FALSE(d.name.empty());
    EXPECT_FALSE(d.description.empty());
    EXPECT_NO_THROW(d.graph.checkAcyclic());
    EXPECT_GE(realOps(d.graph), 9u);
    // Serialization round-trips.
    const std::string text = cdfg::printToString(d.graph);
    EXPECT_EQ(cdfg::printToString(cdfg::parseString(text)), text);
  }
}

TEST(Hyper, BuildersRejectDegenerateSizes) {
  EXPECT_THROW((void)fir(1), Error);
  EXPECT_THROW((void)lattice(0), Error);
  EXPECT_THROW((void)waveFilter(0), Error);
  EXPECT_THROW((void)iirCascade(0), Error);
  EXPECT_THROW((void)wavelet(1), Error);
  EXPECT_THROW((void)volterra(1), Error);
}

TEST(MediaBench, ProfilesAreTableOne) {
  const auto profiles = mediaBenchProfiles();
  EXPECT_EQ(profiles.size(), 11u);
  for (const auto& p : profiles) {
    SCOPED_TRACE(p.name);
    EXPECT_GE(p.operations, 200u);
    EXPECT_GT(p.mem_fraction, 0.0);
    EXPECT_LT(p.mem_fraction + p.branch_fraction, 1.0);
  }
}

TEST(MediaBench, BuildMatchesProfile) {
  for (const auto& p : mediaBenchProfiles()) {
    SCOPED_TRACE(p.name);
    const Cdfg g = buildMediaBench(p);
    EXPECT_NO_THROW(g.checkAcyclic());
    const std::size_t ops = realOps(g);
    EXPECT_EQ(ops, p.operations);
    // Memory fraction lands within a few points of the request.
    const double mem =
        static_cast<double>(countKind(g, OpKind::kLoad) +
                            countKind(g, OpKind::kStore)) /
        static_cast<double>(ops);
    EXPECT_NEAR(mem, p.mem_fraction, 0.06);
  }
}

TEST(MediaBench, DeterministicInSeed) {
  const auto p = mediaBenchProfiles()[2];
  const Cdfg a = buildMediaBench(p);
  const Cdfg b = buildMediaBench(p);
  EXPECT_EQ(cdfg::printToString(a), cdfg::printToString(b));
}

TEST(RandomDfg, HonorsKnobs) {
  cdfg::RandomDfgOptions o;
  o.operations = 100;
  o.inputs = 5;
  const Cdfg g = cdfg::randomDfg(o, 42);
  EXPECT_EQ(realOps(g), 100u);
  EXPECT_EQ(countKind(g, OpKind::kInput), 5u);
  EXPECT_GE(countKind(g, OpKind::kOutput), 1u);
  EXPECT_THROW((void)cdfg::randomDfg({.operations = 0}, 1), Error);
}

}  // namespace
}  // namespace locwm::workloads
