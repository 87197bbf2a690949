// Certificate serialization, cached detection (SchedDetector),
// whole-design localities, dummy-op realization, and enumeration-window
// tests — the APIs added for the Table I/II reproduction and for real
// detection workflows.
#include <gtest/gtest.h>

#include "cdfg/io.h"
#include "cdfg/subgraph.h"
#include "core/certificate_io.h"
#include "core/locality.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "sched/enumeration.h"
#include "sched/list_scheduler.h"
#include "sched/timeframes.h"
#include "vliw/vliw_scheduler.h"
#include "workloads/hyper.h"
#include "workloads/iir4.h"

namespace locwm::wm {
namespace {

using cdfg::Cdfg;
using cdfg::NodeId;

crypto::AuthorSignature alice() { return {"alice", "certio"}; }

SchedEmbedResult embedOnWave(Cdfg& g) {
  SchedulingWatermarker marker(alice());
  SchedWmParams params;
  params.locality.min_size = 5;
  params.min_eligible = 3;
  const sched::TimeFrames tf(g, params.latency);
  params.deadline = tf.criticalPathSteps() + 3;
  auto r = marker.embed(g, params);
  EXPECT_TRUE(r.has_value());
  return std::move(*r);
}

TEST(CertIo, SchedRoundTrip) {
  Cdfg g = workloads::waveFilter(8);
  const auto r = embedOnWave(g);
  const std::string text = certificateToString(r.certificate);
  const WatermarkCertificate back = parseSchedCertificate(text);

  EXPECT_EQ(back.context, r.certificate.context);
  EXPECT_EQ(back.root_rank, r.certificate.root_rank);
  EXPECT_EQ(back.constraints.size(), r.certificate.constraints.size());
  EXPECT_TRUE(shapeEquals(back.shape, r.certificate.shape));
  EXPECT_EQ(back.locality_params.max_distance,
            r.certificate.locality_params.max_distance);
  // Round-tripped certificate detects exactly like the original.
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg published = g.stripTemporalEdges();
  SchedulingWatermarker marker(alice());
  EXPECT_TRUE(marker.detect(published, s, back).found);
}

TEST(CertIo, TmRoundTrip) {
  const Cdfg g = workloads::lattice(6);
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  TemplateWatermarker marker(alice(), lib);
  TmWmParams params;
  params.whole_design = true;
  params.z_explicit = 2;
  params.beta = 0.0;
  const auto r = marker.embed(g, params);
  ASSERT_TRUE(r.has_value());

  const std::string text = certificateToString(r->certificate);
  const TmCertificate back = parseTmCertificate(text);
  EXPECT_EQ(back.whole_design, true);
  EXPECT_EQ(back.matchings.size(), r->certificate.matchings.size());
  EXPECT_TRUE(shapeEquals(back.shape, r->certificate.shape));

  const tm::CoverResult cover = marker.applyCover(g, *r);
  EXPECT_TRUE(marker.detect(g, cover.chosen, back).found);
}

TEST(CertIo, ParseErrors) {
  EXPECT_THROW((void)parseSchedCertificate(""), ParseError);
  EXPECT_THROW((void)parseSchedCertificate("locwm-cert v2 sched\n"),
               ParseError);
  // tm certificate fed to the sched parser.
  const Cdfg g = workloads::lattice(4);
  const tm::TemplateLibrary lib = tm::TemplateLibrary::basicDsp();
  TemplateWatermarker marker(alice(), lib);
  TmWmParams params;
  params.whole_design = true;
  params.z_explicit = 1;
  params.beta = 0.0;
  const auto r = marker.embed(g, params);
  ASSERT_TRUE(r.has_value());
  const std::string tm_text = certificateToString(r->certificate);
  EXPECT_THROW((void)parseSchedCertificate(tm_text), ParseError);
  EXPECT_NO_THROW((void)parseTmCertificate(tm_text));
  // Constraint rank beyond the shape.
  EXPECT_THROW((void)parseSchedCertificate(
                   "locwm-cert v1 sched\ncontext c\nparams 6 96 4\n"
                   "root-rank 0\nconstraint 0 9\n"
                   "shape-begin\ncdfg v1\nnode 0 add\nnode 1 add\n"
                   "edge 0 1 data\nshape-end\n"),
               ParseError);
  // Missing shape.
  EXPECT_THROW((void)parseSchedCertificate(
                   "locwm-cert v1 sched\ncontext c\nparams 6 96 4\n"),
               ParseError);
}

TEST(Detector, CachedChecksMatchDirectDetect) {
  Cdfg g = workloads::waveFilter(8);
  const auto r = embedOnWave(g);
  const sched::Schedule s = sched::listSchedule(g);
  const Cdfg published = g.stripTemporalEdges();
  SchedulingWatermarker marker(alice());

  const SchedDetector detector(marker, published, r.certificate);
  EXPECT_GT(detector.shapeMatches(), 0u);
  const auto direct = marker.detect(published, s, r.certificate);
  const auto cached = detector.check(s);
  EXPECT_EQ(direct.found, cached.found);
  EXPECT_EQ(direct.satisfied, cached.satisfied);
  EXPECT_EQ(direct.shape_matches, cached.shape_matches);
}

TEST(Detector, RootKindPrefilterIsSound) {
  // The pre-filter must never reject the true root: detection still finds
  // the mark on every suite design it embeds into.
  for (const auto& design : workloads::hyperSuite()) {
    Cdfg g = design.graph;
    SchedulingWatermarker marker({"alice", design.name});
    SchedWmParams params;
    params.locality.min_size = 4;
    params.min_eligible = 2;
    const sched::TimeFrames tf(g, params.latency);
    params.deadline = tf.criticalPathSteps() + 3;
    const auto r = marker.embed(g, params);
    if (!r) {
      continue;
    }
    const sched::Schedule s = sched::listSchedule(g);
    const Cdfg published = g.stripTemporalEdges();
    EXPECT_TRUE(marker.detect(published, s, r->certificate).found)
        << design.name;
  }
}

TEST(WholeDesign, CoversUntiedNodesOnly) {
  const Cdfg g = workloads::lattice(5);
  const LocalityDeriver der(g);
  const auto loc = der.wholeDesign();
  ASSERT_TRUE(loc.has_value());
  EXPECT_FALSE(loc->root.isValid());
  EXPECT_EQ(loc->shape.nodeCount(), loc->nodes.size());
  // Every listed node is a real op.
  for (const NodeId v : loc->nodes) {
    EXPECT_FALSE(cdfg::isPseudoOp(g.node(v).kind));
  }
}

TEST(WholeDesign, InvariantUnderRelabel) {
  const Cdfg g = workloads::lattice(5);
  std::vector<std::uint32_t> perm(g.nodeCount());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::uint32_t>((i * 11 + 3) % perm.size());
  }
  cdfg::NodeMap map;
  const Cdfg r = cdfg::relabel(g, perm, &map);
  const auto a = LocalityDeriver(g).wholeDesign();
  const auto b = LocalityDeriver(r).wholeDesign();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  ASSERT_TRUE(shapeEquals(a->shape, b->shape));
  for (std::size_t i = 0; i < a->nodes.size(); ++i) {
    EXPECT_EQ(map.at(a->nodes[i]), b->nodes[i]);
  }
}

TEST(WholeDesign, FailsOnFullySymmetricGraph) {
  // Two disconnected identical adders: everything is automorphic.
  Cdfg g;
  const NodeId i1 = g.addNode(cdfg::OpKind::kInput);
  const NodeId i2 = g.addNode(cdfg::OpKind::kInput);
  const NodeId a1 = g.addNode(cdfg::OpKind::kAdd);
  const NodeId a2 = g.addNode(cdfg::OpKind::kAdd);
  g.addEdge(i1, a1);
  g.addEdge(i2, a2);
  EXPECT_FALSE(LocalityDeriver(g).wholeDesign().has_value());
}

TEST(DummyOps, RealizationPreservesOrderSemantics) {
  Cdfg g = workloads::waveFilter(8);
  const auto r = embedOnWave(g);
  const std::size_t k = r.added_edges.size();

  const Cdfg realized = realizeWithDummyOps(g);
  EXPECT_EQ(realized.nodeCount(), g.nodeCount() + k);
  EXPECT_TRUE(realized.temporalEdges().empty());

  // Scheduling the realized graph enforces the original before-relations.
  const sched::Schedule s = sched::listSchedule(realized);
  for (const cdfg::EdgeId e : r.added_edges) {
    const auto& ed = g.edge(e);
    EXPECT_LT(s.at(ed.src), s.at(ed.dst));
  }
  // And the realized graph is an ordinary DFG a VLIW back end accepts.
  const auto vr =
      vliw::vliwSchedule(realized, vliw::VliwMachine::paperMachine());
  EXPECT_GT(vr.cycles, 0u);
}

TEST(Windows, RestrictEnumerationExactly) {
  // Two independent ops, deadline 4, but op0 window-limited to [1,2]:
  // count = 2 * 4 = 8.
  Cdfg g;
  const NodeId in = g.addNode(cdfg::OpKind::kInput);
  const NodeId a = g.addNode(cdfg::OpKind::kAdd, "a");
  const NodeId b = g.addNode(cdfg::OpKind::kAdd, "b");
  g.addEdge(in, a);
  g.addEdge(in, b);
  sched::EnumerationOptions o;
  o.deadline = 4;
  o.windows.push_back({a, 1, 2});
  EXPECT_EQ(sched::countSchedules(g, o).count, 8u);
  // Degenerate window pins the op.
  o.windows.push_back({b, 3, 3});
  EXPECT_EQ(sched::countSchedules(g, o).count, 2u);
  // Malformed window rejected.
  sched::EnumerationOptions bad;
  bad.deadline = 4;
  bad.windows.push_back({a, 3, 1});
  EXPECT_THROW((void)sched::countSchedules(g, bad), ScheduleError);
}

TEST(CertIo, RegRoundTrip) {
  const Cdfg g = workloads::waveFilter(8);
  const sched::Schedule s = sched::listSchedule(g);
  RegisterWatermarker marker(alice());
  RegWmParams params;
  params.locality.min_size = 5;
  const auto r = marker.embed(g, s, params);
  ASSERT_TRUE(r.has_value());

  const std::string text = certificateToString(r->certificate);
  const RegCertificate back = parseRegCertificate(text);
  EXPECT_EQ(back.context, r->certificate.context);
  EXPECT_EQ(back.pairs.size(), r->certificate.pairs.size());
  EXPECT_TRUE(shapeEquals(back.shape, r->certificate.shape));
  // Cross-kind parsing is rejected.
  EXPECT_THROW((void)parseSchedCertificate(text), ParseError);
  EXPECT_THROW((void)parseTmCertificate(text), ParseError);

  const auto table = regbind::computeLifetimes(g, s);
  regbind::BindOptions bo;
  bo.aliases = r->aliases;
  const auto binding = regbind::bindRegisters(table, bo);
  EXPECT_TRUE(marker.detect(g, table, binding, back).found);
}

}  // namespace
}  // namespace locwm::wm
