// Differential verification of the incremental static-analysis engine.
//
// The engine's contract (check/incremental.h) is byte-identical agreement
// with the one-shot oracle after every edit batch, at any thread count.
// These tests hammer that contract with randomized edit scripts (adds and
// removals of nodes and edges of every kind, including cycle-inducing
// edges and rejected ops) and with targeted cases for each repair path.
// The Baseline suite covers the lint ratchet (check/baseline.h).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cdfg/delta.h"
#include "cdfg/graph.h"
#include "cdfg/prng.h"
#include "cdfg/random_dfg.h"
#include "check/baseline.h"
#include "check/dataflow.h"
#include "check/incremental.h"
#include "check/rules.h"
#include "rt/rt.h"
#include "sched/latency.h"
#include "workloads/iir4.h"

namespace locwm {
namespace {

using cdfg::Cdfg;
using cdfg::CsrDelta;
using cdfg::EdgeId;
using cdfg::EdgeKind;
using cdfg::EditDelta;
using cdfg::EditOp;
using cdfg::NodeId;
using cdfg::OpKind;

Cdfg seedDfg(std::uint64_t seed, std::size_t operations = 220) {
  cdfg::RandomDfgOptions o;
  o.operations = operations;
  o.inputs = 8;
  o.width = 12;
  return cdfg::randomDfg(o, seed);
}

/// Samples one plausible (sometimes deliberately invalid) edit against the
/// current state of `g`.
EditOp randomOp(const Cdfg& g, cdfg::SplitMix64& rng) {
  const auto liveNode = [&]() -> NodeId {
    for (int tries = 0; tries < 64; ++tries) {
      const NodeId n(
          static_cast<std::uint32_t>(rng.next() % g.nodeCount()));
      if (g.nodeAlive(n)) {
        return n;
      }
    }
    return NodeId(0);
  };
  switch (rng.next() % 10) {
    case 0:
    case 1:
    case 2: {  // add temporal edge (may be rejected: dup/self/cycle ok)
      return EditOp::addEdge(liveNode(), liveNode(), EdgeKind::kTemporal);
    }
    case 3: {  // remove a temporal edge when one exists
      const auto temporal = g.temporalEdges();
      if (!temporal.empty()) {
        const cdfg::Edge& e =
            g.edge(temporal[rng.next() % temporal.size()]);
        return EditOp::removeEdge(e.src, e.dst, EdgeKind::kTemporal);
      }
      return EditOp::addEdge(liveNode(), liveNode(), EdgeKind::kTemporal);
    }
    case 4: {  // add a data edge (may create a cycle — both sides agree)
      return EditOp::addEdge(liveNode(), liveNode(), EdgeKind::kData);
    }
    case 5: {  // remove a data edge when one exists
      for (int tries = 0; tries < 64; ++tries) {
        const std::size_t table = g.edgeTableSize();
        const EdgeId id(static_cast<std::uint32_t>(rng.next() % table));
        if (g.edgeAlive(id) && g.edge(id).kind == EdgeKind::kData) {
          const cdfg::Edge& e = g.edge(id);
          return EditOp::removeEdge(e.src, e.dst, EdgeKind::kData);
        }
      }
      return EditOp::addEdge(liveNode(), liveNode(), EdgeKind::kTemporal);
    }
    case 6: {  // remove a node (tombstones it with its incident edges)
      return EditOp::removeNode(liveNode());
    }
    case 7: {  // add a node (forces the full-rebuild path)
      return EditOp::addNode(OpKind::kAdd, "delta");
    }
    case 8: {  // deliberately dangling removal — must be rejected
      return EditOp::removeEdge(liveNode(), liveNode(), EdgeKind::kControl);
    }
    default: {  // add a control edge
      return EditOp::addEdge(liveNode(), liveNode(), EdgeKind::kControl);
    }
  }
}

/// One edit script: `batches` deltas of 1..6 ops each, sampled against a
/// replica graph kept in sync with plain cdfg::applyDelta.
std::vector<EditDelta> makeScript(std::uint64_t seed, std::size_t batches) {
  Cdfg sim = seedDfg(seed);
  CsrDelta sim_csr(sim);
  cdfg::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<EditDelta> script;
  script.reserve(batches);
  for (std::size_t b = 0; b < batches; ++b) {
    EditDelta delta;
    const std::size_t ops = 1 + rng.next() % 6;
    for (std::size_t i = 0; i < ops; ++i) {
      delta.ops.push_back(randomOp(sim, rng));
    }
    static_cast<void>(cdfg::applyDelta(sim, sim_csr, delta));
    script.push_back(std::move(delta));
  }
  return script;
}

/// Replays `script` through a fresh engine, collecting the report text
/// after every batch; when `against_oracle`, also asserts byte-identical
/// agreement with checkSemantics and value-identical slack after each
/// batch.  Out-parameter because gtest fatal assertions need a void
/// function.
void replay(std::uint64_t seed, const std::vector<EditDelta>& script,
            bool against_oracle, std::vector<std::string>& texts) {
  check::delta::IncrementalAnalysis engine(seedDfg(seed), "<design>");
  texts.clear();
  texts.reserve(script.size());
  for (std::size_t b = 0; b < script.size(); ++b) {
    engine.applyDelta(script[b]);
    texts.push_back(engine.semanticReportText());
    if (!against_oracle) {
      continue;
    }
    const check::Report oracle =
        check::checkSemantics(engine.graph(), engine.artifact());
    ASSERT_EQ(oracle.renderText(), texts.back())
        << "diverged from oracle after batch " << b;
    if (!engine.cyclic()) {
      const cdfg::CsrView view(engine.graph());
      const check::SlackAnalysis slack = check::computeSlack(
          view, sched::LatencyModel::unit(), std::nullopt,
          check::EdgeMask::dataControl());
      ASSERT_TRUE(slack.converged());
      ASSERT_EQ(slack.critical, engine.critical()) << "batch " << b;
      for (std::size_t i = 0; i < view.nodeCount(); ++i) {
        const NodeId n(static_cast<std::uint32_t>(i));
        ASSERT_EQ(slack.asap[i], engine.asap(n)) << "batch " << b;
        ASSERT_EQ(slack.alap[i], engine.alap(n)) << "batch " << b;
      }
    }
  }
}

void randomizedOracle(std::uint64_t seed, std::size_t batches) {
  const std::vector<EditDelta> script = makeScript(seed, batches);
  rt::setThreadCount(1);
  std::vector<std::string> base;
  replay(seed, script, true, base);
  for (const std::size_t threads : {2U, 8U}) {
    rt::setThreadCount(threads);
    std::vector<std::string> texts;
    replay(seed, script, false, texts);
    EXPECT_EQ(texts, base) << "thread count " << threads << " diverged";
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

TEST(Incremental, RandomDeltasMatchOracleSeed1) { randomizedOracle(1, 40); }
TEST(Incremental, RandomDeltasMatchOracleSeed7) { randomizedOracle(7, 40); }
TEST(Incremental, RandomDeltasMatchOracleSeed42) {
  randomizedOracle(42, 25);
}

TEST(Incremental, SingleOpDeltasMatchOracle) {
  // 1-op batches exercise the smallest dirty regions.
  Cdfg sim = seedDfg(3, 120);
  CsrDelta sim_csr(sim);
  cdfg::SplitMix64 rng(99);
  std::vector<EditDelta> script;
  for (std::size_t i = 0; i < 60; ++i) {
    EditDelta delta;
    delta.ops.push_back(randomOp(sim, rng));
    static_cast<void>(cdfg::applyDelta(sim, sim_csr, delta));
    script.push_back(std::move(delta));
  }
  rt::setThreadCount(1);
  std::vector<std::string> texts;
  replay(3, script, true, texts);
  rt::setThreadCount(0);
}

TEST(Incremental, InitialReportMatchesOracle) {
  const Cdfg g = seedDfg(11);
  check::delta::IncrementalAnalysis engine(seedDfg(11), "<design>");
  EXPECT_EQ(check::checkSemantics(g, "<design>").renderText(),
            engine.semanticReportText());
}

TEST(Incremental, TemporalOnlyDeltaSkipsSlackAndReach) {
  check::delta::IncrementalAnalysis engine(workloads::iir4Parallel());
  // Find two nodes connected by a data path; a forward temporal edge
  // keeps the graph acyclic and must leave slack/reach untouched.
  const Cdfg& g = engine.graph();
  NodeId src = NodeId::invalid();
  NodeId dst = NodeId::invalid();
  for (const EdgeId e : g.allEdges()) {
    if (g.edge(e).kind != EdgeKind::kTemporal) {
      src = g.edge(e).src;
      dst = g.edge(e).dst;
      break;
    }
  }
  ASSERT_TRUE(src.isValid());
  EditDelta delta;
  delta.ops.push_back(EditOp::addEdge(src, dst, EdgeKind::kTemporal));
  const check::delta::DeltaStats stats = engine.applyDelta(delta);
  EXPECT_EQ(stats.asap_recomputed, 0U);
  EXPECT_EQ(stats.alap_recomputed, 0U);
  EXPECT_EQ(stats.reach_recomputed, 0U);
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_EQ(check::checkSemantics(g, engine.artifact()).renderText(),
            engine.semanticReportText());
}

TEST(Incremental, CyclicFlipEmptiesReportAndRecovers) {
  check::delta::IncrementalAnalysis engine(workloads::iir4Parallel());
  const Cdfg& g = engine.graph();
  // Any data edge reversed on top of the existing one forms a 2-cycle.
  cdfg::Edge forward{};
  for (const EdgeId e : g.allEdges()) {
    if (g.edge(e).kind == EdgeKind::kData) {
      forward = g.edge(e);
      break;
    }
  }
  EditDelta make_cycle;
  make_cycle.ops.push_back(
      EditOp::addEdge(forward.dst, forward.src, EdgeKind::kData));
  engine.applyDelta(make_cycle);
  EXPECT_TRUE(engine.cyclic());
  EXPECT_EQ(check::checkSemantics(g, engine.artifact()).renderText(),
            engine.semanticReportText());  // both empty

  EditDelta unmake;
  unmake.ops.push_back(
      EditOp::removeEdge(forward.dst, forward.src, EdgeKind::kData));
  const check::delta::DeltaStats stats = engine.applyDelta(unmake);
  EXPECT_FALSE(engine.cyclic());
  EXPECT_TRUE(stats.full_rebuild);
  EXPECT_EQ(check::checkSemantics(g, engine.artifact()).renderText(),
            engine.semanticReportText());
}

TEST(Incremental, RejectedOpsAreRecordedAndSkipped) {
  check::delta::IncrementalAnalysis engine(workloads::iir4Parallel());
  EditDelta delta;
  delta.ops.push_back(EditOp::removeEdge(NodeId(0), NodeId(1),
                                         EdgeKind::kControl));  // absent
  delta.ops.push_back(EditOp::addEdge(NodeId(0), NodeId(0)));   // self
  cdfg::AppliedDelta applied;
  const check::delta::DeltaStats stats = engine.applyDelta(delta, &applied);
  EXPECT_EQ(stats.rejected_ops, 2U);
  EXPECT_EQ(stats.accepted_ops, 0U);
  EXPECT_EQ(applied.rejected.size(), 2U);
  EXPECT_FALSE(applied.any());
}

TEST(Incremental, NodeRemovalMatchesOracle) {
  check::delta::IncrementalAnalysis engine(seedDfg(5, 80));
  const Cdfg& g = engine.graph();
  // Remove a mid-graph node with real fan-in and fan-out.
  NodeId victim = NodeId::invalid();
  for (const NodeId n : g.allNodes()) {
    if (!g.inEdges(n).empty() && !g.outEdges(n).empty()) {
      victim = n;
    }
  }
  ASSERT_TRUE(victim.isValid());
  EditDelta delta;
  delta.ops.push_back(EditOp::removeNode(victim));
  engine.applyDelta(delta);
  EXPECT_FALSE(g.nodeAlive(victim));
  EXPECT_EQ(check::checkSemantics(g, engine.artifact()).renderText(),
            engine.semanticReportText());
}

TEST(Incremental, WideRankBatchClosureMatchesOracle) {
  // 48 adds share rank 1; one delta feeds a third input into every one of
  // them, so the closure repair recomputes a rank level of 48 rows (at
  // least the parallel batch width of 24) at once, then their 48 outputs.
  Cdfg g;
  const NodeId a = g.addNode(OpKind::kInput, "a");
  const NodeId b = g.addNode(OpKind::kInput, "b");
  const NodeId c = g.addNode(OpKind::kInput, "c");
  EditDelta delta;
  for (int i = 0; i < 48; ++i) {
    const NodeId add = g.addNode(OpKind::kAdd);
    g.addEdge(a, add, EdgeKind::kData);
    g.addEdge(b, add, EdgeKind::kData);
    g.addEdge(add, g.addNode(OpKind::kOutput), EdgeKind::kData);
    delta.ops.push_back(EditOp::addEdge(c, add, EdgeKind::kData));
  }
  for (const std::size_t threads : {1U, 8U}) {
    rt::setThreadCount(threads);
    check::delta::IncrementalAnalysis engine(g, "<design>");
    ASSERT_TRUE(engine.closureEnabled());
    const check::delta::DeltaStats stats = engine.applyDelta(delta);
    EXPECT_EQ(stats.closure_rows, 96U) << "threads=" << threads;
    const check::PrecedenceClosure oracle =
        check::computePrecedenceClosure(cdfg::CsrView(engine.graph()));
    for (const NodeId x : engine.graph().allNodes()) {
      for (const NodeId y : engine.graph().allNodes()) {
        ASSERT_EQ(engine.precedes(x, y), oracle.precedes(x, y))
            << x.value() << " -> " << y.value() << " threads=" << threads;
      }
    }
    EXPECT_EQ(check::checkSemantics(engine.graph(), engine.artifact())
                  .renderText(),
              engine.semanticReportText());
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
}

// ---------------------------------------------------------------------
// CsrDelta patching semantics

TEST(CsrDelta, OverlayAndTombstoneTraversal) {
  Cdfg g;
  const NodeId a = g.addNode(OpKind::kInput);
  const NodeId b = g.addNode(OpKind::kAdd);
  const NodeId c = g.addNode(OpKind::kOutput);
  g.addEdge(a, b);
  const EdgeId bc = g.addEdge(b, c);
  CsrDelta csr(g);

  // Tombstone the base edge b->c, then add b->c as temporal.
  g.removeEdge(bc);
  csr.removeEdge(bc, cdfg::Edge{b, c, EdgeKind::kData});
  const EdgeId te = g.addEdge(b, c, EdgeKind::kTemporal);
  csr.addEdge(te, g.edge(te));

  std::vector<std::pair<std::uint32_t, EdgeKind>> seen;
  csr.forEachOut(b, cdfg::EdgeSel::kAll, [&](NodeId n, EdgeId, EdgeKind k) {
    seen.emplace_back(n.value(), k);
  });
  ASSERT_EQ(seen.size(), 1U);
  EXPECT_EQ(seen[0].first, c.value());
  EXPECT_EQ(seen[0].second, EdgeKind::kTemporal);

  // The in-side mirror agrees.
  seen.clear();
  csr.forEachIn(c, cdfg::EdgeSel::kTemporal,
                [&](NodeId n, EdgeId, EdgeKind k) {
                  seen.emplace_back(n.value(), k);
                });
  ASSERT_EQ(seen.size(), 1U);
  EXPECT_EQ(seen[0].first, b.value());
}

TEST(CsrDelta, NodeAddTriggersRelower) {
  Cdfg g = workloads::iir4Parallel();
  CsrDelta csr(g);
  EditDelta delta;
  delta.ops.push_back(EditOp::addNode(OpKind::kAdd, "n"));
  const cdfg::AppliedDelta applied = cdfg::applyDelta(g, csr, delta);
  EXPECT_TRUE(applied.relowered);
  EXPECT_EQ(applied.added_nodes.size(), 1U);
  // After rebase the new node traverses through the base arena.
  std::size_t visits = 0;
  csr.forEachOut(applied.added_nodes[0], cdfg::EdgeSel::kAll,
                 [&](NodeId, EdgeId, EdgeKind) { ++visits; });
  EXPECT_EQ(visits, 0U);
}

TEST(CsrDelta, OverlayPressureTriggersRelower) {
  Cdfg g;
  const NodeId a = g.addNode(OpKind::kInput);
  std::vector<NodeId> mids;
  for (int i = 0; i < 80; ++i) {
    mids.push_back(g.addNode(OpKind::kAdd));
    g.addEdge(a, mids.back());
  }
  CsrDelta csr(g);
  EditDelta delta;
  for (std::size_t i = 0; i + 1 < mids.size(); ++i) {
    delta.ops.push_back(
        EditOp::addEdge(mids[i], mids[i + 1], EdgeKind::kTemporal));
  }
  const cdfg::AppliedDelta applied = cdfg::applyDelta(g, csr, delta);
  EXPECT_TRUE(applied.relowered);  // 79 overlay edges > max(64, 80/8)
  EXPECT_EQ(csr.overlaySize(), 0U);
}

// ---------------------------------------------------------------------
// Baseline (lint ratchet)

check::Report reportWithFindings() {
  // A dead add (no consumer) plus an orphan — stable LW603/LW604 fodder.
  Cdfg g;
  const NodeId in = g.addNode(OpKind::kInput, "in");
  const NodeId dead = g.addNode(OpKind::kAdd, "dead");
  const NodeId orphan = g.addNode(OpKind::kAdd, "orphan");
  const NodeId out = g.addNode(OpKind::kOutput, "out");
  g.addEdge(in, dead);
  g.addEdge(orphan, out);
  return check::checkSemantics(g, "base.cdfg");
}

TEST(Baseline, RoundTripSuppressesEverything) {
  const check::Report report = reportWithFindings();
  ASSERT_FALSE(report.empty());
  const check::Baseline b =
      check::Baseline::parse(check::Baseline::fromReport(report).toJson());
  EXPECT_EQ(b.size(), report.diagnostics().size());
  EXPECT_TRUE(b.filterNew(report).empty());
}

TEST(Baseline, ReportsOnlyNewFindings) {
  const check::Report report = reportWithFindings();
  check::Report first_only;
  first_only.add(report.diagnostics().front());
  const check::Baseline b = check::Baseline::fromReport(first_only);
  const check::Report fresh = b.filterNew(report);
  EXPECT_EQ(fresh.diagnostics().size(),
            report.diagnostics().size() - 1);
  for (const check::Diagnostic& d : fresh.diagnostics()) {
    EXPECT_FALSE(b.contains(d));
  }
}

TEST(Baseline, ToJsonIsDeterministic) {
  const check::Report report = reportWithFindings();
  const check::Baseline b = check::Baseline::fromReport(report);
  EXPECT_EQ(b.toJson(), b.toJson());
  EXPECT_EQ(b.toJson(),
            check::Baseline::parse(b.toJson()).toJson());
}

TEST(Baseline, ParseRejectsMalformedInput) {
  EXPECT_THROW(check::Baseline::parse("not json"), std::runtime_error);
  EXPECT_THROW(check::Baseline::parse("{\"schema_version\": 2}"),
               std::runtime_error);
  EXPECT_THROW(check::Baseline::parse("{\"findings\": []}"),
               std::runtime_error);
  EXPECT_THROW(
      check::Baseline::parse(
          "{\"schema_version\": 1, \"findings\": [{\"bogus\": \"x\"}]}"),
      std::runtime_error);
}

TEST(Baseline, OverflowingNumberKeepsThePrefix) {
  // 2^64 + 1 used to wrap to a schema_version of 1 and parse silently.
  try {
    static_cast<void>(check::Baseline::parse(
        "{\"schema_version\": 18446744073709551617, \"findings\": []}"));
    ADD_FAILURE() << "overflowing schema_version accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "baseline parse error: number out of range");
  }
}

}  // namespace
}  // namespace locwm
