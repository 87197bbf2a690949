// Static-analysis subsystem (locwm::check): one negative-path test per
// LW### diagnostic code, the engine's artifact sniffing and context
// threading, JSON rendering (well-formedness + determinism), the rule
// registry, and the post-pass audit hooks.
//
// Most tests drive check::Linter::lintText with small handcrafted artifact
// strings — the same path `locwm lint` exercises — and assert on the
// stable codes, never on message wording.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "check/diagnostics.h"
#include "check/linter.h"
#include "check/pass_audit.h"
#include "check/project.h"
#include "check/rules.h"
#include "check/workspace.h"
#include "rt/rt.h"
#include "core/certificate_io.h"
#include "core/pass_audit.h"
#include "core/sched_wm.h"
#include "json_checker.h"
#include "naive_oracles.h"
#include "sched/latency.h"
#include "sched/list_scheduler.h"
#include "sched/timeframes.h"
#include "workloads/hyper.h"

namespace {

using namespace locwm;
using cdfg::NodeId;
using check::Linter;
using check::Report;
using check::Severity;
using locwm::testing::JsonChecker;

std::size_t countCode(const Report& r, std::string_view code) {
  std::size_t n = 0;
  for (const auto& d : r.diagnostics()) {
    if (d.code == code) {
      ++n;
    }
  }
  return n;
}

bool hasCode(const Report& r, std::string_view code) {
  return countCode(r, code) > 0;
}

std::string codeList(const Report& r) {
  std::string out;
  for (const auto& d : r.diagnostics()) {
    out += d.code + " ";
  }
  return out;
}

/// Lints a sequence of artifact texts in order (context threads through,
/// as on the `locwm lint` command line) and returns the report.
Report lintAll(const std::vector<std::string>& artifacts) {
  Linter linter;
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    linter.lintText(artifacts[i], "artifact" + std::to_string(i));
  }
  return linter.report();
}

// A clean straight-line design: input -> add -> add -> output.
const char* const kChainDesign =
    "cdfg v1\n"
    "node 0 input\n"
    "node 1 add\n"
    "node 2 add\n"
    "node 3 output\n"
    "edge 0 1 data\n"
    "edge 1 2 data\n"
    "edge 2 3 data\n";

// A diamond: input feeds two parallel adds, both feed the output.  The
// adds are automorphic (LW106) and have no edge between them (LW304 bait).
const char* const kDiamondDesign =
    "cdfg v1\n"
    "node 0 input\n"
    "node 1 add\n"
    "node 2 add\n"
    "node 3 output\n"
    "edge 0 1 data\n"
    "edge 0 2 data\n"
    "edge 1 3 data\n"
    "edge 2 3 data\n";

// ---------------------------------------------------------------------------
// Engine codes (LW0xx)

TEST(CheckEngine, LW001UnreadableFile) {
  Linter linter;
  linter.lintFile("/nonexistent/locwm-test-artifact");
  EXPECT_TRUE(hasCode(linter.report(), "LW001"));
  EXPECT_TRUE(linter.report().hasErrors());
}

TEST(CheckEngine, LW001UnparseableArtifact) {
  // Header says cdfg, body is garbage the lenient parser still rejects.
  const Report r = lintAll({"cdfg v1\nnode 0 frobnicate\n"});
  EXPECT_TRUE(hasCode(r, "LW001")) << codeList(r);
}

TEST(CheckEngine, LW002UnknownArtifactKind) {
  const Report r = lintAll({"wibble wobble\n"});
  EXPECT_TRUE(hasCode(r, "LW002")) << codeList(r);
}

TEST(CheckEngine, LW003ScheduleWithoutDesign) {
  const Report r = lintAll({"0 0\n1 1\n"});
  EXPECT_TRUE(hasCode(r, "LW003")) << codeList(r);
}

TEST(CheckEngine, LW003CoverWithoutDesign) {
  const Report r = lintAll({"tmcover v1\nsingle 1\n"});
  EXPECT_TRUE(hasCode(r, "LW003")) << codeList(r);
}

TEST(CheckEngine, LW003BindingWithoutSchedule) {
  // A design alone is not enough context for a binding.
  const Report r = lintAll({kChainDesign, "registers 2\n0 0\n"});
  EXPECT_TRUE(hasCode(r, "LW003")) << codeList(r);
}

TEST(CheckEngine, CleanChainLintsClean) {
  const Report r = lintAll({kChainDesign, "0 0\n1 0\n2 1\n3 2\n"});
  EXPECT_TRUE(r.empty()) << r.renderText();
}

// ---------------------------------------------------------------------------
// Graph rules (LW1xx)

TEST(CheckGraph, LW101DanglingEdge) {
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "edge 0 9 data\n"});
  EXPECT_TRUE(hasCode(r, "LW101")) << codeList(r);
}

TEST(CheckGraph, LW101SelfEdge) {
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 add\n"
                            "edge 0 0 data\n"});
  EXPECT_TRUE(hasCode(r, "LW101")) << codeList(r);
}

TEST(CheckGraph, LW102DuplicateTemporalEdge) {
  const std::string design = std::string(kDiamondDesign) +
                             "edge 1 2 temporal\n"
                             "edge 1 2 temporal\n";
  const Report r = lintAll({design});
  EXPECT_TRUE(hasCode(r, "LW102")) << codeList(r);
}

TEST(CheckGraph, LW103Cycle) {
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 add\n"
                            "node 1 add\n"
                            "edge 0 1 data\n"
                            "edge 1 0 data\n"});
  EXPECT_TRUE(hasCode(r, "LW103")) << codeList(r);
}

TEST(CheckGraph, LW104RedundantTemporalEdge) {
  // Temporal 1->2 duplicates the data edge 1->2: implied, zero bits.
  const std::string design = std::string(kChainDesign) + "edge 1 2 temporal\n";
  const Report r = lintAll({design});
  EXPECT_TRUE(hasCode(r, "LW104")) << codeList(r);
  EXPECT_TRUE(r.hasWarnings());
  EXPECT_FALSE(r.hasErrors());
}

TEST(CheckGraph, LW105OrphanOperation) {
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "node 2 mul\n"
                            "node 3 output\n"
                            "edge 0 1 data\n"
                            "edge 1 3 data\n"});
  EXPECT_TRUE(hasCode(r, "LW105")) << codeList(r);
}

TEST(CheckGraph, LW106AutomorphicOperations) {
  const Report r = lintAll({kDiamondDesign});
  EXPECT_TRUE(hasCode(r, "LW106")) << codeList(r);
  EXPECT_FALSE(r.hasErrors());
  EXPECT_FALSE(r.hasWarnings());
}

// ---------------------------------------------------------------------------
// Schedule rules (LW2xx)

TEST(CheckSchedule, LW201UnsetNodes) {
  const Report r = lintAll({kChainDesign, "0 0\n"});
  EXPECT_TRUE(hasCode(r, "LW201")) << codeList(r);
}

TEST(CheckSchedule, LW202DataPrecedenceViolation) {
  // Everything at step 0: add(1) -> add(2) needs one cycle of latency.
  const Report r = lintAll({kChainDesign, "0 0\n1 0\n2 0\n3 0\n"});
  EXPECT_TRUE(hasCode(r, "LW202")) << codeList(r);
}

TEST(CheckSchedule, LW203TemporalViolation) {
  // Temporal 1->2 on the diamond (no data path 1->2), scheduled equal.
  const std::string design = std::string(kDiamondDesign) +
                             "edge 1 2 temporal\n";
  const Report r = lintAll({design, "0 0\n1 1\n2 1\n3 2\n"});
  EXPECT_TRUE(hasCode(r, "LW203")) << codeList(r);
  EXPECT_FALSE(hasCode(r, "LW202")) << codeList(r);
}

TEST(CheckSchedule, LW204SlackMakespan) {
  // Valid but wildly stretched: makespan far beyond the critical path.
  const Report r = lintAll({kChainDesign, "0 0\n1 5\n2 6\n3 7\n"});
  EXPECT_TRUE(hasCode(r, "LW204")) << codeList(r);
  EXPECT_FALSE(r.hasErrors());
}

TEST(CheckSchedule, LW205OutOfRangeEntry) {
  const Report r = lintAll({kChainDesign, "99 0\n0 0\n1 1\n2 2\n3 3\n"});
  EXPECT_TRUE(hasCode(r, "LW205")) << codeList(r);
}

// ---------------------------------------------------------------------------
// Cover rules (LW3xx)

TEST(CheckCover, LW301OverlappingTiles) {
  const Report r = lintAll({kChainDesign,
                            "tmcover v1\nsingle 1\nsingle 1\nsingle 2\n"});
  EXPECT_TRUE(hasCode(r, "LW301")) << codeList(r);
}

TEST(CheckCover, LW302UncoveredOperation) {
  const Report r = lintAll({kChainDesign, "tmcover v1\nsingle 1\n"});
  EXPECT_TRUE(hasCode(r, "LW302")) << codeList(r);
}

TEST(CheckCover, LW303UnknownTemplate) {
  const Report r = lintAll({kChainDesign,
                            "tmcover v1\nuse 99 1:0\nsingle 1\nsingle 2\n"});
  EXPECT_TRUE(hasCode(r, "LW303")) << codeList(r);
}

TEST(CheckCover, LW304UnrealizedTemplateEdge) {
  // basicDsp T1:add-add (op1 feeds op0) mapped onto the diamond's two
  // parallel adds: the design has no data edge 2->1.
  const Report r = lintAll({kDiamondDesign, "tmcover v1\nuse 0 1:0 2:1\n"});
  EXPECT_TRUE(hasCode(r, "LW304")) << codeList(r);
}

TEST(CheckCover, ValidSingletonCoverIsClean) {
  const Report r = lintAll({kChainDesign,
                            "tmcover v1\nsingle 1\nsingle 2\n"});
  EXPECT_FALSE(hasCode(r, "LW301")) << codeList(r);
  EXPECT_FALSE(hasCode(r, "LW302")) << codeList(r);
  EXPECT_FALSE(hasCode(r, "LW303")) << codeList(r);
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
}

// ---------------------------------------------------------------------------
// Binding rules (LW4xx).  The diamond's two add values are both live-out
// (they feed the primary output), so they always overlap.

const char* const kDiamondSchedule = "0 0\n1 0\n2 0\n3 1\n";

TEST(CheckBinding, LW401RegisterConflict) {
  const Report r = lintAll({kDiamondDesign, kDiamondSchedule,
                            "registers 2\n0 0\n1 1\n2 1\n"});
  EXPECT_TRUE(hasCode(r, "LW401")) << codeList(r);
}

TEST(CheckBinding, LW402NonValueNode) {
  // Node 3 is the primary output: it produces no register value.
  const Report r = lintAll({kDiamondDesign, kDiamondSchedule,
                            "registers 3\n0 0\n1 1\n2 2\n3 0\n"});
  EXPECT_TRUE(hasCode(r, "LW402")) << codeList(r);
}

TEST(CheckBinding, LW402RegisterOutOfRange) {
  const Report r = lintAll({kDiamondDesign, kDiamondSchedule,
                            "registers 2\n0 0\n1 1\n2 7\n"});
  EXPECT_TRUE(hasCode(r, "LW402")) << codeList(r);
}

TEST(CheckBinding, LW403ExcessRegisters) {
  // maxLive on the diamond is 2 (the two adds); three registers is waste.
  const Report r = lintAll({kDiamondDesign, kDiamondSchedule,
                            "registers 3\n0 2\n1 0\n2 1\n"});
  EXPECT_TRUE(hasCode(r, "LW403")) << codeList(r);
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
}

// ---------------------------------------------------------------------------
// Certificate rules (LW5xx), driven through the in-memory checkers (the
// same functions the lint path and the pass audit call).

/// A 3-node chain shape: add(0) -> add(1) -> add(2), node id == rank.
cdfg::Cdfg chainShape() {
  cdfg::Cdfg shape;
  const auto a = shape.addNode(cdfg::OpKind::kAdd);
  const auto b = shape.addNode(cdfg::OpKind::kAdd);
  const auto c = shape.addNode(cdfg::OpKind::kAdd);
  shape.addEdge(a, b);
  shape.addEdge(b, c);
  return shape;
}

wm::WatermarkCertificate goodSchedCert() {
  wm::WatermarkCertificate cert;
  cert.context = "sched-wm/0";
  cert.locality_params.min_size = 2;
  cert.shape = chainShape();
  cert.root_rank = 2;
  cert.constraints.push_back({2, 0});  // not implied: no data path 2->0
  return cert;
}

TEST(CheckCert, WellFormedCertificateIsClean) {
  const Report r = check::checkCertificate(goodSchedCert());
  EXPECT_TRUE(r.empty()) << r.renderText();
}

TEST(CheckCert, LW501BadLocalityParams) {
  wm::WatermarkCertificate cert = goodSchedCert();
  cert.locality_params.min_size = 0;
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW501"));
  cert.locality_params.min_size = 10;  // exceeds the 3-node shape
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW501"));
  cert = goodSchedCert();
  cert.locality_params.max_distance = 0;
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW501"));
  cert = goodSchedCert();
  cert.locality_params.exclude_prob_256 = 300;
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW501"));
}

TEST(CheckCert, LW502RankOutOfBounds) {
  wm::WatermarkCertificate cert = goodSchedCert();
  cert.root_rank = 9;
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW502"));
  cert = goodSchedCert();
  cert.constraints.push_back({7, 0});
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW502"));
}

TEST(CheckCert, LW503DegenerateAndDuplicateConstraints) {
  wm::WatermarkCertificate cert = goodSchedCert();
  cert.constraints.push_back({1, 1});  // degenerate
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW503"));
  cert = goodSchedCert();
  cert.constraints.push_back({2, 0});  // duplicate of the existing pair
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW503"));
}

TEST(CheckCert, LW503UnorderedPairDuplicateIsDirectionless) {
  wm::RegCertificate cert;
  cert.locality_params.min_size = 2;
  cert.shape = chainShape();
  cert.root_rank = 2;
  cert.pairs.push_back({2, 0});
  cert.pairs.push_back({0, 2});  // same share pair, flipped
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW503"));
}

TEST(CheckCert, LW503TmDuplicateRankAndMatching) {
  wm::TmCertificate cert;
  cert.locality_params.min_size = 2;
  cert.shape = chainShape();
  wm::EnforcedMatching m;
  m.template_id = TemplateId(0);
  m.pairs = {{1, 0}, {1, 1}};  // rank 1 mapped to two template ops
  cert.matchings.push_back(m);
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW503"));

  cert.matchings.clear();
  wm::EnforcedMatching ok;
  ok.template_id = TemplateId(0);
  ok.pairs = {{1, 0}, {0, 1}};
  cert.matchings.push_back(ok);
  cert.matchings.push_back(ok);  // byte-identical enforced matching
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW503"));
}

TEST(CheckCert, LW504IllFormedShape) {
  wm::WatermarkCertificate cert = goodSchedCert();
  cert.shape = cdfg::Cdfg{};
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW504"));

  cert = goodSchedCert();
  cert.shape.addNode(cdfg::OpKind::kInput);  // pseudo-op in the fingerprint
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW504"));

  cert = goodSchedCert();
  cert.shape.addEdge(cdfg::NodeId(0), cdfg::NodeId(2),
                     cdfg::EdgeKind::kTemporal);
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW504"));

  cert = goodSchedCert();
  cert.shape.addNode(cdfg::OpKind::kAdd);  // disconnected from the root
  EXPECT_TRUE(hasCode(check::checkCertificate(cert), "LW504"));
}

TEST(CheckCert, LW505ImpliedConstraint) {
  wm::WatermarkCertificate cert = goodSchedCert();
  cert.constraints.push_back({0, 2});  // data path 0->1->2 implies it
  const Report r = check::checkCertificate(cert);
  EXPECT_TRUE(hasCode(r, "LW505")) << codeList(r);
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
}

// ---------------------------------------------------------------------------
// Semantic rules (LW6xx): dataflow-powered whole-design checks.

TEST(CheckSemantic, LW601TemporalEdgeImpliedByOtherTemporalEdges) {
  // Three parallel adds off one input; temporal 1->2->3 plus the
  // transitively implied 1->3 (no data path between the adds, so LW104
  // stays silent and LW601 owns the finding).
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "node 2 add\n"
                            "node 3 add\n"
                            "node 4 output\n"
                            "edge 0 1 data\n"
                            "edge 0 2 data\n"
                            "edge 0 3 data\n"
                            "edge 1 4 data\n"
                            "edge 2 4 data\n"
                            "edge 3 4 data\n"
                            "edge 1 2 temporal\n"
                            "edge 2 3 temporal\n"
                            "edge 1 3 temporal\n"});
  EXPECT_TRUE(hasCode(r, "LW601")) << codeList(r);
  EXPECT_FALSE(hasCode(r, "LW104")) << codeList(r);
  EXPECT_EQ(countCode(r, "LW601"), 1u) << codeList(r);
}

TEST(CheckSemantic, LW602TemporalEdgeStretchesCriticalPath) {
  // Diamond adds are parallel; serializing them with a temporal edge
  // stretches the dependence-only critical path.
  const std::string design =
      std::string(kDiamondDesign) + "edge 1 2 temporal\n";
  const Report r = lintAll({design});
  EXPECT_TRUE(hasCode(r, "LW602")) << codeList(r);
  EXPECT_FALSE(r.hasErrors());
  EXPECT_FALSE(r.hasWarnings()) << codeList(r);  // info: safe under --werror
}

TEST(CheckSemantic, LW603DeadOperation) {
  // Node 1 consumes the input but reaches no output or side effect.
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "node 2 output\n"
                            "edge 0 1 data\n"
                            "edge 0 2 data\n"});
  EXPECT_TRUE(hasCode(r, "LW603")) << codeList(r);
}

TEST(CheckSemantic, LW603StoreCountsAsSideEffect) {
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "node 2 store\n"
                            "node 3 output\n"
                            "edge 0 1 data\n"
                            "edge 1 2 data\n"
                            "edge 0 3 data\n"});
  EXPECT_FALSE(hasCode(r, "LW603")) << codeList(r);
}

TEST(CheckSemantic, LW604UndefinedProducer) {
  // Node 1 feeds the output but no input or constant defines it.
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "node 2 output\n"
                            "edge 0 2 data\n"
                            "edge 1 2 data\n"});
  EXPECT_TRUE(hasCode(r, "LW604")) << codeList(r);
}

TEST(CheckSemantic, OrphansBelongToLW105NotLW603) {
  const Report r = lintAll({"cdfg v1\n"
                            "node 0 input\n"
                            "node 1 add\n"
                            "node 2 mul\n"
                            "node 3 output\n"
                            "edge 0 1 data\n"
                            "edge 1 3 data\n"});
  EXPECT_TRUE(hasCode(r, "LW105")) << codeList(r);
  EXPECT_FALSE(hasCode(r, "LW603")) << codeList(r);
  EXPECT_FALSE(hasCode(r, "LW604")) << codeList(r);
}

TEST(CheckSemantic, LW605OverlappingLocalities) {
  // Mark a design, then lint the same certificate twice against it:
  // identical localities trivially overlap.
  cdfg::Cdfg g = workloads::hyperSuite()[0].graph;
  wm::SchedulingWatermarker marker({"alice", "overlap-test"});
  wm::SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline =
      sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
  const auto result = marker.embed(g, params);
  ASSERT_TRUE(result.has_value());
  const std::string cert = wm::certificateToString(result->certificate);
  const Report r = lintAll({cdfg::printToString(g), cert, cert});
  EXPECT_TRUE(hasCode(r, "LW605")) << codeList(r);
}

TEST(CheckCert, LW606RecomputedPcWeakerThanNominal) {
  // A shape-implied constraint is satisfied by every schedule: recomputed
  // Pc = 1 while the nominal claim for K = 1 is 0.5 — 0.3 decades weaker.
  wm::WatermarkCertificate cert = goodSchedCert();
  cert.constraints.clear();
  cert.constraints.push_back({0, 2});
  const Report r = check::checkCertificate(cert);
  EXPECT_TRUE(hasCode(r, "LW606")) << codeList(r);
  EXPECT_FALSE(r.hasErrors()) << r.renderText();
}

TEST(CheckCert, LW606SilentOnHonestCertificate) {
  // An unimplied constraint halves the schedule count (approximately):
  // the recomputed Pc sits at the nominal claim.
  wm::WatermarkCertificate cert;
  cert.context = "sched-wm/0";
  cert.locality_params.min_size = 2;
  cert.shape.addNode(cdfg::OpKind::kAdd);
  cert.shape.addNode(cdfg::OpKind::kAdd);
  const auto c = cert.shape.addNode(cdfg::OpKind::kAdd);
  cert.shape.addEdge(cdfg::NodeId(0), cdfg::NodeId(1));
  cert.shape.addEdge(cdfg::NodeId(0), c);
  cert.root_rank = 0;
  cert.constraints.push_back({1, 2});  // 1 and 2 are parallel: real bit
  const Report r = check::checkCertificate(cert);
  EXPECT_FALSE(hasCode(r, "LW606")) << codeList(r) << r.renderText();
}

// ---------------------------------------------------------------------------
// Report deduplication: one diagnostic per (code, artifact, location).

TEST(CheckReport, DropsExactDuplicateFindings) {
  Report r;
  r.add({"LW104", Severity::kWarning, "a.cdfg", "edge 1->2", "first", "h1"});
  r.add({"LW104", Severity::kWarning, "a.cdfg", "edge 1->2", "second", "h2"});
  ASSERT_EQ(r.diagnostics().size(), 1u);
  EXPECT_EQ(r.diagnostics()[0].message, "first");  // first writer wins
  // A different location, artifact, or code is a distinct finding.
  r.add({"LW104", Severity::kWarning, "a.cdfg", "edge 2->3", "m", "h"});
  r.add({"LW104", Severity::kWarning, "b.cdfg", "edge 1->2", "m", "h"});
  r.add({"LW105", Severity::kWarning, "a.cdfg", "edge 1->2", "m", "h"});
  EXPECT_EQ(r.diagnostics().size(), 4u);
}

TEST(CheckReport, MergeDeduplicatesAcrossReports) {
  Report a;
  a.add({"LW104", Severity::kWarning, "x", "loc", "m", "h"});
  Report b;
  b.add({"LW104", Severity::kWarning, "x", "loc", "m", "h"});
  b.add({"LW105", Severity::kWarning, "x", "loc2", "m", "h"});
  a.merge(b);
  EXPECT_EQ(a.diagnostics().size(), 2u);
}

// ---------------------------------------------------------------------------
// Rendering: JSON well-formedness, escaping, and determinism.

TEST(CheckRender, JsonParsesBackAndEscapes) {
  Report r;
  r.add({"LW999", Severity::kError, "art \"q\"\\", "loc\nnl",
         "msg with \"quotes\"", "hint"});
  const std::string json = r.renderJson();
  EXPECT_TRUE(JsonChecker(json).parse()) << json;
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
}

TEST(CheckRender, JsonAndTextDeterministicAcrossRuns) {
  const std::vector<std::string> artifacts = {
      std::string(kDiamondDesign) + "edge 1 2 temporal\nedge 1 2 temporal\n",
      "0 0\n1 0\n2 0\n3 0\n99 5\n",
      "tmcover v1\nsingle 1\nsingle 1\n",
  };
  const Report first = lintAll(artifacts);
  const Report second = lintAll(artifacts);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first.renderJson(), second.renderJson());
  EXPECT_EQ(first.renderText(), second.renderText());
  EXPECT_TRUE(JsonChecker(first.renderJson()).parse()) << first.renderJson();
}

TEST(CheckRender, SarifParsesAndCarriesRuleMetadata) {
  const Report r = lintAll({
      std::string(kDiamondDesign) + "edge 1 2 temporal\nedge 1 2 temporal\n",
  });
  ASSERT_FALSE(r.empty());
  const std::string sarif = r.renderSarif();
  EXPECT_TRUE(JsonChecker(sarif).parse()) << sarif;
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"locwm\""), std::string::npos);
  // The duplicate temporal edge yields LW102 both as a result and as a
  // rule catalogue entry with its registry summary.
  EXPECT_NE(sarif.find("\"ruleId\": \"LW102\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"LW102\""), std::string::npos);
  EXPECT_NE(sarif.find("no duplicates"), std::string::npos);
}

TEST(CheckRender, SarifLevelsFollowSeverities) {
  Report r;
  r.add({"LW001", Severity::kError, "a", "", "m", "h"});
  r.add({"LW104", Severity::kWarning, "a", "", "m", "h"});
  r.add({"LW106", Severity::kInfo, "a", "", "m", "h"});
  const std::string sarif = r.renderSarif();
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"warning\""), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"note\""), std::string::npos);
}

TEST(CheckRender, SarifDeterministicAndEmptyReportIsValid) {
  const std::vector<std::string> artifacts = {
      std::string(kDiamondDesign) + "edge 1 2 temporal\nedge 1 2 temporal\n",
      "0 0\n1 0\n2 0\n3 0\n99 5\n",
  };
  EXPECT_EQ(lintAll(artifacts).renderSarif(),
            lintAll(artifacts).renderSarif());
  const Report empty;
  EXPECT_TRUE(JsonChecker(empty.renderSarif()).parse())
      << empty.renderSarif();
}

TEST(CheckRender, SummaryCountsMatchSeverities) {
  const Report r = lintAll({kChainDesign, "0 0\n1 5\n2 6\n3 7\n"});  // LW204
  EXPECT_EQ(r.count(Severity::kInfo), 1u);
  EXPECT_EQ(r.count(Severity::kError), 0u);
}

// ---------------------------------------------------------------------------
// Workspace analysis (LW8xx): cross-artifact rules over an in-memory
// workspace, plus the analysis cache's determinism contract.

/// Runs checkProject (no cache) over in-memory artifacts.
check::ProjectResult projectCheck(
    const std::vector<std::pair<std::string, std::string>>& artifacts) {
  check::Workspace ws;
  for (const auto& [path, text] : artifacts) {
    ws.addArtifactText(path, text);
  }
  return check::checkProject(ws);
}

// A 3-node chain with one interior op: input(0) -> add(1) -> output(2).
const char* const kTinyDesign =
    "cdfg v1\n"
    "node 0 input\n"
    "node 1 add\n"
    "node 2 output\n"
    "edge 0 1 data\n"
    "edge 1 2 data\n";

// A sched certificate whose 2-add shape fits kChainDesign/kTinyDesign.
const char* const kRingCertA =
    "locwm-cert v1 sched\n"
    "context ring/0\n"
    "params 2 96 4\n"
    "root-rank 1\n"
    "constraint 1 0\n"
    "shape-begin\n"
    "cdfg v1\n"
    "node 0 add\n"
    "node 1 add\n"
    "edge 0 1 data\n"
    "shape-end\n";

TEST(CheckProject, CleanWorkspaceHasNoFindings) {
  const auto result = projectCheck({{"design.cdfg", kChainDesign},
                                    {"sched.txt", "0 0\n1 1\n2 2\n3 3\n"}});
  EXPECT_FALSE(result.report.hasErrors()) << result.report.renderText();
  EXPECT_FALSE(result.report.hasWarnings()) << result.report.renderText();
}

TEST(CheckProject, LW801MalformedManifest) {
  const check::Workspace ws = check::Workspace::fromManifestText(
      "locwm-workspace v1\nwidget a.cdfg\n", "ws.manifest", ".");
  EXPECT_TRUE(hasCode(ws.loadReport(), "LW801"))
      << ws.loadReport().renderText();
  const check::Workspace bad_header = check::Workspace::fromManifestText(
      "cdfg v1\n", "ws.manifest", ".");
  EXPECT_TRUE(hasCode(bad_header.loadReport(), "LW801"));
}

TEST(CheckProject, LW801WrongKindReference) {
  check::Workspace ws;
  ws.addArtifactText("design.cdfg", kChainDesign);
  ws.addArtifactText("sched.txt", "0 0\n1 1\n2 2\n3 3\n");
  auto& sched =
      ws.artifacts()[static_cast<std::size_t>(ws.indexOf("sched.txt"))];
  sched.ref_design = "sched.txt";  // a schedule is no design
  const auto result = check::checkProject(ws);
  EXPECT_TRUE(hasCode(result.report, "LW801"))
      << result.report.renderText();
}

TEST(CheckProject, LW802DanglingReference) {
  const auto result = projectCheck(
      {{"design.cdfg", kChainDesign}, {"sched.txt", "9 0\n"}});
  EXPECT_TRUE(hasCode(result.report, "LW802"))
      << result.report.renderText();
}

TEST(CheckProject, LW803AmbiguousReference) {
  const auto result = projectCheck({{"a.cdfg", kChainDesign},
                                    {"b.cdfg", kTinyDesign},
                                    {"sched.txt", "0 0\n1 1\n2 2\n"}});
  EXPECT_TRUE(hasCode(result.report, "LW803"))
      << result.report.renderText();
}

TEST(CheckProject, LW804PrecedenceClosureViolation) {
  // Node 1 is unassigned, so no *direct* edge check can see that the
  // schedule starts the output (step 0) before the input (step 5); only
  // the transitive closure 0 -> 1 -> 2 does.
  const auto result = projectCheck(
      {{"design.cdfg", kTinyDesign}, {"sched.txt", "0 5\n2 0\n"}});
  EXPECT_TRUE(hasCode(result.report, "LW804"))
      << result.report.renderText();
  EXPECT_FALSE(hasCode(result.report, "LW202"));
}

/// A random DFG with forward temporal edges.
cdfg::Cdfg randomTemporalDfg(std::uint64_t seed, std::size_t ops) {
  cdfg::Cdfg g = locwm::testing::smallRandomDfg(seed, ops);
  locwm::testing::addTemporalEdges(g, ops / 8, seed * 7 + 1);
  return g;
}

using Steps = std::vector<std::optional<std::uint32_t>>;

/// ASAP steps over `g`, a quarter of the nodes left unset and a fifth
/// moved to a random (often inverted) step.
Steps perturbedSteps(const cdfg::Cdfg& g, std::uint64_t seed) {
  const sched::TimeFrames tf(g, sched::LatencyModel::unit());
  cdfg::SplitMix64 rng(seed);
  Steps steps(g.nodeCount());
  for (const NodeId v : g.allNodes()) {
    const std::uint64_t roll = rng.below(20);
    if (roll >= 9) {
      steps[v.value()] = tf.asap(v);
    } else if (roll >= 5) {
      steps[v.value()] = static_cast<std::uint32_t>(
          rng.below(tf.criticalPathSteps() + 1));
    }
  }
  return steps;
}

std::string scheduleText(const Steps& steps) {
  std::string text;
  for (std::size_t v = 0; v < steps.size(); ++v) {
    if (steps[v]) {
      text += std::to_string(v) + " " + std::to_string(*steps[v]) + "\n";
    }
  }
  return text;
}

/// LW804 by definition: for each scheduled node v, its smallest-id
/// scheduled transitive predecessor u that starts later; findings ordered
/// by u, then v; none when the design is cyclic.
std::vector<std::string> naiveLw804(const cdfg::Cdfg& g, const Steps& steps) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> found;  // (u, v)
  for (std::uint32_t v = 0; v < g.nodeCount(); ++v) {
    const std::vector<char> anc = locwm::testing::naiveReach(
        g, {NodeId(v)}, check::Direction::kBackward, check::EdgeMask::all());
    if (anc[v] != 0) {
      return {};  // v lies on a cycle
    }
    for (std::uint32_t u = 0; steps[v] && u < g.nodeCount(); ++u) {
      if (anc[u] != 0 && steps[u] && *steps[u] > *steps[v]) {
        found.emplace_back(u, v);
        break;
      }
    }
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> out;
  for (const auto& [u, v] : found) {
    out.push_back("node " + std::to_string(v) + ": starts at step " +
                  std::to_string(*steps[v]) +
                  ", before transitive predecessor node " +
                  std::to_string(u) + " (step " + std::to_string(*steps[u]) +
                  ")");
  }
  return out;
}

TEST(CheckProject, LW804MatchesNaiveOracleOnRandomDesigns) {
  std::size_t findings = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const cdfg::Cdfg g = randomTemporalDfg(seed, 30 + 50 * seed);
    check::Workspace ws;
    ws.addArtifactText("design.cdfg", cdfg::printToString(g));
    std::vector<std::vector<std::string>> expected;
    for (std::uint64_t k = 0; k < 4; ++k) {
      const Steps steps = perturbedSteps(g, seed * 100 + k);
      ws.addArtifactText("s" + std::to_string(k), scheduleText(steps));
      expected.push_back(naiveLw804(g, steps));
      findings += expected.back().size();
    }
    for (const std::size_t threads : {1u, 8u}) {
      rt::setThreadCount(threads);
      check::Workspace run = ws;
      const Report report = check::checkProject(run).report;
      std::vector<std::vector<std::string>> got(expected.size());
      for (const auto& d : report.diagnostics()) {
        if (d.code == "LW804") {
          got[std::stoul(d.artifact.substr(1))].push_back(d.location + ": " +
                                                          d.message);
        }
      }
      EXPECT_EQ(got, expected) << "seed " << seed << " threads " << threads;
    }
  }
  rt::setThreadCount(0);  // restore automatic sizing for other tests
  EXPECT_GT(findings, 10u);
}

TEST(CheckProject, LW804SilentOnCyclicDesign) {
  // 1 <-> 2 is a cycle; the schedule inverts 0 -> 1 -> 2 -> 3, which an
  // acyclic design would report as LW804.
  const auto result = projectCheck(
      {{"design.cdfg",
        "cdfg v1\nnode 0 input\nnode 1 add\nnode 2 add\nnode 3 output\n"
        "edge 0 1 data\nedge 1 2 data\nedge 2 1 data\nedge 2 3 data\n"},
       {"sched.txt", "0 5\n1 6\n2 7\n3 0\n"}});
  EXPECT_TRUE(hasCode(result.report, "LW202"))  // the pair check ran
      << result.report.renderText();
  EXPECT_FALSE(hasCode(result.report, "LW804"))
      << result.report.renderText();
}

TEST(CheckProject, ScheduleBindingPairsSameColdAndWarm) {
  // Each schedule is read by its own pair check and by its binding's.
  const cdfg::Cdfg g = randomTemporalDfg(5, 40);
  check::Workspace ws;
  ws.addArtifactText("design.cdfg", cdfg::printToString(g));
  std::string binding = "registers 1\n";  // every value in register 0
  for (const NodeId v : g.allNodes()) {
    if (g.node(v).kind != cdfg::OpKind::kOutput) {
      binding += std::to_string(v.value()) + " 0\n";
    }
  }
  for (const std::string k : {"0", "1"}) {
    ws.addArtifactText("s" + k + ".sched",
                       scheduleText(perturbedSteps(g, std::stoul(k))));
    ws.addArtifactText("b" + k + ".bind", binding);
  }
  for (auto& a : ws.artifacts()) {
    if (a.path[0] == 's') {
      a.ref_design = "design.cdfg";
    } else if (a.path[0] == 'b') {
      a.ref_schedule = "s" + a.path.substr(1, 1) + ".sched";
    }
  }
  const std::string cache =
      (std::filesystem::temp_directory_path() / "locwm-sched-binding-cache")
          .string();
  std::filesystem::remove_all(cache);
  const auto run = [&](std::size_t threads, const std::string& dir) {
    rt::setThreadCount(threads);
    check::Workspace w = ws;
    check::ProjectOptions options;
    options.cache_dir = dir;
    return check::checkProject(w, options);
  };
  const check::ProjectResult cold = run(1, cache);
  const check::ProjectResult warm = run(8, cache);
  const std::string text = cold.report.renderText();
  EXPECT_EQ(text, warm.report.renderText());
  EXPECT_EQ(text, run(8, "").report.renderText());
  EXPECT_EQ(warm.stats.cache_hits, warm.stats.cache_probes);
  EXPECT_TRUE(hasCode(cold.report, "LW804")) << text;
  EXPECT_NE(text.find("b1.bind"), std::string::npos) << text;
  rt::setThreadCount(0);  // restore automatic sizing for other tests
  std::filesystem::remove_all(cache);
}

TEST(CheckProject, LW805LocalityCannotExist) {
  const char* const cert =
      "locwm-cert v1 sched\n"
      "context ring/0\n"
      "params 2 96 4\n"
      "root-rank 1\n"
      "constraint 1 0\n"
      "shape-begin\n"
      "cdfg v1\n"
      "node 0 cmul\n"  // kChainDesign has no cmul
      "node 1 add\n"
      "edge 0 1 data\n"
      "shape-end\n";
  const auto result =
      projectCheck({{"design.cdfg", kChainDesign}, {"mark.cert", cert}});
  EXPECT_TRUE(hasCode(result.report, "LW805"))
      << result.report.renderText();
}

TEST(CheckProject, LW806DuplicateCertificate) {
  const auto result = projectCheck({{"design.cdfg", kChainDesign},
                                    {"a.cert", kRingCertA},
                                    {"b.cert", kRingCertA}});
  EXPECT_EQ(countCode(result.report, "LW806"), 1u)
      << result.report.renderText();
}

TEST(CheckProject, LW807CollidingCertificateKeys) {
  std::string other = kRingCertA;
  const auto pos = other.find("root-rank 1");
  ASSERT_NE(pos, std::string::npos);
  other.replace(pos, 11, "root-rank 0");  // same context, new content
  const auto result = projectCheck({{"design.cdfg", kChainDesign},
                                    {"a.cert", kRingCertA},
                                    {"b.cert", other}});
  EXPECT_TRUE(hasCode(result.report, "LW807"))
      << result.report.renderText();
  EXPECT_FALSE(hasCode(result.report, "LW806"));
}

TEST(CheckProject, LW808OrphanedDesign) {
  check::Workspace ws;
  ws.addArtifactText("a.cdfg", kChainDesign);
  ws.addArtifactText("b.cdfg", kTinyDesign);
  ws.addArtifactText("sched.txt", "0 0\n1 1\n2 2\n3 3\n");
  auto& sched =
      ws.artifacts()[static_cast<std::size_t>(ws.indexOf("sched.txt"))];
  sched.ref_design = "a.cdfg";
  const auto result = check::checkProject(ws);
  EXPECT_EQ(countCode(result.report, "LW808"), 1u)
      << result.report.renderText();
}

TEST(CheckProject, LW809ConflictingBindings) {
  const auto result = projectCheck({{"design.cdfg", kChainDesign},
                                    {"sched.txt", "0 0\n1 1\n2 2\n3 3\n"},
                                    {"x.bind", "registers 2\n1 0\n2 1\n"},
                                    {"y.bind", "registers 2\n1 1\n2 0\n"}});
  EXPECT_TRUE(hasCode(result.report, "LW809"))
      << result.report.renderText();
}

TEST(CheckProject, CacheDeterminismColdWarmEditAcrossThreads) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "locwm-project-cache-test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const char* name, const std::string& text) {
    std::ofstream os(dir / name, std::ios::binary | std::ios::trunc);
    os << text;
  };
  write("a.cdfg", kChainDesign);
  write("b.cdfg", kTinyDesign);
  write("sched.txt", "0 0\n1 1\n2 2\n");  // ambiguous: LW803 + LW808
  write("ring.cert", kRingCertA);
  const std::string cache = (dir / ".locwm-cache").string();
  const auto run = [&](std::size_t threads, bool use_cache,
                       check::ProjectStats* stats = nullptr) {
    rt::setThreadCount(threads);
    check::Workspace ws = check::Workspace::fromDirectory(dir.string());
    check::ProjectOptions options;
    if (use_cache) {
      options.cache_dir = cache;
    }
    const check::ProjectResult result = check::checkProject(ws, options);
    if (stats != nullptr) {
      *stats = result.stats;
    }
    return result.report.renderText();
  };
  const std::string cold = run(1, true);
  check::ProjectStats warm_stats;
  const std::string warm2 = run(2, true, &warm_stats);
  const std::string warm8 = run(8, true);
  EXPECT_EQ(cold, warm2);
  EXPECT_EQ(cold, warm8);
  EXPECT_EQ(cold, run(4, false)) << "cache must not change the report";
  EXPECT_EQ(warm_stats.cache_hits, warm_stats.cache_probes);
  EXPECT_GT(warm_stats.cache_probes, 0u);
  // Editing one artifact invalidates exactly its entries; the warm
  // post-edit report must match a fresh uncached run byte for byte.
  write("sched.txt", "9 0\n");  // now dangling: LW802
  const std::string edited_warm = run(8, true);
  const std::string edited_fresh = run(1, false);
  EXPECT_EQ(edited_warm, edited_fresh);
  EXPECT_NE(cold, edited_warm);
  rt::setThreadCount(0);  // restore automatic sizing for other tests
  fs::remove_all(dir);
}

TEST(CheckProject, DamagedCacheEntriesAreMisses) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "locwm-project-cache-damage";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto write = [&](const fs::path& path, const std::string& text) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
  };
  const auto read = [](const fs::path& path) {
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
  };
  write(dir / "a.cdfg", kChainDesign);
  write(dir / "d.cdfg", std::string(kDiamondDesign) +
                            "edge 1 2 temporal\nedge 1 2 temporal\n");
  write(dir / "s.txt", "0 0\n1 5\n2 6\n3 7\n");  // LW204 against a.cdfg
  write(dir / "ws.manifest",
        "locwm-workspace v1\nartifact a.cdfg\nartifact d.cdfg\n"
        "artifact s.txt design=a.cdfg\n");
  const fs::path cache = dir / ".locwm-cache";
  const auto run = [&](bool use_cache, check::ProjectStats* stats = nullptr) {
    check::Workspace ws =
        check::Workspace::fromManifestFile((dir / "ws.manifest").string());
    check::ProjectOptions options;
    if (use_cache) {
      options.cache_dir = cache.string();
    }
    const check::ProjectResult result = check::checkProject(ws, options);
    if (stats != nullptr) {
      *stats = result.stats;
    }
    return result.report.renderText() + result.report.renderJson() +
           result.report.renderSarif();
  };
  const std::string fresh = run(false);
  ASSERT_EQ(run(true), fresh);

  // Truncate one entry and alter one byte of a diagnostic message in
  // another: both probes miss, and the warm report is the uncached one.
  const std::string needle = "\"message\": \"";
  fs::path truncated;
  fs::path edited;
  for (const fs::directory_entry& e : fs::directory_iterator(cache)) {
    std::string text = read(e.path());
    const std::size_t at = text.find(needle);
    if (edited.empty() && at != std::string::npos &&
        text[at + needle.size()] != '"') {
      char& byte = text[at + needle.size()];
      byte = byte == 'X' ? 'Y' : 'X';
      write(e.path(), text);
      edited = e.path();
    } else if (truncated.empty()) {
      write(e.path(), text.substr(0, text.size() / 2));
      truncated = e.path();
    }
  }
  ASSERT_FALSE(edited.empty()) << "no cached entry carries a message";
  ASSERT_FALSE(truncated.empty());
  check::ProjectStats stats;
  EXPECT_EQ(run(true, &stats), fresh);
  EXPECT_EQ(stats.cache_probes - stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_stores, 2u);
  // The misses rewrote both entries: the next run is fully warm.
  EXPECT_EQ(run(true, &stats), fresh);
  EXPECT_EQ(stats.cache_hits, stats.cache_probes);
  fs::remove_all(dir);
}

TEST(CheckProject, RuleSetVersionTracksCatalogue) {
  const std::string v = check::ruleSetVersion();
  EXPECT_NE(v.find(std::to_string(check::allRules().size())),
            std::string::npos)
      << v;
}

// ---------------------------------------------------------------------------
// Rule registry: the catalogue is the documented, stable API surface.

TEST(CheckRegistry, CataloguesEveryCodeOnceInOrder) {
  const auto& rules = check::allRules();
  const std::vector<std::string_view> expected = {
      "LW001", "LW002", "LW003", "LW101", "LW102", "LW103", "LW104",
      "LW105", "LW106", "LW201", "LW202", "LW203", "LW204", "LW205",
      "LW301", "LW302", "LW303", "LW304", "LW401", "LW402", "LW403",
      "LW501", "LW502", "LW503", "LW504", "LW505", "LW601", "LW602",
      "LW603", "LW604", "LW605", "LW606", "LW701", "LW702", "LW703",
      "LW704", "LW705", "LW706", "LW707", "LW801", "LW802", "LW803",
      "LW804", "LW805", "LW806", "LW807", "LW808", "LW809"};
  ASSERT_EQ(rules.size(), expected.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].code, expected[i]);
    EXPECT_FALSE(rules[i].summary.empty()) << rules[i].code;
    EXPECT_FALSE(rules[i].artifact.empty()) << rules[i].code;
  }
}

// ---------------------------------------------------------------------------
// Post-pass audit hooks: the passes report their products; installing a
// hook observes every embed/detect call site.

TEST(CheckPassAudit, EmbedReportsGraphAndCertificate) {
  int graphs = 0;
  int certs = 0;
  wm::PassAuditHooks hooks;
  hooks.graph = [&](const char*, const cdfg::Cdfg&) { ++graphs; };
  hooks.sched_cert = [&](const char* pass, const wm::WatermarkCertificate&) {
    ++certs;
    EXPECT_STREQ(pass, "sched-wm/embed");
  };
  wm::setPassAuditHooks(std::move(hooks));

  cdfg::Cdfg g = workloads::hyperSuite()[0].graph;
  wm::SchedulingWatermarker marker({"alice", "audit-test"});
  wm::SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline =
      sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
  const auto result = marker.embed(g, params);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(graphs, 1);
  EXPECT_EQ(certs, 1);

  wm::clearPassAuditHooks();
  (void)marker.embed(g, params, 1);
  EXPECT_EQ(graphs, 1) << "cleared hooks must not fire";
}

TEST(CheckPassAudit, InstallFromEnvRespectsTheSwitch) {
  ::unsetenv("LOCWM_CHECK_PASSES");
  EXPECT_FALSE(check::installPassAuditFromEnv());
  ::setenv("LOCWM_CHECK_PASSES", "0", 1);
  EXPECT_FALSE(check::installPassAuditFromEnv());
  ::setenv("LOCWM_CHECK_PASSES", "1", 1);
  EXPECT_TRUE(check::installPassAuditFromEnv());
  ::unsetenv("LOCWM_CHECK_PASSES");
  wm::clearPassAuditHooks();
}

TEST(CheckPassAudit, InstalledAuditorAcceptsCleanCertificate) {
  // The real auditor (the one LOCWM_CHECK_PASSES installs) must not throw
  // on products of an actual embedding run.
  check::installPassAudit();
  cdfg::Cdfg g = workloads::hyperSuite()[0].graph;
  wm::SchedulingWatermarker marker({"alice", "audit-clean"});
  wm::SchedWmParams params;
  params.locality.min_size = 4;
  params.min_eligible = 2;
  params.deadline =
      sched::TimeFrames(g, params.latency).criticalPathSteps() + 3;
  EXPECT_NO_THROW((void)marker.embed(g, params));
  wm::clearPassAuditHooks();
}

}  // namespace
