// Lint reports: the bulk JSON escaper, the chunked parallel renderer and
// the workspace merge against the serial oracles of report_oracles.h at
// several thread counts; the one-parse-per-artifact workspace pipeline
// (cdfg.parse calls); and LW810, the closure bound said out loud.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/prng.h"
#include "check/dataflow.h"
#include "check/diagnostics.h"
#include "check/project.h"
#include "check/workspace.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "report_oracles.h"
#include "rt/rt.h"

namespace {

using namespace locwm;
using check::Diagnostic;
using check::Report;
using check::ReportFormat;
using check::Severity;

/// A random byte string of up to `max_len` bytes, half of them bytes JSON
/// escapes or passes through specially: quotes, backslashes, the C0
/// controls (NUL included), DEL and bytes above 0x7f.
std::string randomBytes(cdfg::SplitMix64& rng, std::size_t max_len) {
  static constexpr std::string_view kPlain = "abc LW-0123:./'[]()";
  std::string s(rng.below(max_len + 1), '\0');
  for (char& c : s) {
    if (rng.below(2) == 0) {
      c = kPlain[rng.below(kPlain.size())];
      continue;
    }
    switch (rng.below(4)) {
      case 0:
        c = rng.below(2) == 0 ? '"' : '\\';
        break;
      case 1:
        c = static_cast<char>(rng.below(0x20));
        break;
      case 2:
        c = '\x7f';
        break;
      default:
        c = static_cast<char>(0x80 + rng.below(0x80));
    }
  }
  return s;
}

TEST(JsonEscape, BulkRunsMatchPerByteOracle) {
  cdfg::SplitMix64 rng(20261019);
  for (int trial = 0; trial < 4000; ++trial) {
    const std::string text = randomBytes(rng, 48);
    EXPECT_EQ(obs::jsonString(text), oracle::jsonString(text))
        << "trial " << trial;
    std::string bulk = "prefix\"";
    std::string naive = bulk;
    obs::appendJsonEscaped(bulk, text);
    oracle::appendJsonEscaped(naive, text);
    EXPECT_EQ(bulk, naive) << "trial " << trial;
  }
  // Every single byte, alone and between plain runs.
  for (int b = 0; b < 256; ++b) {
    const std::string text = "ab" + std::string(1, static_cast<char>(b)) + "cd";
    EXPECT_EQ(obs::jsonString(text), oracle::jsonString(text)) << "byte " << b;
  }
}

/// A report `size` findings long, every field drawn from randomBytes, with
/// catalogued and uncatalogued codes, empty and non-empty locations and
/// hints, and all three severities.
Report randomReport(std::uint64_t seed, std::size_t size) {
  static constexpr std::string_view kCodes[] = {"LW001", "LW103", "LW804",
                                                "LW606", "LW999"};
  cdfg::SplitMix64 rng(seed);
  std::vector<Diagnostic> diags;
  for (std::size_t i = 0; i < size; ++i) {
    Diagnostic d;
    d.code = std::string(kCodes[rng.below(std::size(kCodes))]);
    d.severity = static_cast<Severity>(rng.below(3));
    d.artifact = "a" + std::to_string(i) + randomBytes(rng, 6);
    d.location = rng.below(3) == 0 ? std::string() : randomBytes(rng, 12);
    d.message = randomBytes(rng, 40);
    d.hint = rng.below(3) == 0 ? std::string() : randomBytes(rng, 24);
    diags.push_back(std::move(d));
  }
  return Report::fromUnique(std::move(diags));
}

TEST(CheckRender, PiecesMatchSerialRendererAtAnyThreadCount) {
  for (const std::size_t size :
       {std::size_t{0}, std::size_t{1}, check::kRenderGrain,
        3 * check::kRenderGrain + 17}) {
    const Report r = randomReport(size + 7, size);
    const std::vector<Diagnostic>& diags = r.diagnostics();
    const std::size_t pieces =
        2 + (size + check::kRenderGrain - 1) / check::kRenderGrain;
    std::vector<std::string> first_json;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      EXPECT_EQ(r.renderJson(), oracle::renderJson(diags))
          << "size " << size << ", threads " << threads;
      EXPECT_EQ(r.renderText(), oracle::renderText(diags))
          << "size " << size << ", threads " << threads;
      EXPECT_EQ(r.renderSarif(), oracle::renderSarif(diags))
          << "size " << size << ", threads " << threads;
      // Slice boundaries depend on the report alone.
      const std::vector<std::string> json = r.renderPieces(ReportFormat::kJson);
      EXPECT_EQ(json.size(), pieces);
      if (first_json.empty()) {
        first_json = json;
      }
      EXPECT_EQ(json, first_json) << "threads " << threads;
    }
  }
  rt::setThreadCount(0);
}

TEST(CheckRender, FromUniqueReportDeduplicatesLaterAdds) {
  // A report built without hashing still keeps first occurrences when a
  // finding is added to it later.
  Report r = Report::fromUnique(
      {{"LW001", Severity::kError, "a", "", "first", ""},
       {"LW002", Severity::kError, "a", "x", "second", ""}});
  r.add({"LW001", Severity::kError, "a", "", "duplicate", ""});
  r.add({"LW001", Severity::kError, "b", "", "new", ""});
  ASSERT_EQ(r.diagnostics().size(), 3u);
  EXPECT_EQ(r.diagnostics()[0].message, "first");
  EXPECT_EQ(r.diagnostics()[2].message, "new");
}

// ---------------------------------------------------------------------------
// The workspace merge: first occurrence of each (code, artifact, location)
// key, in report order, exactly as serial Report::add.

/// A workspace whose load report names artifacts: its manifest carries the
/// name of one of them and lists two files that do not exist (LW001 each)
/// and a bad directive (LW801 naming the manifest, i.e. the artifact).
check::Workspace collidingWorkspace() {
  const std::string missing =
      (std::filesystem::temp_directory_path() / "locwm-no-such-dir").string();
  check::Workspace ws = check::Workspace::fromManifestText(
      "locwm-workspace v1\nartifact gone.cdfg\nartifact lost.sched\n"
      "widget\n",
      "b.cdfg", missing);
  ws.addArtifactText("b.cdfg", "cdfg v1\n");
  ws.addArtifactText("c.sched", "0 0\n");
  ws.addArtifactText("d.cert", "locwm-cert v1 sched\n");
  return ws;
}

TEST(MergeFindings, MatchesSerialAddAtAnyThreadCount) {
  const check::Workspace ws = collidingWorkspace();
  const std::vector<check::WorkspaceArtifact>& arts = ws.artifacts();
  ASSERT_EQ(arts.size(), 5u);
  ASSERT_GE(ws.loadReport().diagnostics().size(), 3u);
  // Few codes and locations, so keys collide within a list, across the
  // self/resolution/pair lists, with the load report and with the ring.
  static constexpr std::string_view kCodes[] = {"LW001", "LW801", "LW805"};
  static constexpr std::string_view kLocations[] = {"", "line 4", "node 1"};
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    cdfg::SplitMix64 rng(seed);
    std::size_t serial = 0;
    const auto finding = [&](const std::string& artifact) {
      return Diagnostic{std::string(kCodes[rng.below(3)]), Severity::kError,
                        artifact, std::string(kLocations[rng.below(3)]),
                        "m" + std::to_string(serial++), ""};
    };
    std::vector<check::ArtifactFindings> found(arts.size());
    for (std::size_t i = 0; i < arts.size(); ++i) {
      for (std::vector<Diagnostic>* list :
           {&found[i].self, &found[i].resolution, &found[i].pair}) {
        const std::size_t count = rng.below(6);
        for (std::size_t k = 0; k < count; ++k) {
          list->push_back(finding(arts[i].path));
        }
      }
    }
    std::vector<Diagnostic> ring;
    for (std::size_t k = rng.below(8); k > 0; --k) {
      ring.push_back(finding(arts[rng.below(arts.size())].path));
    }
    const Report expected = oracle::mergeFindings(ws, found, ring);
    ASSERT_LT(expected.diagnostics().size(),
              ws.loadReport().diagnostics().size() + serial)
        << "seed " << seed << " has no collision";
    for (const std::size_t threads : {1u, 2u, 8u}) {
      rt::setThreadCount(threads);
      const Report merged = check::mergeFindings(ws, found, ring);
      EXPECT_EQ(merged.renderJson(), expected.renderJson())
          << "seed " << seed << ", threads " << threads;
    }
  }
  rt::setThreadCount(0);
}

TEST(MergeFindings, ResolutionFindingCollidingWithLoadReportIsDropped) {
  // The load report's LW801 names the manifest, which here has the name
  // of a schedule; the schedule's own LW801s (two references a schedule
  // cannot take) share its key, so only the load finding stays.
  std::string report;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    check::Workspace ws =
        check::Workspace::fromManifestText("", "s.sched", ".");
    ws.addArtifactText("d.cdfg",
                       "cdfg v1\nnode 0 input\nnode 1 add\nnode 2 output\n"
                       "edge 0 1 data\nedge 1 2 data\n");
    ws.addArtifactText("s.sched", "0 0\n1 1\n2 2\n");
    check::WorkspaceArtifact& s =
        ws.artifacts()[static_cast<std::size_t>(ws.indexOf("s.sched"))];
    s.ref_schedule = "d.cdfg";
    s.ref_library = "d.cdfg";
    const Report r = check::checkProject(ws).report;
    std::size_t lw801 = 0;
    for (const Diagnostic& d : r.diagnostics()) {
      if (d.code == "LW801") {
        ++lw801;
        EXPECT_EQ(d.artifact, "s.sched");
        EXPECT_NE(d.message.find("manifest must start"), std::string::npos)
            << d.message;
      }
    }
    EXPECT_EQ(lw801, 1u) << r.renderText();
    if (report.empty()) {
      report = r.renderJson();
    }
    EXPECT_EQ(r.renderJson(), report) << "threads " << threads;
  }
  rt::setThreadCount(0);
}

/// input -> `adds` adds -> output, in a data chain.
std::string chainDesign(std::size_t adds) {
  std::string text = "cdfg v1\nnode 0 input\n";
  for (std::size_t i = 1; i <= adds + 1; ++i) {
    text += "node " + std::to_string(i) + (i <= adds ? " add\n" : " output\n");
    text += "edge " + std::to_string(i - 1) + " " + std::to_string(i) +
            " data\n";
  }
  return text;
}

// ---------------------------------------------------------------------------
// One parse per artifact: the pair stage reads what the self stage parsed.

#if LOCWM_OBS_ENABLED

/// Node i of chainDesign(adds) at step i + shift.
std::string chainSchedule(std::size_t adds, std::size_t shift) {
  std::string text;
  for (std::size_t i = 0; i <= adds + 1; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + shift) + "\n";
  }
  return text;
}

/// `cdfg.parse` calls recorded since the last reset.
std::uint64_t designParses() {
  for (const obs::PassStat& s : obs::PassTimer::instance().report()) {
    if (s.name == "cdfg.parse") {
      return s.calls;
    }
  }
  return 0;
}

/// Three designs, a schedule of each and a sched certificate of the
/// first, every reference explicit.
check::Workspace parseCountWorkspace(std::size_t edited_shift) {
  check::Workspace ws;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string d = "d" + std::to_string(k);
    ws.addArtifactText(d + ".cdfg", chainDesign(2 + k));
    ws.addArtifactText(d + ".sched",
                       chainSchedule(2 + k, k == 1 ? edited_shift : 0));
  }
  ws.addArtifactText("d0.cert",
                     "locwm-cert v1 sched\ncontext ring/0\nparams 2 96 2\n"
                     "root-rank 1\nconstraint 1 0\nshape-begin\ncdfg v1\n"
                     "node 0 add\nnode 1 add\nedge 0 1 data\nshape-end\n");
  for (check::WorkspaceArtifact& a : ws.artifacts()) {
    if (!a.path.ends_with(".cdfg")) {
      a.ref_design = a.path.substr(0, 2) + ".cdfg";
    }
  }
  return ws;
}

TEST(ProjectParse, EachDesignAndCertificateParsedOncePerRun) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() / "locwm-parse-count-cache";
  fs::remove_all(cache);
  obs::setEnabled(true);
  const auto parses = [&](std::size_t edited_shift, bool use_cache) {
    obs::PassTimer::instance().clear();
    check::Workspace ws = parseCountWorkspace(edited_shift);
    check::ProjectOptions options;
    if (use_cache) {
      options.cache_dir = cache.string();
    }
    const check::ProjectResult result = check::checkProject(ws, options);
    EXPECT_FALSE(result.report.hasErrors()) << result.report.renderText();
    return designParses();
  };
  // Three designs and one certificate shape: four cdfg.parse calls.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    rt::setThreadCount(threads);
    EXPECT_EQ(parses(0, false), 4u) << "--no-cache, threads " << threads;
  }
  EXPECT_EQ(parses(0, true), 4u) << "cold";
  EXPECT_EQ(parses(0, true), 0u) << "warm";
  // Editing d1's schedule re-runs its pair check only: one design parse.
  EXPECT_EQ(parses(1, true), 1u) << "warm after a schedule edit";
  EXPECT_EQ(parses(1, true), 0u) << "warm again";
  rt::setThreadCount(0);
  obs::PassTimer::instance().clear();
  obs::setEnabled(false);
  fs::remove_all(cache);
}

#endif  // LOCWM_OBS_ENABLED

// ---------------------------------------------------------------------------
// LW810: LW804's node bound, check::kClosureNodeLimit, is reported, not
// silent.

TEST(CheckProject, LW810ReportsDesignAboveClosureBound) {
  // A chain of `nodes` nodes, node i at step i, except that node n-3
  // starts after the last node and node n-2 is unscheduled: only the
  // closure sees that node n-3 must precede node n-1 (one LW804), when
  // LW804 runs at all.
  const auto findings = [](std::size_t nodes) {
    std::string sched;
    for (std::size_t i = 0; i + 3 < nodes; ++i) {
      sched += std::to_string(i) + " " + std::to_string(i) + "\n";
    }
    sched += std::to_string(nodes - 3) + " " + std::to_string(nodes + 5) +
             "\n" + std::to_string(nodes - 1) + " " +
             std::to_string(nodes - 1) + "\n";
    check::Workspace ws;
    ws.addArtifactText("big.cdfg", chainDesign(nodes - 2));
    ws.addArtifactText("big.sched", sched);
    const Report r = check::checkProject(ws).report;
    std::vector<Diagnostic> found;
    for (const Diagnostic& d : r.diagnostics()) {
      if (d.code == "LW804" || d.code == "LW810") {
        found.push_back(d);
      }
    }
    return found;
  };
  constexpr std::size_t kLimit = check::kClosureNodeLimit;
  static_assert(kLimit == 8192);
  for (const std::size_t nodes : {std::size_t{100}, kLimit}) {
    const std::vector<Diagnostic> ran = findings(nodes);
    ASSERT_EQ(ran.size(), 1u) << nodes << " nodes";
    EXPECT_EQ(ran[0].code, "LW804") << nodes << " nodes";
    EXPECT_EQ(ran[0].location, "node " + std::to_string(nodes - 1));
  }
  for (const std::size_t nodes : {kLimit + 1, std::size_t{20002}}) {
    const std::vector<Diagnostic> skipped = findings(nodes);
    ASSERT_EQ(skipped.size(), 1u) << nodes << " nodes";
    EXPECT_EQ(skipped[0].code, "LW810");
    EXPECT_EQ(skipped[0].severity, Severity::kInfo);
    EXPECT_EQ(skipped[0].artifact, "big.sched");
    EXPECT_NE(skipped[0].message.find(std::to_string(nodes) + " nodes"),
              std::string::npos)
        << skipped[0].message;
    EXPECT_NE(skipped[0].message.find("bound of 8192"), std::string::npos)
        << skipped[0].message;
  }
}

}  // namespace
