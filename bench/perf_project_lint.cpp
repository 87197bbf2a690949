// PERF-PROJECT — uncached, cold and warm workspace analysis (`locwm lint
// --project`) over a generated 500-artifact workspace: 250 random DFG
// designs plus one list schedule each (the shared scan::corpus fixture,
// also used by test_scan and disc_corpus_scan), pinned to their design
// by an explicit manifest.  The cold runs fill the persistent analysis
// cache; the warm runs must serve 100% of their probes from it, and the
// report must be byte-identical uncached, cold and warm.  Each time is
// the best of three runs.  `speedup` is uncached over warm: the analysis
// the cache saves, both sides CPU-bound.  The cold runs also write one
// file per cache entry, so `cold_ms` swings with the disk (0.1-0.5 ms per
// small file on one host) and is reported, not compared.  Not a paper
// table; documents the screen-then-verify shape the corpus scanner
// builds on.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "check/project.h"
#include "check/workspace.h"
#include "rt/rt.h"
#include "scan/corpus.h"

namespace {

using namespace locwm;
namespace fs = std::filesystem;

double millisSince(std::chrono::steady_clock::time_point start) {
  const auto d = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Parses `--artifacts N` (design/schedule files in total; default 500).
std::size_t artifactsArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--artifacts") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return 500;
}

void writeFile(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << text;
}

}  // namespace

int main(int argc, char** argv) {
  bench::applyThreadsFlag(argc, argv);
  const std::uint64_t seed = bench::seedArg(argc, argv, /*fallback=*/7);
  const std::size_t artifacts = artifactsArg(argc, argv);
  const std::size_t pairs = std::max<std::size_t>(1, artifacts / 2);
  bench::JsonReport json("perf_project_lint", argc, argv);
  bench::banner("PERF-PROJECT: cold vs warm workspace analysis",
                "workspace analyzer (docs/STATIC_ANALYSIS.md, \"Workspace "
                "analysis\")");

  // Generate the workspace from the shared random-corpus fixture
  // (scan/corpus.h, the same generator test_scan and disc_corpus_scan
  // use): pairs of design + list schedule, an explicit manifest pinning
  // every reference.
  const fs::path dir = fs::temp_directory_path() / "locwm_perf_project";
  if (std::getenv("LOCWM_BENCH_KEEP") == nullptr) fs::remove_all(dir);
  scan::CorpusSpec spec;
  spec.designs = pairs;
  spec.ops_min = 96;
  spec.ops_max = 192;
  const scan::BuiltCorpus corpus = scan::buildRandomCorpus(spec, seed);
  scan::writeCorpus(corpus, dir.string());
  std::string manifest = "locwm-workspace v1\n";
  for (const scan::CorpusItem& item : corpus.items) {
    manifest += "artifact " + item.path + "\n";
    manifest +=
        "artifact " + item.schedule_path + " design=" + item.path + "\n";
  }
  const fs::path manifest_path = dir / "ws.manifest";
  writeFile(manifest_path, manifest);

  const std::string cache = (dir / ".locwm-cache").string();
  std::size_t findings = 0;
  // One analysis of the workspace through `cache_dir` ("" = no cache).
  const auto run = [&](const std::string& cache_dir,
                       check::ProjectStats* stats) {
    check::Workspace ws =
        check::Workspace::fromManifestFile(manifest_path.string());
    check::ProjectOptions options;
    options.cache_dir = cache_dir;
    const check::ProjectResult result = check::checkProject(ws, options);
    *stats = result.stats;
    findings = result.report.diagnostics().size();
    return result.report.renderText();
  };
  // Each time is the best of three runs.  A cold run starts from an empty
  // cache and fills it, so the last one leaves the cache the warm runs
  // read.
  enum class Mode { kNoCache, kCold, kWarm };
  const auto best = [&](Mode mode, check::ProjectStats* stats) {
    double best_ms = -1.0;
    std::string report;
    for (int trial = 0; trial < 3; ++trial) {
      if (mode == Mode::kCold) {
        fs::remove_all(cache);
      }
      const auto start = std::chrono::steady_clock::now();
      report = run(mode == Mode::kNoCache ? std::string() : cache, stats);
      const double ms = millisSince(start);
      if (best_ms < 0 || ms < best_ms) {
        best_ms = ms;
      }
    }
    return std::make_pair(best_ms, report);
  };
  check::ProjectStats stats;
  const auto [nocache_ms, nocache_report] = best(Mode::kNoCache, &stats);
  const auto [cold_ms, cold_report] = best(Mode::kCold, &stats);
  const auto [warm_ms, warm_report] = best(Mode::kWarm, &stats);

  const bool identical =
      cold_report == warm_report && nocache_report == warm_report;
  const double hit_pct = stats.hitRatePct();
  const double speedup = warm_ms > 0 ? nocache_ms / warm_ms : -1.0;

  std::printf("%10s %10s %10s %9s %9s %8s %10s %6s\n", "artifacts",
              "findings", "nocache_ms", "cold_ms", "warm_ms", "speedup",
              "hit_pct", "ok");
  bench::rule(79);
  std::printf("%10zu %10zu %10.2f %9.2f %9.2f %7.1fx %9.1f%% %6s\n",
              2 * pairs, findings, nocache_ms, cold_ms, warm_ms, speedup,
              hit_pct, identical ? "yes" : "NO");

  json.row({{"seed", seed},
            {"artifacts", static_cast<std::uint64_t>(2 * pairs)},
            {"findings", static_cast<std::uint64_t>(findings)},
            {"nocache_ms", nocache_ms},
            {"cold_ms", cold_ms},
            {"warm_ms", warm_ms},
            {"speedup", speedup},
            {"cache_hit_pct", hit_pct},
            {"identical", identical}});

  if (std::getenv("LOCWM_BENCH_KEEP") == nullptr) fs::remove_all(dir);
  if (!identical) {
    std::fprintf(stderr, "FAIL: no-cache, cold and warm reports differ\n");
    return 1;
  }
  if (stats.cache_hits != stats.cache_probes) {
    std::fprintf(stderr, "FAIL: warm run missed the cache (%zu/%zu)\n",
                 stats.cache_hits, stats.cache_probes);
    return 1;
  }
  return 0;
}
