// Cross-artifact ("link-time") analysis of a workspace — CLI command
// `locwm lint --project`.
//
// checkProject() runs the full pipeline over a loaded Workspace:
//
//   1. digest every artifact (SHA-256 of its bytes);
//   2. per-artifact *self* analysis (sniff, the per-artifact lint of the
//      kinds that need no context, metadata extraction), sharded onto
//      rt::Pool and served from the persistent cache when the artifact's
//      digest is unchanged; a design or certificate it parses is kept for
//      step 4;
//   3. reference resolution: explicit manifest references, then
//      compatibility-based inference (LW801/LW802/LW803);
//   4. *pair* analysis of each artifact against its resolved context
//      (the per-artifact lint of schedules, covers and bindings, the
//      LW804 transitive-precedence check, the LW805 locality-existence
//      check), also sharded + cached.  It reads the designs and
//      certificates step 2 kept and parses only those step 2 served from
//      the cache, so a cold or --no-cache run parses each artifact once;
//      a parse is dropped once its last reader has run;
//   5. ring rules over the whole collection (LW806-LW809);
//   6. deterministic merge (mergeFindings): load report, then
//      per-artifact findings in path order (self, resolution, pair), then
//      ring findings, deduplicated per artifact in parallel shards and
//      spliced in index order.
//
// The per-artifact lint is check/linter.h's, the one `locwm lint` runs,
// so both modes report the same findings on an artifact in the same
// context.  What this layer adds is the workspace: digests, metadata, the
// cache, reference resolution, LW804, LW805 and the LW806-LW809 ring
// rules, and one schedule parse per schedule that its bindings share.
//
// The report is byte-identical at any thread count and across cold/warm
// cache runs — parallel stages write into per-artifact slots that are
// merged in index order, and cache entries replay the exact diagnostics
// the live analysis would emit (paths participate in every cache key, so
// replayed artifact names are always current).
//
// Cache layout (docs/STATIC_ANALYSIS.md has the full story): entries live
// in a store::CacheDir (src/store/store.h) under the namespaces `self` and
// `pair`, keyed by the entry format, the rule-set version, the artifact
// path + content digest, and (for pair entries) every context artifact's
// path + digest; each body is one JSON document.  Any key mismatch —
// edited file, renamed file, new rule-set — simply misses, and the store's
// integrity header turns a damaged entry into a miss too; stale entries
// are never wrong, only dead weight.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/diagnostics.h"
#include "check/workspace.h"
#include "tm/template.h"

namespace locwm::check {

/// Options of the workspace analyzer.
struct ProjectOptions {
  /// Directory for persistent analysis-cache entries (created on demand).
  /// Empty disables caching.
  std::string cache_dir;
  /// Library covers are checked against when the workspace has none.
  tm::TemplateLibrary library = tm::TemplateLibrary::basicDsp();
};

/// Cache effectiveness counters of one run.
struct ProjectStats {
  std::size_t artifacts = 0;     ///< artifacts analyzed
  std::size_t cache_probes = 0;  ///< cache lookups attempted
  std::size_t cache_hits = 0;    ///< lookups served from the cache
  std::size_t cache_stores = 0;  ///< entries (re)written this run

  /// Hit percentage over the probes (100 on a fully warm run; 0 when the
  /// cache is disabled and nothing was probed).
  [[nodiscard]] double hitRatePct() const noexcept {
    return cache_probes == 0
               ? 0.0
               : 100.0 * static_cast<double>(cache_hits) /
                     static_cast<double>(cache_probes);
  }
};

/// Outcome of one workspace analysis.
struct ProjectResult {
  Report report;
  ProjectStats stats;
};

/// One artifact's findings from steps 2-4, in report order.
struct ArtifactFindings {
  std::vector<Diagnostic> self;
  std::vector<Diagnostic> resolution;
  std::vector<Diagnostic> pair;
};

/// Step 6: the report a Report gives when `ws.loadReport()`'s findings,
/// then each artifact's `found[i]` (self, resolution, pair) in index
/// order, then `ring`, are add()ed to it in turn — every finding kept on
/// the first occurrence of its findingKey.  Every finding of `found[i]`
/// names artifact i of `ws`, and every ring finding names an artifact of
/// `ws`: a key names its artifact, so each artifact deduplicates its own
/// findings in a parallel shard, seeded with the load findings that name
/// it, and a serial splice in index order moves them into the report
/// without hashing.
[[nodiscard]] Report mergeFindings(const Workspace& ws,
                                   std::vector<ArtifactFindings> found,
                                   std::vector<Diagnostic> ring);

/// Analyzes `ws` as described above.  Mutates the workspace in place:
/// digests, metadata, and resolved reference indices are filled in.
[[nodiscard]] ProjectResult checkProject(Workspace& ws,
                                         const ProjectOptions& options = {});

/// The rule-set version string baked into every cache key; changes
/// whenever the rule catalogue does, invalidating all prior entries.
[[nodiscard]] std::string ruleSetVersion();

}  // namespace locwm::check
