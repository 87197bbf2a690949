#include "scan/scan.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "cdfg/text.h"
#include "core/pc.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "scan/fingerprint.h"
#include "sched/schedule_io.h"
#include "store/store.h"

namespace locwm::scan {

namespace {

/// Bumping this invalidates every cached fingerprint entry.  v4: a design
/// with a number word that is not a whole number no longer parses.
constexpr const char* kCacheFormat = "locwm-scanfp-entry v4";

/// The fingerprint-cache entry wraps the DesignIndex with the design's
/// lenient-parse issue count, so a warm re-scan reports the same `issues`
/// field without re-parsing.
struct CachedIndex {
  std::size_t issues = 0;
  DesignIndex index;
};

std::string cachedIndexToString(const CachedIndex& cached) {
  return "issues " + std::to_string(cached.issues) + "\n" +
         indexToString(cached.index);
}

std::optional<CachedIndex> parseCachedIndex(std::string_view body,
                                            std::uint32_t radius) {
  const std::size_t eol = body.find('\n');
  if (eol == std::string_view::npos) {
    return std::nullopt;
  }
  text::Fields il(body.substr(0, eol));
  std::string_view word;
  CachedIndex cached;
  std::string_view trailing;
  if (!(il >> word >> cached.issues) || word != "issues" || (il >> trailing)) {
    return std::nullopt;
  }
  std::optional<DesignIndex> index = parseIndex(body.substr(eol + 1));
  if (!index.has_value() || index->radius != radius) {
    return std::nullopt;
  }
  cached.index = std::move(*index);
  return cached;
}

const char* cacheStateName(int state) {
  switch (state) {
    case 1:
      return "cold";
    case 2:
      return "warm";
    default:
      return "off";
  }
}

/// Per-item result slot, folded back serially in item order.
struct Slot {
  std::vector<std::string> rows;
  std::size_t pairs = 0;
  std::size_t pruned = 0;
  std::size_t survivors = 0;
  std::size_t candidates = 0;
  std::size_t matches = 0;
  std::size_t contexts = 0;
  bool parse_failure = false;
  int cache_state = 0;  // 0 off, 1 cold, 2 warm
  bool scanned = false;
};

std::string matchRow(const CorpusItem& item, const KeyRingEntry& entry,
                     bool found, const char* level, std::int64_t root,
                     std::size_t satisfied, std::size_t total,
                     std::size_t shape_matches) {
  std::string row = "{\"cert\":" + obs::jsonString(entry.cert_path) +
                    ",\"design\":" + obs::jsonString(item.path) +
                    ",\"found\":" + (found ? "true" : "false") +
                    ",\"identity\":" + obs::jsonString(entry.signature.identity) +
                    ",\"kind\":\"" + certKindName(entry.kind) +
                    "\",\"level\":\"" + level +
                    "\",\"root\":" + std::to_string(root) +
                    ",\"satisfied\":" + std::to_string(satisfied) +
                    ",\"shape_matches\":" + std::to_string(shape_matches) +
                    ",\"total\":" + std::to_string(total) + ",\"type\":\"match\"}";
  return row;
}

void scanOne(const CorpusItem& item, std::size_t index, const KeyRing& ring,
             const wm::Identifier& identifier, const store::CacheDir& cache,
             const ScanOptions& options, Slot& s) {
  LOCWM_OBS_LATENCY("scan.design.latency_ns");
  s.scanned = true;
  const std::uint32_t radius = identifier.radius();

  // Fingerprint cache probe — keyed by everything the entry depends on.
  store::KeyFields cache_key;
  std::optional<CachedIndex> cached;
  if (cache.enabled()) {
    cache_key = {kCacheFormat, std::to_string(radius), item.path,
                 crypto::sha256Hex(item.design_text)};
    if (const auto body = cache.get("scanfp", cache_key)) {
      cached = parseCachedIndex(*body, radius);
    }
  }

  std::optional<cdfg::Cdfg> parsed;
  std::optional<wm::LocalityDeriver> deriver;
  std::vector<cdfg::ParseIssue> issues;
  std::string parse_error;
  const auto ensureLowered = [&]() -> bool {
    if (deriver.has_value()) {
      return true;
    }
    if (!parse_error.empty()) {
      return false;
    }
    try {
      parsed = cdfg::parseString(item.design_text, issues, item.path);
    } catch (const Error& e) {
      parse_error = e.what();
      return false;
    }
    deriver.emplace(*parsed);
    return true;
  };
  const auto emitErrorRow = [&]() {
    s.parse_failure = true;
    s.rows.push_back("{\"design\":" + obs::jsonString(item.path) +
                     ",\"error\":" + obs::jsonString(parse_error) +
                     ",\"index\":" + std::to_string(index) +
                     ",\"type\":\"design\"}");
  };

  std::optional<DesignIndex> fp_index;
  std::size_t issue_count = 0;
  if (options.prefilter) {
    if (cached.has_value()) {
      s.cache_state = 2;
      issue_count = cached->issues;
      fp_index = std::move(cached->index);
    } else {
      if (!ensureLowered()) {
        emitErrorRow();
        return;
      }
      fp_index = buildDesignIndex(*deriver, radius);
      issue_count = issues.size();
      if (cache.enabled()) {
        s.cache_state = 1;
        cache.put("scanfp", cache_key,
                  cachedIndexToString(CachedIndex{issue_count, *fp_index}));
      }
    }
  } else {
    if (!ensureLowered()) {
      emitErrorRow();
      return;
    }
    issue_count = issues.size();
  }

  // Screen every ring entry against the index, then replay the survivors
  // as one root-major batch, so each (root, Δ) is identified once for all
  // the certificates that kept it.  The design is parsed only when an
  // entry survives.
  std::optional<wm::Identification> id = identifier.run(
      fp_index.has_value() ? &*fp_index : nullptr,
      [&]() -> const wm::LocalityDeriver* {
        return ensureLowered() ? &*deriver : nullptr;
      });
  if (!id.has_value()) {
    emitErrorRow();
    return;
  }
  s.pairs = ring.size();
  s.pruned = id->pruned;
  s.survivors = id->survivors;
  s.candidates = id->candidates;
  s.contexts = id->contexts;

  // The schedule, parsed at most once and only for a scheduling match.
  std::optional<sched::Schedule> schedule;
  bool schedule_tried = false;
  const auto ensureSchedule = [&]() -> const sched::Schedule* {
    if (!schedule_tried) {
      schedule_tried = true;
      if (!item.schedule_text.empty() && parsed.has_value()) {
        try {
          std::vector<sched::ScheduleParseIssue> sched_issues;
          schedule = sched::parseScheduleString(item.schedule_text,
                                                parsed->nodeCount(),
                                                sched_issues,
                                                item.schedule_path);
        } catch (const Error&) {
          schedule.reset();  // fall back to shape-level evidence
        }
      }
    }
    return schedule.has_value() ? &*schedule : nullptr;
  };

  // Evidence, in ring order: schedule-level for a scheduling certificate
  // when the design has a schedule, shape-level otherwise.
  std::vector<std::string> match_rows;
  // Authorship proof over the found scheduling certificates: the product
  // of their Pc values as detect reports each (the localities are disjoint,
  // so the coincidences are independent events).
  bool pc_found = false;
  double pc_log10 = 0;
  bool pc_exact = true;
  for (std::size_t j = 0; j < ring.size(); ++j) {
    std::vector<wm::ShapeHit>& hits = id->hits[j];
    if (hits.empty()) {
      continue;
    }
    ++s.matches;
    const KeyRingEntry& entry = ring.entries()[j];
    const sched::Schedule* sch =
        entry.kind == CertKind::kSched ? ensureSchedule() : nullptr;
    if (sch == nullptr) {
      const cdfg::NodeId root = hits.front().root;
      match_rows.push_back(matchRow(item, entry, true, "shape",
                                    root.isValid() ? std::int64_t{root.value()}
                                                   : std::int64_t{-1},
                                    0, 0, hits.size()));
      continue;
    }
    const wm::SchedDetectResult r =
        wm::SchedDetector(*entry.sched, std::move(hits)).check(*sch);
    match_rows.push_back(matchRow(item, entry, r.found, "schedule",
                                  r.root.value(), r.satisfied, r.total,
                                  r.shape_matches));
    if (r.found) {
      const wm::PcEstimate pc = wm::schedulingPc(*entry.sched, r.shape_matches);
      pc_found = true;
      pc_log10 += pc.log10_pc;
      pc_exact = pc_exact && pc.exact;
    }
  }

  s.rows.push_back(
      "{\"cache\":\"" + std::string(cacheStateName(s.cache_state)) +
      "\",\"candidates\":" + std::to_string(s.candidates) +
      ",\"certs\":" + std::to_string(ring.size()) +
      ",\"design\":" + obs::jsonString(item.path) +
      ",\"index\":" + std::to_string(index) +
      ",\"issues\":" + std::to_string(issue_count) +
      ",\"matches\":" + std::to_string(s.matches) + ",\"pc_exact\":" +
      (pc_found ? (pc_exact ? "true" : "false") : "null") +
      ",\"pc_log10\":" +
      (pc_found ? obs::jsonNumber(pc_log10) : "null") +
      ",\"pruned\":" + std::to_string(s.pruned) +
      ",\"survivors\":" + std::to_string(s.survivors) + ",\"type\":\"design\"}");
  for (std::string& row : match_rows) {
    s.rows.push_back(std::move(row));
  }
}

}  // namespace

ScanResult scanCorpus(const std::vector<CorpusItem>& items,
                      const KeyRing& ring, const ScanOptions& options) {
  LOCWM_OBS_SPAN("scan.corpus");
  const std::uint32_t shard_count = std::max<std::uint32_t>(1, options.shard_count);
  detail::check<Error>(options.shard_index < shard_count,
                       "scan: shard index out of range");
  // Every entry's screen, computed once for the whole corpus.
  std::vector<wm::ShapeQuery> queries;
  for (const KeyRingEntry& entry : ring.entries()) {
    queries.push_back(entry.query());
  }
  const wm::Identifier identifier(std::move(queries));
  // The cache holds pre-filter indexes, so it is off with the pre-filter.
  const store::CacheDir cache(options.prefilter ? options.cache_dir : "");

  std::vector<Slot> slots(items.size());
  rt::parallel_for(0, items.size(), /*grain=*/1, [&](std::size_t i) {
    if (i % shard_count != options.shard_index) {
      return;
    }
    scanOne(items[i], i, ring, identifier, cache, options, slots[i]);
  });

  // Serial fold in item order: byte-identical rows and stats at any
  // thread count.
  ScanResult out;
  for (Slot& s : slots) {
    if (!s.scanned) {
      continue;
    }
    ++out.stats.designs;
    out.stats.pairs += s.pairs;
    out.stats.pruned_pairs += s.pruned;
    out.stats.survivor_pairs += s.survivors;
    out.stats.candidate_roots += s.candidates;
    out.stats.match_pairs += s.matches;
    out.stats.contexts += s.contexts;
    out.stats.parse_failures += s.parse_failure ? 1 : 0;
    out.stats.cache_cold += s.cache_state == 1 ? 1 : 0;
    out.stats.cache_warm += s.cache_state == 2 ? 1 : 0;
    for (std::string& row : s.rows) {
      out.rows.push_back(std::move(row));
    }
  }
  LOCWM_OBS_COUNT("scan.designs", out.stats.designs);
  LOCWM_OBS_COUNT("scan.pairs", out.stats.pairs);
  LOCWM_OBS_COUNT("scan.prefilter.pruned", out.stats.pruned_pairs);
  LOCWM_OBS_COUNT("scan.prefilter.survivors", out.stats.survivor_pairs);
  LOCWM_OBS_COUNT("scan.prefilter.candidate_roots", out.stats.candidate_roots);
  LOCWM_OBS_COUNT("scan.matches", out.stats.match_pairs);
  LOCWM_OBS_COUNT("scan.parse_failures", out.stats.parse_failures);
  LOCWM_OBS_COUNT("scan.cache.cold", out.stats.cache_cold);
  LOCWM_OBS_COUNT("scan.cache.warm", out.stats.cache_warm);
  return out;
}

}  // namespace locwm::scan
