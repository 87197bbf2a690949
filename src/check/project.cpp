#include "check/project.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/error.h"
#include "cdfg/io.h"
#include "check/dataflow.h"
#include "check/differ.h"
#include "check/internal.h"
#include "check/linter.h"
#include "check/rules.h"
#include "core/certificate_io.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "regbind/binding_io.h"
#include "rt/rt.h"
#include "sched/schedule_io.h"
#include "store/store.h"
#include "tm/library_io.h"

namespace locwm::check {
namespace {

using detail::diag;

/// LW804 does not run above this many nodes: the closure is O(N^2/64)
/// words of memory and time per schedule.  A schedule of a larger design
/// gets one LW810 instead.
constexpr std::size_t kClosureNodeBound = 20000;

// ---------------------------------------------------------------------------
// Cache entries.
//
// The body of a store::CacheDir entry: one deterministic single-line JSON
// document.  Keys are written in sorted order; the loader rejects anything
// it does not understand, so a reject is always just a cache miss, never a
// wrong answer.  The store checks the entry's integrity; the key fields
// carry the entry format and the rule-set version.

/// Bumping this invalidates every cached entry.
constexpr const char* kEntryFormat = "locwm-lint-entry v2";

struct CacheEntry {
  bool has_meta = false;
  ArtifactMeta meta;
  std::vector<Diagnostic> diags;
};

std::optional<ArtifactKind> kindFromName(const std::string& name) {
  for (int k = 0; k <= static_cast<int>(ArtifactKind::kUnreadable); ++k) {
    const auto kind = static_cast<ArtifactKind>(k);
    if (artifactKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

std::optional<Severity> severityFromName(const std::string& name) {
  if (name == "info") {
    return Severity::kInfo;
  }
  if (name == "warning") {
    return Severity::kWarning;
  }
  if (name == "error") {
    return Severity::kError;
  }
  return std::nullopt;
}

void appendKey(std::string& out, const char* key, bool first = false) {
  if (!first) {
    out += ", ";
  }
  out += '"';
  out += key;
  out += "\": ";
}

std::string entryToJson(const CacheEntry& e) {
  std::string out = "{";
  appendKey(out, "diagnostics", /*first=*/true);
  out += '[';
  for (std::size_t i = 0; i < e.diags.size(); ++i) {
    const Diagnostic& d = e.diags[i];
    if (i != 0) {
      out += ", ";
    }
    out += '{';
    appendKey(out, "artifact", /*first=*/true);
    out += obs::jsonString(d.artifact);
    appendKey(out, "code");
    out += obs::jsonString(d.code);
    appendKey(out, "hint");
    out += obs::jsonString(d.hint);
    appendKey(out, "location");
    out += obs::jsonString(d.location);
    appendKey(out, "message");
    out += obs::jsonString(d.message);
    appendKey(out, "severity");
    out += obs::jsonString(severityName(d.severity));
    out += '}';
  }
  out += ']';
  if (e.has_meta) {
    const ArtifactMeta& m = e.meta;
    appendKey(out, "kind");
    out += obs::jsonString(artifactKindName(m.kind));
    appendKey(out, "meta");
    out += '{';
    appendKey(out, "cert_context", /*first=*/true);
    out += obs::jsonString(m.cert_context);
    appendKey(out, "entries");
    out += std::to_string(m.entries);
    appendKey(out, "kind");
    out += obs::jsonString(artifactKindName(m.kind));
    appendKey(out, "max_node");
    out += std::to_string(m.max_node);
    appendKey(out, "node_count");
    out += std::to_string(m.node_count);
    appendKey(out, "shape_nodes");
    out += std::to_string(m.shape_nodes);
    appendKey(out, "usable");
    out += m.usable ? "true" : "false";
    out += '}';
  }
  out += "}\n";
  return out;
}

/// Any shape violation while reading a cache entry; the caller turns it
/// into a miss.
[[noreturn]] void badEntry() { throw std::runtime_error("bad cache entry"); }

ArtifactMeta parseMeta(obs::JsonReader& sc) {
  ArtifactMeta m;
  sc.expect('{');
  if (sc.consume('}')) {
    return m;
  }
  do {
    const std::string key = sc.string();
    sc.expect(':');
    if (key == "cert_context") {
      m.cert_context = sc.string();
    } else if (key == "kind") {
      const auto kind = kindFromName(sc.string());
      if (!kind) {
        badEntry();
      }
      m.kind = *kind;
    } else if (key == "usable") {
      m.usable = sc.boolean();
    } else if (key == "entries") {
      m.entries = static_cast<std::uint32_t>(sc.number());
    } else if (key == "max_node") {
      m.max_node = static_cast<std::uint32_t>(sc.number());
    } else if (key == "node_count") {
      m.node_count = static_cast<std::uint32_t>(sc.number());
    } else if (key == "shape_nodes") {
      m.shape_nodes = static_cast<std::uint32_t>(sc.number());
    } else {
      badEntry();
    }
  } while (sc.consume(','));
  sc.expect('}');
  return m;
}

Diagnostic parseDiag(obs::JsonReader& sc) {
  Diagnostic d;
  sc.expect('{');
  if (sc.consume('}')) {
    return d;
  }
  do {
    const std::string key = sc.string();
    sc.expect(':');
    if (key == "artifact") {
      d.artifact = sc.string();
    } else if (key == "code") {
      d.code = sc.string();
    } else if (key == "hint") {
      d.hint = sc.string();
    } else if (key == "location") {
      d.location = sc.string();
    } else if (key == "message") {
      d.message = sc.string();
    } else if (key == "severity") {
      const auto sev = severityFromName(sc.string());
      if (!sev) {
        badEntry();
      }
      d.severity = *sev;
    } else {
      badEntry();
    }
  } while (sc.consume(','));
  sc.expect('}');
  return d;
}

std::optional<CacheEntry> parseEntry(const std::string& text) {
  try {
    obs::JsonReader sc(text);
    CacheEntry e;
    sc.expect('{');
    if (!sc.consume('}')) {
      do {
        const std::string key = sc.string();
        sc.expect(':');
        if (key == "diagnostics") {
          sc.expect('[');
          if (!sc.consume(']')) {
            do {
              e.diags.push_back(parseDiag(sc));
            } while (sc.consume(','));
            sc.expect(']');
          }
        } else if (key == "kind") {
          (void)sc.string();  // redundant with meta.kind; kept for humans
        } else if (key == "meta") {
          e.meta = parseMeta(sc);
          e.has_meta = true;
        } else {
          badEntry();
        }
      } while (sc.consume(','));
      sc.expect('}');
    }
    return e;
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// Counts the entries a schedule's or binding's syntax walk yields and
/// the highest node they name.
template <typename Reader, typename Entry>
void countEntries(Reader reader, Entry e, ArtifactMeta& m) {
  while (reader.next(e)) {
    ++m.entries;
    m.max_node = std::max(m.max_node, e.node);
  }
  m.usable = true;
}

/// Live-node operation-kind histogram; the LW805 existence screen.
std::array<std::uint32_t, cdfg::kOpKindCount> opHistogram(
    const cdfg::Cdfg& g) {
  std::array<std::uint32_t, cdfg::kOpKindCount> h{};
  for (std::size_t i = 0; i < g.nodeCount(); ++i) {
    const cdfg::NodeId n{static_cast<std::uint32_t>(i)};
    if (g.nodeAlive(n)) {
      ++h[static_cast<std::size_t>(g.node(n).kind)];
    }
  }
  return h;
}

/// What the self stage parsed that a pair check reads again: a design, or
/// a certificate.  Kept until the artifact's last pair-stage reader ran.
struct Parsed {
  std::optional<cdfg::Cdfg> design;
  std::variant<std::monostate, wm::WatermarkCertificate, wm::TmCertificate,
               wm::RegCertificate>
      cert;
};

/// The certificate the self stage kept, read here when it was a cache hit.
template <typename Cert>
const Cert& certOf(Parsed& parsed, const WorkspaceArtifact& a) {
  if (!std::holds_alternative<Cert>(parsed.cert)) {
    parsed.cert = readCertificate<Cert>(a.text, a.path);
  }
  return std::get<Cert>(parsed.cert);
}

/// Per-artifact self analysis (everything that needs no second artifact).
/// Its findings and metadata must be a pure function of (text, path):
/// they are cached by content digest.  A design or certificate it read is
/// left in `parsed`.
CacheEntry selfAnalyze(const std::string& text, const std::string& path,
                       const SniffResult& sniff, Parsed& parsed) {
  CacheEntry out;
  out.has_meta = true;
  ArtifactMeta& m = out.meta;
  m.kind = sniff.kind;
  const auto certMeta = [&m](const auto& cert) {
    m.usable = true;
    m.cert_context = cert.context;
    m.shape_nodes = static_cast<std::uint32_t>(cert.shape.nodeCount());
  };
  try {
    switch (sniff.kind) {
      case ArtifactKind::kDesign:
        m.node_count = static_cast<std::uint32_t>(
            parsed.design.emplace(lintDesign(text, path, out.diags))
                .nodeCount());
        m.usable = true;
        break;
      // A schedule, cover or binding cannot be fully parsed without its
      // context artifact; its format's syntax walk yields the entry count
      // and highest node that reference resolution works from, and throws
      // the parser's own error on a malformed line.
      case ArtifactKind::kSchedule:
        countEntries(sched::ScheduleReader(text, path), sched::ScheduleEntry{},
                     m);
        break;
      case ArtifactKind::kCover: {
        tm::CoverReader reader(text);
        tm::CoverEntry e;
        while (reader.next(e)) {
          ++m.entries;
          for (const tm::MatchPair& p : e.pairs) {
            m.max_node = std::max(m.max_node, p.node.value());
          }
        }
        m.usable = true;
        break;
      }
      case ArtifactKind::kBinding:
        countEntries(regbind::BindingReader(text, path),
                     regbind::BindingEntry{}, m);
        break;
      case ArtifactKind::kLibrary:
        (void)tm::parseLibraryString(text);
        m.usable = true;
        break;
      case ArtifactKind::kCertSched:
        certMeta(parsed.cert.emplace<wm::WatermarkCertificate>(
            lintCertificate<wm::WatermarkCertificate>(text, path,
                                                      out.diags)));
        break;
      case ArtifactKind::kCertTm:
        certMeta(parsed.cert.emplace<wm::TmCertificate>(
            lintCertificate<wm::TmCertificate>(text, path, out.diags)));
        break;
      case ArtifactKind::kCertReg:
        certMeta(parsed.cert.emplace<wm::RegCertificate>(
            lintCertificate<wm::RegCertificate>(text, path, out.diags)));
        break;
      case ArtifactKind::kManifest:
        out.diags.push_back(diag(
            "LW002", Severity::kError, path, {},
            "artifact is a nested workspace manifest",
            "manifests list artifacts and are not lintable themselves; "
            "point --manifest at it instead"));
        break;
      case ArtifactKind::kUnknown:
        out.diags.push_back(unrecognizedArtifactDiag(path, sniff));
        break;
      case ArtifactKind::kUnreadable:
        break;  // LW001 already in the load report
    }
  } catch (const Error& e) {
    m.usable = false;
    out.diags.push_back(syntaxErrorDiag(path, e.what()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pair-stage checks.

/// LW804: the design's transitive precedence closure (over data, control,
/// and temporal edges) orders u before v, but the schedule starts v in an
/// earlier step.  Catches inversions routed through unassigned or
/// zero-latency intermediates that the per-edge LW202/LW203 checks cannot
/// see.  At most one finding per violating node, naming its smallest-id
/// scheduled transitive predecessor that starts later; findings are
/// ordered by that predecessor, then by node.  A cyclic design yields
/// none (LW103 territory).  Above kClosureNodeBound nodes the check does
/// not run, and says so (LW810).
void checkPrecedenceClosure(const cdfg::Cdfg& g, const sched::Schedule& s,
                            const std::string& name,
                            std::vector<Diagnostic>& out) {
  const std::size_t n = g.nodeCount();
  if (n > kClosureNodeBound) {
    out.push_back(diag(
        "LW810", Severity::kInfo, name, {},
        "precedence-closure check (LW804) not run: the design has " +
            std::to_string(n) + " nodes, above the bound of " +
            std::to_string(kClosureNodeBound),
        "the per-edge schedule rules (LW202/LW203) still ran; transitive "
        "inversions through unscheduled or zero-latency operations are "
        "unchecked"));
    return;
  }
  if (n == 0) {
    return;
  }
  const PrecedenceClosure closure =
      computePrecedenceClosure(cdfg::CsrView(g), EdgeMask::all());
  const BitRows& ancestors = closure.domain.ancestors;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> found;  // (u, v)
  for (std::uint32_t v = 0; v < n; ++v) {
    if (ancestors.test(v, v)) {
      return;  // a node that precedes itself lies on a cycle
    }
    if (!s.isSet(cdfg::NodeId{v})) {
      continue;
    }
    const std::uint32_t step_v = s.at(cdfg::NodeId{v});
    for (std::size_t u = ancestors.nextSetBit(v, 0); u != BitRows::npos;
         u = ancestors.nextSetBit(v, u + 1)) {
      const cdfg::NodeId pred{static_cast<std::uint32_t>(u)};
      if (s.isSet(pred) && s.at(pred) > step_v) {
        found.emplace_back(pred.value(), v);
        break;
      }
    }
  }
  std::sort(found.begin(), found.end());
  for (const auto& [u, v] : found) {
    out.push_back(diag(
        "LW804", Severity::kError, name, "node " + std::to_string(v),
        "starts at step " + std::to_string(s.at(cdfg::NodeId{v})) +
            ", before transitive predecessor node " + std::to_string(u) +
            " (step " + std::to_string(s.at(cdfg::NodeId{u})) + ")",
        "the design's precedence closure orders these operations; "
        "re-run the scheduler against this design"));
  }
}

/// LW805: certificate-locality existence in the referenced design.  The
/// screen is a necessary condition (the design must contain at least as
/// many operations of each kind as the shape uses); for sched
/// certificates against designs that still carry temporal edges, the
/// exact anchored shape match runs as well.  Signature-free by design —
/// proving authorship still requires detection with the key.
template <typename Cert>
void checkLocalityExistence(const Cert& cert, const cdfg::Cdfg& design,
                            const std::string& name,
                            const std::string& design_path,
                            std::vector<Diagnostic>& out) {
  const auto shape_hist = opHistogram(cert.shape);
  const auto design_hist = opHistogram(design);
  for (std::size_t k = 0; k < cdfg::kOpKindCount; ++k) {
    if (shape_hist[k] > design_hist[k]) {
      out.push_back(diag(
          "LW805", Severity::kError, name, "locality",
          "locality cannot exist in design '" + design_path + "': needs " +
              std::to_string(shape_hist[k]) + " " +
              std::string(cdfg::opName(static_cast<cdfg::OpKind>(k))) +
              " operation(s), the design has " +
              std::to_string(design_hist[k]),
          "the certificate references a design that cannot contain its "
          "locality shape"));
      return;
    }
  }
  if constexpr (std::is_same_v<Cert, wm::WatermarkCertificate>) {
    if (cert.constraints.empty()) {
      return;
    }
    const auto anchors = temporalAnchors(design);
    if (anchors.empty()) {
      return;  // published design: constraints have nothing to anchor on
    }
    const ShapeMatch match = matchCertificateShape(design, anchors, cert);
    if (!match.matched) {
      out.push_back(diag(
          "LW805", Severity::kError, name, "locality",
          "locality shape and constraints match nothing in design '" +
              design_path + "'",
          "either the certificate belongs to another design or its "
          "watermark edges were removed"));
    }
  }
}

std::string refNoun(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kBinding:
      return "schedule";
    default:
      return "design";
  }
}

}  // namespace

std::string ruleSetVersion() {
  // v6: a binding entry's register word that is no number is an LW001
  // naming the word ("malformed register '<word>'"); v5 entries word it as
  // a missing register.  The rule count (LW810 added one) changes the
  // version too.
  return "lw" + std::to_string(allRules().size()) + ".v6";
}

Report mergeFindings(const Workspace& ws, std::vector<ArtifactFindings> found,
                     std::vector<Diagnostic> ring) {
  LOCWM_OBS_SPAN("check.project.merge");
  // A key names its artifact, so each artifact deduplicates the findings
  // that name it in its own shard, in report order: the load findings
  // (the seed), its own findings, then the ring findings.
  const std::size_t n = found.size();
  const std::vector<Diagnostic>& load = ws.loadReport().diagnostics();
  std::vector<std::vector<const Diagnostic*>> load_at(n);
  for (const Diagnostic& d : load) {
    if (const std::ptrdiff_t t = ws.indexOf(d.artifact); t >= 0) {
      load_at[static_cast<std::size_t>(t)].push_back(&d);
    }
  }
  std::vector<std::vector<std::size_t>> ring_at(n);
  for (std::size_t r = 0; r < ring.size(); ++r) {
    ring_at[static_cast<std::size_t>(ws.indexOf(ring[r].artifact))].push_back(
        r);
  }
  std::vector<char> ring_kept(ring.size(), 0);
  std::vector<std::vector<Diagnostic>> merged(n);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    ArtifactFindings& f = found[i];
    const std::size_t count =
        f.self.size() + f.resolution.size() + f.pair.size();
    std::unordered_set<std::string> seen;
    seen.reserve(load_at[i].size() + count + ring_at[i].size());
    for (const Diagnostic* d : load_at[i]) {
      seen.insert(findingKey(*d));
    }
    std::vector<Diagnostic>& out = merged[i];
    out.reserve(count);
    for (std::vector<Diagnostic>* from : {&f.self, &f.resolution, &f.pair}) {
      for (Diagnostic& d : *from) {
        if (seen.insert(findingKey(d)).second) {
          out.push_back(std::move(d));
        }
      }
      *from = {};
    }
    for (const std::size_t r : ring_at[i]) {
      ring_kept[r] = seen.insert(findingKey(ring[r])).second ? 1 : 0;
    }
  });
  // The splice: each shard's findings move to their offset in the report.
  std::vector<std::size_t> offset(n + 1, load.size());
  for (std::size_t i = 0; i < n; ++i) {
    offset[i + 1] = offset[i] + merged[i].size();
  }
  std::vector<Diagnostic> all;
  all.reserve(offset[n] + static_cast<std::size_t>(std::count(
                              ring_kept.begin(), ring_kept.end(), 1)));
  all.resize(offset[n]);
  std::copy(load.begin(), load.end(), all.begin());
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    std::move(merged[i].begin(), merged[i].end(),
              all.begin() + static_cast<std::ptrdiff_t>(offset[i]));
    merged[i] = {};
  });
  for (std::size_t r = 0; r < ring.size(); ++r) {
    if (ring_kept[r] != 0) {
      all.push_back(std::move(ring[r]));
    }
  }
  return Report::fromUnique(std::move(all));
}

ProjectResult checkProject(Workspace& ws, const ProjectOptions& options) {
  LOCWM_OBS_LATENCY("check.project.run_ns");
  ProjectResult result;
  std::vector<WorkspaceArtifact>& arts = ws.artifacts();
  const std::size_t n = arts.size();
  result.stats.artifacts = n;

  const store::CacheDir cache(options.cache_dir);
  const bool cached = cache.enabled();
  const std::string ruleset = ruleSetVersion();

  // Phase 1: content digests.
  rt::parallel_for(0, n, 4, [&](std::size_t i) {
    arts[i].digest = crypto::sha256Hex(arts[i].text);
  });

  // Phase 2: self analysis, cache-served per (path, digest).  A miss
  // keeps the design or certificate it parsed for the pair stage.
  std::vector<ArtifactFindings> found(n);
  std::vector<Parsed> parsed(n);
  std::vector<char> self_hit(n, 0);
  std::vector<char> self_probed(n, 0);
  std::vector<char> self_stored(n, 0);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    LOCWM_OBS_LATENCY("check.project.shard_ns");
    WorkspaceArtifact& a = arts[i];
    if (a.meta.kind == ArtifactKind::kUnreadable) {
      return;
    }
    const store::KeyFields key = {kEntryFormat, ruleset, a.path, a.digest};
    std::optional<CacheEntry> entry;
    if (cached) {
      self_probed[i] = 1;
      if (const auto body = cache.get("self", key)) {
        entry = parseEntry(*body);
      }
      if (entry.has_value() && !entry->has_meta) {
        entry.reset();
      }
      self_hit[i] = entry.has_value() ? 1 : 0;
    }
    if (!entry.has_value()) {
      entry = selfAnalyze(a.text, a.path, sniffArtifact(a.text), parsed[i]);
      if (cached && cache.put("self", key, entryToJson(*entry))) {
        self_stored[i] = 1;
      }
    }
    a.meta = entry->meta;
    found[i].self = std::move(entry->diags);
  });

  // Phase 3: reference resolution — a pure, serial function of the metas
  // and the manifest's explicit references.  Bindings resolve in a second
  // pass: their design arrives through the schedule they bind.
  const auto resolveExplicit = [&](std::size_t i, const std::string& target,
                                   ArtifactKind expected,
                                   ArtifactKind expected2 =
                                       ArtifactKind::kUnreadable) {
    const std::ptrdiff_t t = ws.indexOf(target);
    if (t < 0) {
      return t;  // LW801 already reported at load
    }
    const ArtifactMeta& tm_ = arts[static_cast<std::size_t>(t)].meta;
    if (tm_.kind != expected && tm_.kind != expected2) {
      found[i].resolution.push_back(diag(
          "LW801", Severity::kError, arts[i].path, {},
          "reference '" + target + "' is a " +
              std::string(artifactKindName(tm_.kind)) + ", not a " +
              std::string(artifactKindName(expected)),
          "fix the manifest entry"));
      return static_cast<std::ptrdiff_t>(-1);
    }
    if (!tm_.usable) {
      found[i].resolution.push_back(diag(
          "LW802", Severity::kError, arts[i].path, {},
          "referenced " + std::string(artifactKindName(expected)) + " '" +
              target + "' failed to parse",
          "fix the referenced artifact first"));
      return static_cast<std::ptrdiff_t>(-1);
    }
    return t;
  };
  const auto resolveInferred = [&](std::size_t i, ArtifactKind wanted,
                                   auto&& compatible) {
    std::ptrdiff_t first = -1;
    std::size_t count = 0;
    for (std::size_t t = 0; t < n; ++t) {
      if (t == i || arts[t].meta.kind != wanted || !arts[t].meta.usable ||
          !compatible(arts[t].meta)) {
        continue;
      }
      if (first < 0) {
        first = static_cast<std::ptrdiff_t>(t);
      }
      ++count;
    }
    if (count == 0) {
      found[i].resolution.push_back(diag(
          "LW802", Severity::kError, arts[i].path, {},
          "dangling reference: no compatible " +
              std::string(artifactKindName(wanted)) + " in the workspace",
          "add the " + refNoun(arts[i].meta.kind) +
              " this artifact belongs to, or name it in a manifest"));
    } else if (count > 1) {
      found[i].resolution.push_back(diag(
          "LW803", Severity::kWarning, arts[i].path, {},
          "ambiguous reference: " + std::to_string(count) + " compatible " +
              std::string(artifactKindName(wanted)) + "s; assuming '" +
              arts[static_cast<std::size_t>(first)].path + "'",
          "name the intended " + std::string(artifactKindName(wanted)) +
              " explicitly in a manifest"));
    }
    return first;
  };
  for (std::size_t i = 0; i < n; ++i) {
    WorkspaceArtifact& a = arts[i];
    const ArtifactMeta& m = a.meta;
    // References a kind cannot take are manifest errors even when the
    // artifact itself is healthy.
    const bool takes_design = m.kind == ArtifactKind::kSchedule ||
                              m.kind == ArtifactKind::kCover ||
                              m.kind == ArtifactKind::kCertSched ||
                              m.kind == ArtifactKind::kCertTm ||
                              m.kind == ArtifactKind::kCertReg;
    const bool takes_schedule = m.kind == ArtifactKind::kBinding;
    const bool takes_library = m.kind == ArtifactKind::kCover;
    const auto rejectRef = [&](const std::optional<std::string>& ref,
                               const char* key) {
      if (ref.has_value()) {
        found[i].resolution.push_back(diag(
            "LW801", Severity::kError, a.path, {},
            "a " + std::string(artifactKindName(m.kind)) + " takes no " +
                key + " reference",
            "remove the reference from the manifest entry"));
      }
    };
    if (!takes_design) {
      rejectRef(a.ref_design, "design");
    }
    if (!takes_schedule) {
      rejectRef(a.ref_schedule, "schedule");
    }
    if (!takes_library) {
      rejectRef(a.ref_library, "library");
    }
    if (!m.usable) {
      continue;
    }
    if (takes_design) {
      if (a.ref_design.has_value()) {
        a.design = resolveExplicit(i, *a.ref_design, ArtifactKind::kDesign);
      } else if (m.kind == ArtifactKind::kSchedule ||
                 m.kind == ArtifactKind::kCover) {
        a.design =
            resolveInferred(i, ArtifactKind::kDesign, [&](const ArtifactMeta& d) {
              return m.entries == 0 || m.max_node < d.node_count;
            });
      } else {
        a.design =
            resolveInferred(i, ArtifactKind::kDesign, [&](const ArtifactMeta& d) {
              return d.node_count >= m.shape_nodes;
            });
      }
    }
    if (takes_library) {
      if (a.ref_library.has_value()) {
        a.library =
            resolveExplicit(i, *a.ref_library, ArtifactKind::kLibrary);
      } else {
        // No library in the workspace is fine — the built-in library
        // stands in — so only ambiguity is worth a diagnostic.
        std::ptrdiff_t first = -1;
        std::size_t count = 0;
        for (std::size_t t = 0; t < n; ++t) {
          if (arts[t].meta.kind == ArtifactKind::kLibrary &&
              arts[t].meta.usable) {
            if (first < 0) {
              first = static_cast<std::ptrdiff_t>(t);
            }
            ++count;
          }
        }
        if (count > 1) {
          found[i].resolution.push_back(diag(
              "LW803", Severity::kWarning, a.path, {},
              "ambiguous reference: " + std::to_string(count) +
                  " libraries; assuming '" +
                  arts[static_cast<std::size_t>(first)].path + "'",
              "name the intended library explicitly in a manifest"));
        }
        a.library = first;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {  // second pass: bindings
    WorkspaceArtifact& a = arts[i];
    if (a.meta.kind != ArtifactKind::kBinding || !a.meta.usable) {
      continue;
    }
    if (a.ref_schedule.has_value()) {
      a.schedule = resolveExplicit(i, *a.ref_schedule, ArtifactKind::kSchedule);
    } else {
      a.schedule = resolveInferred(
          i, ArtifactKind::kSchedule, [&](const ArtifactMeta& s) {
            return a.meta.entries == 0 || s.entries == 0 ||
                   a.meta.max_node <= s.max_node;
          });
    }
    if (a.schedule >= 0 &&
        arts[static_cast<std::size_t>(a.schedule)].design < 0) {
      found[i].resolution.push_back(diag(
          "LW802", Severity::kError, a.path, {},
          "referenced schedule '" +
              arts[static_cast<std::size_t>(a.schedule)].path +
              "' resolves to no design",
          "the binding cannot be checked until its schedule's design "
          "reference resolves"));
      a.schedule = -1;
    }
  }

  // Phase 4: pair analysis against the resolved context, cache-served per
  // (artifact, contexts) digest tuple.
  const std::string builtin_lib_digest =
      crypto::sha256Hex(tm::libraryToString(options.library));
  std::vector<store::KeyFields> pair_key(n);
  std::vector<char> pair_needed(n, 0);
  std::vector<char> pair_hit(n, 0);
  std::vector<char> pair_probed(n, 0);
  std::vector<char> pair_stored(n, 0);
  const auto pairKeyOf = [&](std::size_t i) {
    // Key material of artifact i's pair entry: every artifact the check
    // reads, as path + digest pairs.
    const WorkspaceArtifact& a = arts[i];
    store::KeyFields key = {kEntryFormat, ruleset, a.path, a.digest};
    const auto addIdx = [&](std::ptrdiff_t t) {
      key.push_back(arts[static_cast<std::size_t>(t)].path);
      key.push_back(arts[static_cast<std::size_t>(t)].digest);
    };
    switch (a.meta.kind) {
      case ArtifactKind::kSchedule:
      case ArtifactKind::kCertSched:
      case ArtifactKind::kCertTm:
      case ArtifactKind::kCertReg:
        addIdx(a.design);
        break;
      case ArtifactKind::kCover:
        addIdx(a.design);
        if (a.library >= 0) {
          addIdx(a.library);
        } else {
          key.push_back("<builtin>");
          key.push_back(builtin_lib_digest);
        }
        break;
      case ArtifactKind::kBinding: {
        addIdx(a.schedule);
        addIdx(arts[static_cast<std::size_t>(a.schedule)].design);
        break;
      }
      default:
        break;
    }
    return key;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const WorkspaceArtifact& a = arts[i];
    if (!a.meta.usable) {
      continue;
    }
    const bool ready =
        (a.meta.kind == ArtifactKind::kSchedule && a.design >= 0) ||
        (a.meta.kind == ArtifactKind::kCover && a.design >= 0) ||
        (a.meta.kind == ArtifactKind::kBinding && a.schedule >= 0) ||
        ((a.meta.kind == ArtifactKind::kCertSched ||
          a.meta.kind == ArtifactKind::kCertTm ||
          a.meta.kind == ArtifactKind::kCertReg) &&
         a.design >= 0);
    if (!ready) {
      continue;
    }
    pair_needed[i] = 1;
    if (cached) {
      pair_key[i] = pairKeyOf(i);
    }
  }
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    if (pair_needed[i] == 0 || !cached) {
      return;
    }
    pair_probed[i] = 1;
    std::optional<CacheEntry> entry;
    if (const auto body = cache.get("pair", pair_key[i])) {
      entry = parseEntry(*body);
    }
    if (entry.has_value()) {
      found[i].pair = std::move(entry->diags);
      pair_hit[i] = 1;
    }
  });
  // The designs, libraries, and schedules the missed pair checks read —
  // each parsed once and shared across dependents.  readers[t] counts the
  // missed pair checks that read artifact t's parse; the last to finish
  // drops it.
  std::vector<char> need_design(n, 0);
  std::vector<char> need_lib(n, 0);
  std::vector<char> need_sched(n, 0);
  std::vector<std::atomic<std::uint32_t>> readers(n);
  const auto designOf = [&](std::size_t i) {
    const WorkspaceArtifact& a = arts[i];
    return static_cast<std::size_t>(
        a.meta.kind == ArtifactKind::kBinding
            ? arts[static_cast<std::size_t>(a.schedule)].design
            : a.design);
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (pair_needed[i] == 0 || pair_hit[i] != 0) {
      continue;
    }
    const WorkspaceArtifact& a = arts[i];
    const std::size_t d = designOf(i);
    need_design[d] = 1;
    ++readers[d];
    if (a.library >= 0) {
      need_lib[static_cast<std::size_t>(a.library)] = 1;
      ++readers[static_cast<std::size_t>(a.library)];
    }
    if (a.meta.kind == ArtifactKind::kSchedule) {
      need_sched[i] = 1;
      ++readers[i];
    }
    if (a.meta.kind == ArtifactKind::kBinding) {
      const auto s = static_cast<std::size_t>(a.schedule);
      need_sched[s] = 1;
      ++readers[s];
    }
  }
  // The self stage kept the designs it parsed; parse the ones it served
  // from the cache, and drop the ones no missed pair check reads.
  std::vector<std::optional<tm::TemplateLibrary>> libs(n);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    std::optional<cdfg::Cdfg>& design = parsed[i].design;
    try {
      if (need_design[i] == 0) {
        design.reset();
      } else if (!design.has_value()) {
        std::vector<cdfg::ParseIssue> issues;
        design = cdfg::parseString(arts[i].text, issues, arts[i].path);
      }
      if (need_lib[i] != 0) {
        libs[i] = tm::parseLibraryString(arts[i].text);
      }
    } catch (const Error&) {
      // meta.usable was true, so this only happens on a poisoned cache
      // meta; dependents skip their checks.
    }
  });
  // Lint each schedule a missed pair check reads — its own or one of its
  // bindings' — once; its bindings share the parsed schedule.
  struct LintedSchedule {
    std::optional<sched::Schedule> schedule;
    std::vector<Diagnostic> diags;
  };
  std::vector<LintedSchedule> scheds(n);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    if (need_sched[i] == 0) {
      return;
    }
    const std::optional<cdfg::Cdfg>& dsg = parsed[designOf(i)].design;
    if (!dsg.has_value()) {
      return;
    }
    LintedSchedule& s = scheds[i];
    try {
      s.schedule = lintSchedule(arts[i].text, *dsg, arts[i].path, s.diags);
    } catch (const Error& e) {
      s.diags.push_back(syntaxErrorDiag(arts[i].path, e.what()));
    }
  });
  // Drops the design, library, or schedule t once its last reader has run.
  // (A certificate has one reader, its own pair check, which drops it.)
  const auto release = [&](std::size_t t) {
    if (readers[t].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      parsed[t].design.reset();
      libs[t].reset();
      scheds[t] = {};
    }
  };
  // Artifact i's pair check against its resolved context.  A context that
  // failed to parse (a poisoned cache meta) leaves it unchecked.
  const auto pairCheck = [&](std::size_t i, std::vector<Diagnostic>& out) {
    const WorkspaceArtifact& a = arts[i];
    const std::size_t d = designOf(i);
    const std::optional<cdfg::Cdfg>& dsg = parsed[d].design;
    if (!dsg.has_value()) {
      return;
    }
    switch (a.meta.kind) {
      case ArtifactKind::kSchedule:
        out = std::move(scheds[i].diags);
        if (scheds[i].schedule.has_value()) {
          checkPrecedenceClosure(*dsg, *scheds[i].schedule, a.path, out);
        }
        break;
      case ArtifactKind::kCover: {
        const tm::TemplateLibrary* lib = &options.library;
        if (a.library >= 0) {
          const auto& l = libs[static_cast<std::size_t>(a.library)];
          if (!l.has_value()) {
            break;
          }
          lib = &*l;
        }
        lintCover(a.text, *dsg, *lib, a.path, out);
        break;
      }
      case ArtifactKind::kBinding:
        if (const auto& sch =
                scheds[static_cast<std::size_t>(a.schedule)].schedule) {
          lintBinding(a.text, *dsg, *sch, a.path, out);
        }
        break;
      case ArtifactKind::kCertSched:
        checkLocalityExistence(
            certOf<wm::WatermarkCertificate>(parsed[i], a), *dsg, a.path,
            arts[d].path, out);
        break;
      case ArtifactKind::kCertTm:
        checkLocalityExistence(certOf<wm::TmCertificate>(parsed[i], a), *dsg,
                               a.path, arts[d].path, out);
        break;
      case ArtifactKind::kCertReg:
        checkLocalityExistence(certOf<wm::RegCertificate>(parsed[i], a),
                               *dsg, a.path, arts[d].path, out);
        break;
      default:
        break;
    }
  };
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    if (pair_needed[i] == 0 || pair_hit[i] != 0) {
      return;
    }
    LOCWM_OBS_LATENCY("check.project.shard_ns");
    std::vector<Diagnostic>& out = found[i].pair;
    try {
      pairCheck(i, out);
    } catch (const Error& e) {
      out.push_back(syntaxErrorDiag(arts[i].path, e.what()));
    }
    parsed[i].cert = {};
    const WorkspaceArtifact& a = arts[i];
    release(designOf(i));
    if (a.library >= 0) {
      release(static_cast<std::size_t>(a.library));
    }
    if (a.meta.kind == ArtifactKind::kSchedule) {
      release(i);
    } else if (a.meta.kind == ArtifactKind::kBinding) {
      release(static_cast<std::size_t>(a.schedule));
    }
    if (cached) {
      CacheEntry entry;
      entry.diags = out;
      if (cache.put("pair", pair_key[i], entryToJson(entry))) {
        pair_stored[i] = 1;
      }
    }
  });

  // Phase 5: ring rules over the whole collection (serial; pure function
  // of metas, digests, and resolutions).
  std::vector<Diagnostic> ring;
  const auto isCert = [&](std::size_t i) {
    const ArtifactKind k = arts[i].meta.kind;
    return (k == ArtifactKind::kCertSched || k == ArtifactKind::kCertTm ||
            k == ArtifactKind::kCertReg) &&
           arts[i].meta.usable;
  };
  // LW806: byte-identical duplicate certificates.
  for (std::size_t i = 0; i < n; ++i) {
    if (!isCert(i)) {
      continue;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (isCert(j) && arts[j].digest == arts[i].digest) {
        ring.push_back(diag(
            "LW806", Severity::kWarning, arts[i].path, {},
            "certificate is a byte-identical duplicate of '" + arts[j].path +
                "'",
            "duplicate certificates add no evidence; a ring needs distinct "
            "keys"));
        break;
      }
    }
  }
  // LW807: same key context, different content.
  for (std::size_t i = 0; i < n; ++i) {
    if (!isCert(i) || arts[i].meta.cert_context.empty()) {
      continue;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (isCert(j) && arts[j].meta.kind == arts[i].meta.kind &&
          arts[j].meta.cert_context == arts[i].meta.cert_context &&
          arts[j].digest != arts[i].digest) {
        ring.push_back(diag(
            "LW807", Severity::kError, arts[i].path, "context",
            "certificate reuses key context '" + arts[i].meta.cert_context +
                "' of '" + arts[j].path + "' with different content",
            "two certificates drawing the same bitstream context are "
            "mutually forgeable; re-embed with distinct contexts"));
        break;
      }
    }
  }
  // LW808: orphaned designs and libraries (only meaningful when the
  // workspace holds artifacts that could reference them).
  {
    std::vector<std::uint32_t> inbound(n, 0);
    bool any_design_referrer = false;
    bool any_cover = false;
    for (std::size_t i = 0; i < n; ++i) {
      const WorkspaceArtifact& a = arts[i];
      if (!a.meta.usable) {
        continue;
      }
      const ArtifactKind k = a.meta.kind;
      if (k == ArtifactKind::kSchedule || k == ArtifactKind::kCover ||
          k == ArtifactKind::kCertSched || k == ArtifactKind::kCertTm ||
          k == ArtifactKind::kCertReg) {
        any_design_referrer = true;
        if (a.design >= 0) {
          ++inbound[static_cast<std::size_t>(a.design)];
        }
      }
      if (k == ArtifactKind::kCover) {
        any_cover = true;
        if (a.library >= 0) {
          ++inbound[static_cast<std::size_t>(a.library)];
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const WorkspaceArtifact& a = arts[i];
      if (!a.meta.usable || inbound[i] != 0) {
        continue;
      }
      if (a.meta.kind == ArtifactKind::kDesign && any_design_referrer) {
        ring.push_back(diag(
            "LW808", Severity::kWarning, a.path, {},
            "design is referenced by no schedule, cover, or certificate in "
            "the workspace",
            "orphaned artifacts are linted but prove nothing; remove the "
            "artifact or add its dependents"));
      } else if (a.meta.kind == ArtifactKind::kLibrary && any_cover) {
        ring.push_back(diag(
            "LW808", Severity::kWarning, a.path, {},
            "library is referenced by no cover in the workspace",
            "orphaned artifacts are linted but prove nothing; remove the "
            "artifact or add its dependents"));
      }
    }
  }
  // LW809: conflicting bindings for one schedule.
  for (std::size_t s = 0; s < n; ++s) {
    if (arts[s].meta.kind != ArtifactKind::kSchedule) {
      continue;
    }
    std::ptrdiff_t first = -1;
    for (std::size_t i = 0; i < n; ++i) {
      if (arts[i].meta.kind != ArtifactKind::kBinding ||
          arts[i].schedule != static_cast<std::ptrdiff_t>(s)) {
        continue;
      }
      if (first < 0) {
        first = static_cast<std::ptrdiff_t>(i);
        continue;
      }
      if (arts[i].digest != arts[static_cast<std::size_t>(first)].digest) {
        ring.push_back(diag(
            "LW809", Severity::kWarning, arts[i].path, {},
            "conflicting binding for schedule '" + arts[s].path +
                "': differs from '" +
                arts[static_cast<std::size_t>(first)].path + "'",
            "one schedule should ship one register binding; remove the "
            "stale one"));
      }
    }
  }

  // Phase 6: deterministic merge.
  result.report = mergeFindings(ws, std::move(found), std::move(ring));

  for (std::size_t i = 0; i < n; ++i) {
    result.stats.cache_probes += static_cast<std::size_t>(self_probed[i]) +
                                 static_cast<std::size_t>(pair_probed[i]);
    result.stats.cache_hits += static_cast<std::size_t>(self_hit[i]) +
                               static_cast<std::size_t>(pair_hit[i]);
    result.stats.cache_stores += static_cast<std::size_t>(self_stored[i]) +
                                 static_cast<std::size_t>(pair_stored[i]);
  }
  LOCWM_OBS_COUNT("check.project.artifacts",
                  static_cast<std::int64_t>(result.stats.artifacts));
  LOCWM_OBS_COUNT("check.project.cache.probes",
                  static_cast<std::int64_t>(result.stats.cache_probes));
  LOCWM_OBS_COUNT("check.project.cache.hits",
                  static_cast<std::int64_t>(result.stats.cache_hits));
  LOCWM_OBS_COUNT("check.project.cache.stores",
                  static_cast<std::int64_t>(result.stats.cache_stores));
  return result;
}

}  // namespace locwm::check
