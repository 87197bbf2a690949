#include "check/project.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cdfg/csr.h"
#include "cdfg/error.h"
#include "cdfg/io.h"
#include "check/dataflow.h"
#include "check/differ.h"
#include "check/internal.h"
#include "check/rules.h"
#include "core/certificate_io.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "rt/rt.h"
#include "sched/schedule_io.h"
#include "store/store.h"
#include "tm/library_io.h"

namespace locwm::check {
namespace {

using detail::diag;

/// LW804 does not run above this many nodes: the closure is O(N^2/64)
/// words of memory and time per schedule.
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
constexpr const char* kEntryFormat = "locwm-lint-entry v1";

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
    appendKey(out, "constraints");
    out += std::to_string(m.constraints);
    appendKey(out, "entries");
    out += std::to_string(m.entries);
    appendKey(out, "kind");
    out += obs::jsonString(artifactKindName(m.kind));
    appendKey(out, "max_node");
    out += std::to_string(m.max_node);
    appendKey(out, "node_count");
    out += std::to_string(m.node_count);
    appendKey(out, "real_ops");
    out += std::to_string(m.real_ops);
    appendKey(out, "registers");
    out += std::to_string(m.registers);
    appendKey(out, "shape_nodes");
    out += std::to_string(m.shape_nodes);
    appendKey(out, "templates");
    out += std::to_string(m.templates);
    appendKey(out, "temporal_edges");
    out += std::to_string(m.temporal_edges);
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
    } else if (key == "constraints") {
      m.constraints = static_cast<std::uint32_t>(sc.number());
    } else if (key == "entries") {
      m.entries = static_cast<std::uint32_t>(sc.number());
    } else if (key == "max_node") {
      m.max_node = static_cast<std::uint32_t>(sc.number());
    } else if (key == "node_count") {
      m.node_count = static_cast<std::uint32_t>(sc.number());
    } else if (key == "real_ops") {
      m.real_ops = static_cast<std::uint32_t>(sc.number());
    } else if (key == "registers") {
      m.registers = static_cast<std::uint32_t>(sc.number());
    } else if (key == "shape_nodes") {
      m.shape_nodes = static_cast<std::uint32_t>(sc.number());
    } else if (key == "templates") {
      m.templates = static_cast<std::uint32_t>(sc.number());
    } else if (key == "temporal_edges") {
      m.temporal_edges = static_cast<std::uint32_t>(sc.number());
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

// ---------------------------------------------------------------------------
// Self-stage metadata scans.  Schedules, covers, and bindings cannot be
// fully parsed without their context artifact, so reference resolution
// works off a cheap text scan of the entry lines instead.

/// Iterates the meaningful ('#'-stripped, non-blank) lines of `text`,
/// calling fn(line, lineno).  Returns false when fn does.
template <typename Fn>
bool forEachLine(const std::string& text, Fn&& fn) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    bool blank = true;
    for (const char c : line) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        blank = false;
        break;
      }
    }
    if (blank) {
      continue;
    }
    if (!fn(line, lineno)) {
      return false;
    }
  }
  return true;
}

void scanScheduleMeta(const std::string& text, const std::string& name,
                      ArtifactMeta& m, std::vector<Diagnostic>& diags) {
  m.kind = ArtifactKind::kSchedule;
  m.usable = forEachLine(text, [&](const std::string& line, std::size_t no) {
    std::istringstream ls(line);
    std::uint32_t node = 0;
    std::uint32_t step = 0;
    std::string trailing;
    if (!(ls >> node >> step) || (ls >> trailing)) {
      diags.push_back(diag(
          "LW001", Severity::kError, name, "line " + std::to_string(no),
          "schedule entry is malformed (expected '<node> <step>')",
          "fix the artifact's syntax; semantic problems are reported as "
          "individual diagnostics"));
      return false;
    }
    ++m.entries;
    m.max_node = std::max(m.max_node, node);
    return true;
  });
}

void scanCoverMeta(const std::string& text, ArtifactMeta& m) {
  m.kind = ArtifactKind::kCover;
  m.usable = true;  // syntax is validated by the pair-stage parse
  bool header_seen = false;
  forEachLine(text, [&](const std::string& line, std::size_t) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (!header_seen) {
      header_seen = true;  // "tmcover v1", already sniffed
      return true;
    }
    if (word == "single") {
      std::uint32_t node = 0;
      if (ls >> node) {
        ++m.entries;
        m.max_node = std::max(m.max_node, node);
      }
    } else if (word == "use") {
      std::string tid;
      ls >> tid;
      ++m.entries;
      std::string tok;
      while (ls >> tok) {
        const std::size_t colon = tok.find(':');
        if (colon == std::string::npos) {
          continue;
        }
        std::istringstream ns(tok.substr(0, colon));
        std::uint32_t node = 0;
        if (ns >> node) {
          m.max_node = std::max(m.max_node, node);
        }
      }
    }
    return true;
  });
}

void scanBindingMeta(const std::string& text, ArtifactMeta& m) {
  m.kind = ArtifactKind::kBinding;
  m.usable = true;  // syntax is validated by the pair-stage parse
  bool header_seen = false;
  forEachLine(text, [&](const std::string& line, std::size_t) {
    std::istringstream ls(line);
    if (!header_seen) {
      header_seen = true;
      std::string word;
      std::uint32_t count = 0;
      if ((ls >> word >> count) && word == "registers") {
        m.registers = count;
      }
      return true;
    }
    std::uint32_t node = 0;
    std::uint32_t reg = 0;
    if (ls >> node >> reg) {
      ++m.entries;
      m.max_node = std::max(m.max_node, node);
    }
    return true;
  });
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

std::string lw001Hint() {
  return "fix the artifact's syntax; semantic problems are reported as "
         "individual diagnostics";
}

/// Per-artifact self analysis (everything that needs no second artifact).
/// Must be a pure function of (text, path): its output is cached by
/// content digest.
CacheEntry selfAnalyze(const std::string& text, const std::string& path,
                       const SniffResult& sniff) {
  CacheEntry out;
  out.has_meta = true;
  ArtifactMeta& m = out.meta;
  m.kind = sniff.kind;
  try {
    switch (sniff.kind) {
      case ArtifactKind::kDesign: {
        std::vector<cdfg::ParseIssue> issues;
        const cdfg::Cdfg g = cdfg::parseString(text, issues, path);
        m.usable = true;
        m.node_count = static_cast<std::uint32_t>(g.nodeCount());
        for (std::size_t i = 0; i < g.nodeCount(); ++i) {
          const cdfg::NodeId n{static_cast<std::uint32_t>(i)};
          if (g.nodeAlive(n) && !cdfg::isPseudoOp(g.node(n).kind)) {
            ++m.real_ops;
          }
        }
        m.temporal_edges =
            static_cast<std::uint32_t>(g.temporalEdges().size());
        Report structural = checkGraph(g, issues, path);
        Report semantic = checkSemantics(g, path);
        out.diags = structural.diagnostics();
        out.diags.insert(out.diags.end(), semantic.diagnostics().begin(),
                         semantic.diagnostics().end());
        break;
      }
      case ArtifactKind::kSchedule:
        scanScheduleMeta(text, path, m, out.diags);
        break;
      case ArtifactKind::kCover:
        scanCoverMeta(text, m);
        break;
      case ArtifactKind::kBinding:
        scanBindingMeta(text, m);
        break;
      case ArtifactKind::kLibrary: {
        const tm::TemplateLibrary lib = tm::parseLibraryString(text);
        m.usable = true;
        m.templates = static_cast<std::uint32_t>(lib.size());
        break;
      }
      case ArtifactKind::kCertSched: {
        std::istringstream is(text);
        const wm::WatermarkCertificate cert =
            wm::parseSchedCertificate(is, wm::CertValidation::kLenient,
                                      path);
        m.usable = true;
        m.cert_context = cert.context;
        m.shape_nodes = static_cast<std::uint32_t>(cert.shape.nodeCount());
        m.constraints = static_cast<std::uint32_t>(cert.constraints.size());
        out.diags = checkCertificate(cert, path).diagnostics();
        break;
      }
      case ArtifactKind::kCertTm: {
        std::istringstream is(text);
        const wm::TmCertificate cert =
            wm::parseTmCertificate(is, wm::CertValidation::kLenient, path);
        m.usable = true;
        m.cert_context = cert.context;
        m.shape_nodes = static_cast<std::uint32_t>(cert.shape.nodeCount());
        m.constraints = static_cast<std::uint32_t>(cert.matchings.size());
        out.diags = checkCertificate(cert, path).diagnostics();
        break;
      }
      case ArtifactKind::kCertReg: {
        std::istringstream is(text);
        const wm::RegCertificate cert =
            wm::parseRegCertificate(is, wm::CertValidation::kLenient, path);
        m.usable = true;
        m.cert_context = cert.context;
        m.shape_nodes = static_cast<std::uint32_t>(cert.shape.nodeCount());
        m.constraints = static_cast<std::uint32_t>(cert.pairs.size());
        out.diags = checkCertificate(cert, path).diagnostics();
        break;
      }
      case ArtifactKind::kManifest:
        out.diags.push_back(diag(
            "LW002", Severity::kError, path, {},
            "artifact is a nested workspace manifest",
            "manifests list artifacts and are not lintable themselves; "
            "point --manifest at it instead"));
        break;
      case ArtifactKind::kUnknown:
        if (sniff.header_word == "locwm-cert") {
          out.diags.push_back(
              diag("LW001", Severity::kError, path,
                   "'" + sniff.cert_kind + "'", "unknown certificate kind",
                   "expected sched, tm, or reg"));
        } else if (sniff.empty) {
          out.diags.push_back(emptyArtifactDiag(path));
        } else {
          out.diags.push_back(unknownKindDiag(path, sniff));
        }
        break;
      case ArtifactKind::kUnreadable:
        break;  // LW001 already in the load report
    }
  } catch (const Error& e) {
    m.usable = false;
    out.diags.push_back(
        diag("LW001", Severity::kError, path, {}, e.what(), lw001Hint()));
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
/// none (LW103 territory).
void checkPrecedenceClosure(const cdfg::Cdfg& g, const sched::Schedule& s,
                            const std::string& name,
                            std::vector<Diagnostic>& out) {
  const std::size_t n = g.nodeCount();
  if (n == 0 || n > kClosureNodeBound) {
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
    std::vector<std::pair<cdfg::NodeId, cdfg::NodeId>> anchors;
    for (const cdfg::EdgeId e : design.temporalEdges()) {
      const cdfg::Edge& ed = design.edge(e);
      anchors.emplace_back(ed.src, ed.dst);
    }
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
  // v2: parse-error diagnostics carry the source path, so cached entries
  // rendered under v1 would differ textually.
  return "lw" + std::to_string(allRules().size()) + ".v2";
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

  // Phase 2: self analysis, cache-served per (path, digest).
  std::vector<CacheEntry> self(n);
  std::vector<char> self_hit(n, 0);
  std::vector<char> self_probed(n, 0);
  std::vector<char> self_stored(n, 0);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    LOCWM_OBS_LATENCY("check.project.shard_ns");
    WorkspaceArtifact& a = arts[i];
    if (a.meta.kind == ArtifactKind::kUnreadable) {
      self[i].has_meta = true;
      self[i].meta = a.meta;
      return;
    }
    const store::KeyFields key = {kEntryFormat, ruleset, a.path, a.digest};
    if (cached) {
      self_probed[i] = 1;
      std::optional<CacheEntry> entry;
      if (const auto body = cache.get("self", key)) {
        entry = parseEntry(*body);
      }
      if (entry.has_value() && entry->has_meta) {
        self[i] = std::move(*entry);
        self_hit[i] = 1;
        a.meta = self[i].meta;
        return;
      }
    }
    self[i] = selfAnalyze(a.text, a.path, sniffArtifact(a.text));
    a.meta = self[i].meta;
    if (cached && cache.put("self", key, entryToJson(self[i]))) {
      self_stored[i] = 1;
    }
  });

  // Phase 3: reference resolution — a pure, serial function of the metas
  // and the manifest's explicit references.  Bindings resolve in a second
  // pass: their design arrives through the schedule they bind.
  std::vector<std::vector<Diagnostic>> res(n);
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
      res[i].push_back(diag(
          "LW801", Severity::kError, arts[i].path, {},
          "reference '" + target + "' is a " +
              std::string(artifactKindName(tm_.kind)) + ", not a " +
              std::string(artifactKindName(expected)),
          "fix the manifest entry"));
      return static_cast<std::ptrdiff_t>(-1);
    }
    if (!tm_.usable) {
      res[i].push_back(diag(
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
      res[i].push_back(diag(
          "LW802", Severity::kError, arts[i].path, {},
          "dangling reference: no compatible " +
              std::string(artifactKindName(wanted)) + " in the workspace",
          "add the " + refNoun(arts[i].meta.kind) +
              " this artifact belongs to, or name it in a manifest"));
    } else if (count > 1) {
      res[i].push_back(diag(
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
        res[i].push_back(diag(
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
      } else if (m.kind == ArtifactKind::kSchedule) {
        a.design =
            resolveInferred(i, ArtifactKind::kDesign, [&](const ArtifactMeta& d) {
              return m.entries == 0 || m.max_node < d.node_count;
            });
      } else if (m.kind == ArtifactKind::kCover) {
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
          res[i].push_back(diag(
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
      res[i].push_back(diag(
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
  std::vector<std::vector<Diagnostic>> pair_diags(n);
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
      pair_diags[i] = std::move(entry->diags);
      pair_hit[i] = 1;
    }
  });
  // Parse the designs, libraries, and schedules the missed pair checks
  // need — each exactly once, shared across dependents.
  std::vector<char> need_design(n, 0);
  std::vector<char> need_lib(n, 0);
  std::vector<char> need_sched(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (pair_needed[i] == 0 || pair_hit[i] != 0) {
      continue;
    }
    const WorkspaceArtifact& a = arts[i];
    if (a.design >= 0) {
      need_design[static_cast<std::size_t>(a.design)] = 1;
    }
    if (a.library >= 0) {
      need_lib[static_cast<std::size_t>(a.library)] = 1;
    }
    if (a.meta.kind == ArtifactKind::kBinding) {
      const auto s = static_cast<std::size_t>(a.schedule);
      need_sched[s] = 1;
      need_design[static_cast<std::size_t>(arts[s].design)] = 1;
    }
  }
  std::vector<std::optional<cdfg::Cdfg>> designs(n);
  std::vector<std::optional<tm::TemplateLibrary>> libs(n);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    try {
      if (need_design[i] != 0) {
        std::vector<cdfg::ParseIssue> issues;
        designs[i] = cdfg::parseString(arts[i].text, issues, arts[i].path);
      } else if (need_lib[i] != 0) {
        libs[i] = tm::parseLibraryString(arts[i].text);
      }
    } catch (const Error&) {
      // meta.usable was true, so this only happens on a poisoned cache
      // meta; dependents skip their checks.
    }
  });
  // A schedule parsed for its bindings keeps its parse issues, so its own
  // pair check reuses both instead of parsing the text again.
  struct ParsedSchedule {
    sched::Schedule schedule;
    std::vector<sched::ScheduleParseIssue> issues;
  };
  const auto parseSched = [&](std::size_t i, const cdfg::Cdfg& dsg) {
    ParsedSchedule p;
    std::istringstream is(arts[i].text);
    p.schedule =
        sched::parseSchedule(is, dsg.nodeCount(), p.issues, arts[i].path);
    return p;
  };
  std::vector<std::optional<ParsedSchedule>> scheds(n);
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    if (need_sched[i] == 0) {
      return;
    }
    const std::optional<cdfg::Cdfg>& dsg = designs[static_cast<std::size_t>(
        arts[i].design)];
    if (!dsg.has_value()) {
      return;
    }
    try {
      scheds[i] = parseSched(i, *dsg);
    } catch (const Error&) {
    }
  });
  rt::parallel_for(0, n, 1, [&](std::size_t i) {
    if (pair_needed[i] == 0 || pair_hit[i] != 0) {
      return;
    }
    LOCWM_OBS_LATENCY("check.project.shard_ns");
    const WorkspaceArtifact& a = arts[i];
    std::vector<Diagnostic>& out = pair_diags[i];
    try {
      switch (a.meta.kind) {
        case ArtifactKind::kSchedule: {
          const auto& dsg = designs[static_cast<std::size_t>(a.design)];
          if (!dsg.has_value()) {
            break;
          }
          std::optional<ParsedSchedule> own;  // not parsed for a binding
          const ParsedSchedule& p = scheds[i].has_value()
                                        ? *scheds[i]
                                        : own.emplace(parseSched(i, *dsg));
          out = checkSchedule(*dsg, p.schedule, p.issues, a.path)
                    .diagnostics();
          checkPrecedenceClosure(*dsg, p.schedule, a.path, out);
          break;
        }
        case ArtifactKind::kCover: {
          const auto& dsg = designs[static_cast<std::size_t>(a.design)];
          if (!dsg.has_value()) {
            break;
          }
          const tm::TemplateLibrary* lib = &options.library;
          if (a.library >= 0) {
            const auto& l = libs[static_cast<std::size_t>(a.library)];
            if (!l.has_value()) {
              break;
            }
            lib = &*l;
          }
          std::vector<tm::CoverParseIssue> issues;
          std::istringstream is(a.text);
          const std::vector<tm::Matching> cover =
              tm::parseCover(is, *lib, dsg->nodeCount(), issues, a.path);
          out = checkCover(*dsg, *lib, cover, issues, a.path).diagnostics();
          break;
        }
        case ArtifactKind::kBinding: {
          const auto si = static_cast<std::size_t>(a.schedule);
          const auto& dsg = designs[static_cast<std::size_t>(arts[si].design)];
          const auto& sch = scheds[si];
          if (!dsg.has_value() || !sch.has_value()) {
            break;
          }
          regbind::LifetimeTable table;
          try {
            table = regbind::computeLifetimes(*dsg, sch->schedule);
          } catch (const Error& e) {
            out.push_back(diag(
                "LW402", Severity::kError, a.path, {},
                std::string("value lifetimes cannot be derived: ") + e.what(),
                "fix the schedule first (see LW2xx diagnostics)"));
            break;
          }
          std::vector<regbind::BindingParseIssue> issues;
          std::istringstream is(a.text);
          const regbind::Binding binding =
              regbind::parseBinding(is, table, issues, a.path);
          out = checkBinding(*dsg, sch->schedule, binding, issues, a.path)
                    .diagnostics();
          break;
        }
        case ArtifactKind::kCertSched: {
          const auto d = static_cast<std::size_t>(a.design);
          const auto& dsg = designs[d];
          if (!dsg.has_value()) {
            break;
          }
          std::istringstream is(a.text);
          const wm::WatermarkCertificate cert =
              wm::parseSchedCertificate(is, wm::CertValidation::kLenient,
                                        a.path);
          checkLocalityExistence(cert, *dsg, a.path, arts[d].path, out);
          break;
        }
        case ArtifactKind::kCertTm: {
          const auto d = static_cast<std::size_t>(a.design);
          const auto& dsg = designs[d];
          if (!dsg.has_value()) {
            break;
          }
          std::istringstream is(a.text);
          const wm::TmCertificate cert =
              wm::parseTmCertificate(is, wm::CertValidation::kLenient,
                                     a.path);
          checkLocalityExistence(cert, *dsg, a.path, arts[d].path, out);
          break;
        }
        case ArtifactKind::kCertReg: {
          const auto d = static_cast<std::size_t>(a.design);
          const auto& dsg = designs[d];
          if (!dsg.has_value()) {
            break;
          }
          std::istringstream is(a.text);
          const wm::RegCertificate cert =
              wm::parseRegCertificate(is, wm::CertValidation::kLenient,
                                      a.path);
          checkLocalityExistence(cert, *dsg, a.path, arts[d].path, out);
          break;
        }
        default:
          break;
      }
    } catch (const Error& e) {
      out.push_back(
          diag("LW001", Severity::kError, a.path, {}, e.what(), lw001Hint()));
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

  // Phase 6: deterministic merge — load report, per-artifact findings in
  // path order (self, resolution, pair), then the ring findings.
  result.report = ws.loadReport();
  for (std::size_t i = 0; i < n; ++i) {
    for (const Diagnostic& d : self[i].diags) {
      result.report.add(d);
    }
    for (const Diagnostic& d : res[i]) {
      result.report.add(d);
    }
    for (const Diagnostic& d : pair_diags[i]) {
      result.report.add(d);
    }
  }
  for (const Diagnostic& d : ring) {
    result.report.add(d);
  }

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
