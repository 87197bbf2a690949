#include "check/linter.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <optional>
#include <utility>
#include <vector>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "check/differ.h"
#include "check/internal.h"
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

void append(std::vector<Diagnostic>& out, const Report& found) {
  out.insert(out.end(), found.diagnostics().begin(),
             found.diagnostics().end());
}

/// "first non-whitespace byte 'X' (0x58) at offset 12".
std::string sniffDetail(const SniffResult& sniff) {
  static const char kHex[] = "0123456789abcdef";
  const auto byte = static_cast<unsigned char>(sniff.first_byte);
  std::string out = "first non-whitespace byte ";
  if (std::isprint(byte) != 0) {
    out += '\'';
    out += sniff.first_byte;
    out += "' (";
  } else {
    out += '(';
  }
  out += "0x";
  out += kHex[byte >> 4];
  out += kHex[byte & 0xF];
  out += ") at offset " + std::to_string(sniff.first_offset);
  return out;
}

}  // namespace

cdfg::Cdfg lintDesign(std::string_view text, const std::string& name,
                      std::vector<Diagnostic>& out) {
  std::vector<cdfg::ParseIssue> issues;
  cdfg::Cdfg g = cdfg::parseString(text, issues, name);
  // The structural and semantic rule packs only read the parsed graph;
  // evaluate them concurrently (inline inside a pool task) and report in
  // the fixed structural-then-semantic order.
  Report structural;
  Report semantic;
  rt::parallel_invoke({[&] { structural = checkGraph(g, issues, name); },
                       [&] { semantic = checkSemantics(g, name); }});
  append(out, structural);
  append(out, semantic);
  return g;
}

sched::Schedule lintSchedule(std::string_view text, const cdfg::Cdfg& design,
                             const std::string& name,
                             std::vector<Diagnostic>& out) {
  std::vector<sched::ScheduleParseIssue> issues;
  sched::Schedule s =
      sched::parseScheduleString(text, design.nodeCount(), issues, name);
  append(out, checkSchedule(design, s, issues, name));
  return s;
}

void lintCover(std::string_view text, const cdfg::Cdfg& design,
               const tm::TemplateLibrary& library, const std::string& name,
               std::vector<Diagnostic>& out) {
  std::vector<tm::CoverParseIssue> issues;
  const std::vector<tm::Matching> cover =
      tm::parseCoverString(text, library, design.nodeCount(), issues, name);
  append(out, checkCover(design, library, cover, issues, name));
}

void lintBinding(std::string_view text, const cdfg::Cdfg& design,
                 const sched::Schedule& schedule, const std::string& name,
                 std::vector<Diagnostic>& out) {
  // Lenient binding parsing needs the lifetime table; if the schedule is
  // broken the table cannot be derived and the binding is uncheckable.
  regbind::LifetimeTable table;
  try {
    table = regbind::computeLifetimes(design, schedule);
  } catch (const Error& e) {
    out.push_back(diag("LW402", Severity::kError, name, {},
                       std::string("value lifetimes cannot be derived: ") +
                           e.what(),
                       "fix the schedule first (see LW2xx diagnostics)"));
    return;
  }
  std::vector<regbind::BindingParseIssue> issues;
  const regbind::Binding binding =
      regbind::parseBindingString(text, table, issues, name);
  append(out, checkBinding(design, table, binding, issues, name));
}

Diagnostic unrecognizedArtifactDiag(const std::string& name,
                                    const SniffResult& sniff) {
  const char* const kExpected =
      "expected a design, schedule, cover, binding, library, or certificate";
  if (sniff.header_word == "locwm-cert") {
    return diag("LW001", Severity::kError, name, "'" + sniff.cert_kind + "'",
                "unknown certificate kind", "expected sched, tm, or reg");
  }
  if (sniff.empty) {
    return diag("LW002", Severity::kError, name, {}, "artifact is empty",
                kExpected);
  }
  std::string word = sniff.header_word;
  if (word.size() > 40) {  // binary junk: keep the diagnostic readable
    word.resize(40);
    word += "...";
  }
  return diag("LW002", Severity::kError, name, "'" + word + "'",
              "artifact kind cannot be recognized; " + sniffDetail(sniff),
              kExpected);
}

Linter::Linter(LintOptions options) : options_(std::move(options)) {}

void Linter::lintFile(const std::string& path) {
  LOCWM_OBS_LATENCY("check.lint.file_ns");
  const std::optional<std::string> text = store::readFile(path);
  if (!text) {
    report_.add(diag("LW001", Severity::kError, path, {},
                     "cannot open file", "check the path and permissions"));
    return;
  }
  lintText(*text, path);
}

void Linter::lintText(const std::string& text, const std::string& name) {
  const SniffResult sniff = sniffArtifact(text);
  std::vector<Diagnostic> found;
  try {
    switch (sniff.kind) {
      case ArtifactKind::kDesign:
        design_ = lintDesign(text, name, found);
        schedule_.reset();  // a schedule belongs to the design before it
        matched_localities_.clear();
        break;
      case ArtifactKind::kSchedule:
        if (!design_) {
          found.push_back(diag("LW003", Severity::kError, name, {},
                               "schedule has no design to check against",
                               "pass the design file before the schedule"));
          break;
        }
        schedule_ = lintSchedule(text, *design_, name, found);
        break;
      case ArtifactKind::kCover:
        if (!design_) {
          found.push_back(diag("LW003", Severity::kError, name, {},
                               "cover has no design to check against",
                               "pass the design file before the cover"));
          break;
        }
        lintCover(text, *design_, options_.library, name, found);
        break;
      case ArtifactKind::kLibrary:
        options_.library = tm::parseLibraryString(text);
        break;
      case ArtifactKind::kBinding:
        if (!design_ || !schedule_) {
          found.push_back(
              diag("LW003", Severity::kError, name, {},
                   "binding has no design and schedule to check against",
                   "pass the design and schedule files before the "
                   "binding"));
          break;
        }
        lintBinding(text, *design_, *schedule_, name, found);
        break;
      case ArtifactKind::kCertSched:
        checkLocalityOverlap(
            lintCertificate<wm::WatermarkCertificate>(text, name, found),
            name, found);
        break;
      case ArtifactKind::kCertTm:
        (void)lintCertificate<wm::TmCertificate>(text, name, found);
        break;
      case ArtifactKind::kCertReg:
        (void)lintCertificate<wm::RegCertificate>(text, name, found);
        break;
      case ArtifactKind::kManifest:
        found.push_back(diag("LW002", Severity::kError, name, {},
                             "artifact is a workspace manifest",
                             "lint the workspace it describes with "
                             "--manifest instead"));
        break;
      case ArtifactKind::kUnknown:
      case ArtifactKind::kUnreadable:
        found.push_back(unrecognizedArtifactDiag(name, sniff));
        break;
    }
  } catch (const Error& e) {
    found.push_back(syntaxErrorDiag(name, e.what()));
  }
  for (Diagnostic& d : found) {
    report_.add(std::move(d));
  }
}

void Linter::checkLocalityOverlap(const wm::WatermarkCertificate& cert,
                                  const std::string& name,
                                  std::vector<Diagnostic>& out) {
  // LW605 needs the certificate *located* in the current design, which is
  // only possible when the design still carries its temporal edges (a
  // marked, unpublished design) to anchor the constraints on.
  if (!design_ || cert.constraints.empty()) {
    return;
  }
  const auto anchors = temporalAnchors(*design_);
  if (anchors.empty()) {
    return;
  }
  const ShapeMatch match = matchCertificateShape(*design_, anchors, cert);
  if (!match.matched) {
    return;
  }
  std::vector<cdfg::NodeId> nodes = match.nodes;
  std::sort(nodes.begin(), nodes.end());
  for (const auto& [other_name, other_nodes] : matched_localities_) {
    std::vector<cdfg::NodeId> shared;
    std::set_intersection(nodes.begin(), nodes.end(), other_nodes.begin(),
                          other_nodes.end(), std::back_inserter(shared));
    if (!shared.empty()) {
      out.push_back(diag(
          "LW605", Severity::kWarning, name, "locality",
          "locality overlaps the one of '" + other_name + "' on " +
              std::to_string(shared.size()) + " operation(s)",
          "overlapping localities share scheduling freedom; their Pc "
          "claims are not independent"));
    }
  }
  matched_localities_.emplace_back(name, std::move(nodes));
}

}  // namespace locwm::check
