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
#include "check/workspace.h"
#include "obs/obs.h"
#include "rt/rt.h"
#include "core/certificate_io.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "sched/schedule_io.h"
#include "store/store.h"
#include "tm/library_io.h"

namespace locwm::check {
namespace {

using detail::diag;

}  // namespace

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
  try {
    switch (sniff.kind) {
      case ArtifactKind::kDesign:
        lintDesign(text, name);
        break;
      case ArtifactKind::kCover:
        lintCover(text, name);
        break;
      case ArtifactKind::kLibrary:
        options_.library = tm::parseLibraryString(text);
        break;
      case ArtifactKind::kBinding:
        lintBinding(text, name);
        break;
      case ArtifactKind::kCertSched:
        lintCertificate(text, name, "sched");
        break;
      case ArtifactKind::kCertTm:
        lintCertificate(text, name, "tm");
        break;
      case ArtifactKind::kCertReg:
        lintCertificate(text, name, "reg");
        break;
      case ArtifactKind::kSchedule:
        lintSchedule(text, name);
        break;
      case ArtifactKind::kManifest:
        report_.add(diag("LW002", Severity::kError, name, {},
                         "artifact is a workspace manifest",
                         "lint the workspace it describes with "
                         "--manifest instead"));
        break;
      case ArtifactKind::kUnknown:
      case ArtifactKind::kUnreadable:
        if (sniff.header_word == "locwm-cert") {
          lintCertificate(text, name, sniff.cert_kind);
        } else if (sniff.empty) {
          report_.add(emptyArtifactDiag(name));
        } else {
          report_.add(unknownKindDiag(name, sniff));
        }
        break;
    }
  } catch (const Error& e) {
    report_.add(syntaxErrorDiag(name, e.what()));
  }
}

void Linter::lintDesign(const std::string& text, const std::string& name) {
  std::vector<cdfg::ParseIssue> issues;
  cdfg::Cdfg g = cdfg::parseString(text, issues, name);
  // The structural and semantic rule packs only read the parsed graph;
  // evaluate them concurrently into local reports and merge in the fixed
  // structural-then-semantic order so diagnostics render identically.
  Report structural;
  Report semantic;
  rt::parallel_invoke({[&] { structural = checkGraph(g, issues, name); },
                       [&] { semantic = checkSemantics(g, name); }});
  report_.merge(std::move(structural));
  report_.merge(std::move(semantic));
  design_ = std::move(g);
  schedule_.reset();  // a schedule belongs to the design before it
  matched_localities_.clear();
}

void Linter::lintSchedule(const std::string& text, const std::string& name) {
  if (!design_) {
    report_.add(diag("LW003", Severity::kError, name, {},
                     "schedule has no design to check against",
                     "pass the design file before the schedule"));
    return;
  }
  const cdfg::Cdfg& design = *design_;
  std::vector<sched::ScheduleParseIssue> issues;
  sched::Schedule s =
      sched::parseScheduleString(text, design.nodeCount(), issues, name);
  report_.merge(checkSchedule(design, s, issues, name));
  schedule_ = std::move(s);
}

void Linter::lintCover(const std::string& text, const std::string& name) {
  if (!design_) {
    report_.add(diag("LW003", Severity::kError, name, {},
                     "cover has no design to check against",
                     "pass the design file before the cover"));
    return;
  }
  const cdfg::Cdfg& design = *design_;
  std::vector<tm::CoverParseIssue> issues;
  const std::vector<tm::Matching> cover = tm::parseCoverString(
      text, options_.library, design.nodeCount(), issues, name);
  report_.merge(checkCover(design, options_.library, cover, issues, name));
}

void Linter::lintBinding(const std::string& text, const std::string& name) {
  if (!design_ || !schedule_) {
    report_.add(diag("LW003", Severity::kError, name, {},
                     "binding has no design and schedule to check against",
                     "pass the design and schedule files before the "
                     "binding"));
    return;
  }
  const cdfg::Cdfg& design = *design_;
  const sched::Schedule& schedule = *schedule_;
  // Lenient binding parsing needs the lifetime table; if the schedule is
  // broken the table cannot be derived and the binding is uncheckable.
  regbind::LifetimeTable table;
  try {
    table = regbind::computeLifetimes(design, schedule);
  } catch (const Error& e) {
    report_.add(diag("LW402", Severity::kError, name, {},
                     std::string("value lifetimes cannot be derived: ") +
                         e.what(),
                     "fix the schedule first (see LW2xx diagnostics)"));
    return;
  }
  std::vector<regbind::BindingParseIssue> issues;
  const regbind::Binding binding =
      regbind::parseBindingString(text, table, issues, name);
  report_.merge(checkBinding(design, schedule, binding, issues, name));
}

void Linter::lintCertificate(const std::string& text, const std::string& name,
                             const std::string& kind) {
  if (kind == "sched") {
    const wm::WatermarkCertificate cert =
        wm::parseSchedCertificate(text, wm::CertValidation::kLenient, name);
    report_.merge(checkCertificate(cert, name));
    checkLocalityOverlap(cert, name);
  } else if (kind == "tm") {
    report_.merge(checkCertificate(
        wm::parseTmCertificate(text, wm::CertValidation::kLenient, name),
        name));
  } else if (kind == "reg") {
    report_.merge(checkCertificate(
        wm::parseRegCertificate(text, wm::CertValidation::kLenient, name),
        name));
  } else {
    report_.add(diag("LW001", Severity::kError, name, "'" + kind + "'",
                     "unknown certificate kind",
                     "expected sched, tm, or reg"));
  }
}

void Linter::checkLocalityOverlap(const wm::WatermarkCertificate& cert,
                                  const std::string& name) {
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
      report_.add(diag(
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
