// Artifact lint — the per-artifact analysis of the static-analysis
// subsystem, shared by both lint modes.
//
// There is one free function per artifact kind.  Each parses its artifact
// leniently (semantic violations become diagnostics instead of parse
// failures) against the context it is handed, runs the kind's rule packs,
// and appends the findings to `out` in emission order.  A syntax error
// throws the parser's locwm::Error; the caller turns it into LW001
// (syntaxErrorDiag).  `Linter` (CLI `locwm lint`) and `checkProject`
// (`locwm lint --project`, check/project.h) both call exactly these, so
// the two modes report the same codes with the same messages for an
// artifact in the same context.
//
// `Linter` is the positional front end.  It sniffs each artifact's kind from
// its header line and supplies the context from the command line:
// schedules, covers, and bindings are checked against the most recent
// *design*, and bindings also against the most recent *schedule* —
// mirroring how the artifacts relate in the synthesis flow.  What it adds
// to the shared functions is that running context: LW003 when the context
// is missing, and LW605 over the sched certificates it located in the
// current design.
//
// Recognized artifacts (header line):
//   cdfg v1            design graph
//   <int> <int> ...    schedule (node/step pairs)
//   tmcover v1         template cover
//   tmlib v1           template library (replaces the cover-check library)
//   registers <n>      register binding
//   locwm-cert v1 ...  watermark certificate (sched / tm / reg)
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cdfg/graph.h"
#include "check/diagnostics.h"
#include "check/rules.h"
#include "check/workspace.h"
#include "core/certificate_io.h"
#include "sched/schedule.h"
#include "tm/template.h"

namespace locwm::check {

/// Design: the structural (LW1xx) and semantic (LW6xx) rule packs, run
/// concurrently and reported in that order.  Returns the parsed graph.
[[nodiscard]] cdfg::Cdfg lintDesign(std::string_view text,
                                    const std::string& name,
                                    std::vector<Diagnostic>& out);

/// Schedule rules (LW2xx) against `design`.  Returns the parsed schedule.
[[nodiscard]] sched::Schedule lintSchedule(std::string_view text,
                                           const cdfg::Cdfg& design,
                                           const std::string& name,
                                           std::vector<Diagnostic>& out);

/// Cover rules (LW3xx) against `design` and `library`.
void lintCover(std::string_view text, const cdfg::Cdfg& design,
               const tm::TemplateLibrary& library, const std::string& name,
               std::vector<Diagnostic>& out);

/// Binding rules (LW4xx) against `design` scheduled by `schedule`.  A
/// schedule that gives the values no lifetimes makes the binding
/// uncheckable: one LW402, and the binding is not read.
void lintBinding(std::string_view text, const cdfg::Cdfg& design,
                 const sched::Schedule& schedule, const std::string& name,
                 std::vector<Diagnostic>& out);

/// Reads a certificate of type `Cert` (sched, tm, or reg) leniently.
template <typename Cert>
[[nodiscard]] Cert readCertificate(std::string_view text,
                                   const std::string& name) {
  constexpr wm::CertValidation kLenient = wm::CertValidation::kLenient;
  if constexpr (std::is_same_v<Cert, wm::WatermarkCertificate>) {
    return wm::parseSchedCertificate(text, kLenient, name);
  } else if constexpr (std::is_same_v<Cert, wm::TmCertificate>) {
    return wm::parseTmCertificate(text, kLenient, name);
  } else {
    static_assert(std::is_same_v<Cert, wm::RegCertificate>);
    return wm::parseRegCertificate(text, kLenient, name);
  }
}

/// Certificate rules (LW5xx).  Returns the certificate read.
template <typename Cert>
[[nodiscard]] Cert lintCertificate(std::string_view text,
                                   const std::string& name,
                                   std::vector<Diagnostic>& out) {
  Cert cert = readCertificate<Cert>(text, name);
  const Report found = checkCertificate(cert, name);
  out.insert(out.end(), found.diagnostics().begin(),
             found.diagnostics().end());
  return cert;
}

/// The finding for an artifact whose kind sniffing did not recognize:
/// LW001 for a certificate of an unknown kind, else LW002 for an empty
/// artifact or one whose header names no kind (with the byte and offset
/// that defeated the sniffer).
[[nodiscard]] Diagnostic unrecognizedArtifactDiag(const std::string& name,
                                                  const SniffResult& sniff);

/// Options of the artifact linter.
struct LintOptions {
  /// Template library covers are checked against until a `tmlib` artifact
  /// replaces it.
  tm::TemplateLibrary library = tm::TemplateLibrary::basicDsp();
};

/// Accumulates diagnostics over a sequence of artifact files.
class Linter {
 public:
  explicit Linter(LintOptions options = {});

  /// Lints one artifact file.  Unreadable files produce LW001.
  void lintFile(const std::string& path);

  /// Lints artifact text under a display name (tests, stdin).
  void lintText(const std::string& text, const std::string& name);

  [[nodiscard]] const Report& report() const noexcept { return report_; }

 private:
  /// LW605: locates a sched certificate's locality in the current design
  /// (when it still carries temporal edges) and warns when two
  /// certificates' localities overlap.
  void checkLocalityOverlap(const wm::WatermarkCertificate& cert,
                            const std::string& name,
                            std::vector<Diagnostic>& out);

  LintOptions options_;
  Report report_;
  std::optional<cdfg::Cdfg> design_;
  std::optional<sched::Schedule> schedule_;
  /// Localities of sched certificates matched against the current design
  /// (artifact name + matched design nodes), for the LW605 overlap check.
  /// Reset when a new design arrives.
  std::vector<std::pair<std::string, std::vector<cdfg::NodeId>>>
      matched_localities_;
};

}  // namespace locwm::check
