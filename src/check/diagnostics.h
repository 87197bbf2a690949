// locwm::check — diagnostics engine of the static-analysis subsystem.
//
// Every invariant the watermarking protocol rests on (acyclic temporal
// edges, precedence-respecting schedules, tiling covers, conflict-free
// bindings, self-consistent certificates) is checked by a *rule* that
// reports findings as Diagnostic values with a stable LW### code, instead
// of the scattered throw-on-first-violation validate() helpers.  A Report
// collects diagnostics, renders them as text or JSON, and maps onto the
// lint exit-code contract (errors -> 1, clean -> 0).
//
// Code families (see docs/STATIC_ANALYSIS.md for the full catalogue):
//   LW0xx  engine (unreadable artifact, unknown kind, missing context)
//   LW1xx  CDFG graph rules
//   LW2xx  schedule rules
//   LW3xx  template-cover rules
//   LW4xx  register-binding rules
//   LW5xx  certificate rules
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace locwm::check {

/// How bad a finding is.  Ordered: comparisons rely on kError being the
/// largest value.
enum class Severity : std::uint8_t { kInfo = 0, kWarning = 1, kError = 2 };

/// Stable mnemonic ("info" / "warning" / "error").
[[nodiscard]] std::string_view severityName(Severity s) noexcept;

/// One finding of one rule.
struct Diagnostic {
  std::string code;      ///< stable rule code, e.g. "LW103"
  Severity severity = Severity::kError;
  std::string artifact;  ///< file path or logical artifact name
  std::string location;  ///< where inside the artifact ("edge 3->7", ...)
  std::string message;   ///< what is wrong
  std::string hint;      ///< how to fix / why it matters (may be empty)
};

/// The identity of a finding: (code, artifact, location).  Two findings
/// with one key report the same defect, and a report keeps the first.
/// Report::add, checkProject's merge and lint baselines all key on this.
[[nodiscard]] std::string findingKey(std::string_view code,
                                     std::string_view artifact,
                                     std::string_view location);
[[nodiscard]] inline std::string findingKey(const Diagnostic& d) {
  return findingKey(d.code, d.artifact, d.location);
}

/// Output formats of a report.
enum class ReportFormat : std::uint8_t { kText, kJson, kSarif };

/// Findings per rendered piece.  Pieces render in parallel; a fixed grain
/// keeps the piece boundaries independent of the thread count.
inline constexpr std::size_t kRenderGrain = 1024;

/// An ordered collection of diagnostics from one lint run.  Order is the
/// order rules emitted them (rules are deterministic, so two runs over the
/// same artifacts produce identical reports).
class Report {
 public:
  /// Appends a diagnostic.  Identical (code, artifact, location) findings
  /// collapse to the first occurrence: the lenient parser and a registered
  /// rule may both flag the same defect on one run, and one finding per
  /// defect is what the exit-code and rendering contracts want.
  void add(Diagnostic d);
  void merge(Report other);

  /// A report of `diags` in order, which the caller has already
  /// deduplicated by findingKey (first occurrence kept).  Nothing is
  /// hashed until a later add().
  [[nodiscard]] static Report fromUnique(std::vector<Diagnostic> diags);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const noexcept {
    return diagnostics_;
  }
  [[nodiscard]] std::size_t count(Severity s) const noexcept;
  [[nodiscard]] bool empty() const noexcept { return diagnostics_.empty(); }
  [[nodiscard]] bool hasErrors() const noexcept {
    return count(Severity::kError) > 0;
  }
  [[nodiscard]] bool hasWarnings() const noexcept {
    return count(Severity::kWarning) > 0;
  }

  /// The report as `format`, in consecutive pieces whose concatenation is
  /// the document: a head, one piece per kRenderGrain findings (rendered
  /// in parallel), a tail.  Writers emit the pieces in order.
  [[nodiscard]] std::vector<std::string> renderPieces(
      ReportFormat format) const;

  /// One "artifact: severity CODE: message [location] (hint)" line per
  /// diagnostic plus a trailing summary line.
  [[nodiscard]] std::string renderText() const {
    return render(ReportFormat::kText);
  }

  /// Machine-readable form:
  ///   {"diagnostics": [{"code": ..., "severity": ..., "artifact": ...,
  ///     "location": ..., "message": ..., "hint": ...}, ...],
  ///    "summary": {"errors": N, "warnings": N, "infos": N}}
  /// Deterministic: identical inputs render byte-identical JSON.
  [[nodiscard]] std::string renderJson() const {
    return render(ReportFormat::kJson);
  }

  /// SARIF 2.1.0 (the format GitHub code scanning ingests): one run whose
  /// tool driver is "locwm" with rule metadata from check::allRules(), one
  /// result per diagnostic.  Severity maps info->note, warning->warning,
  /// error->error; the artifact becomes the physical location URI and the
  /// in-artifact location the logical location.  Deterministic.
  [[nodiscard]] std::string renderSarif() const {
    return render(ReportFormat::kSarif);
  }

 private:
  /// renderPieces(format), joined.
  [[nodiscard]] std::string render(ReportFormat format) const;

  std::vector<Diagnostic> diagnostics_;
  /// Dedupe index over findingKey; keeps add() linear over a whole run (a
  /// semantic rule can emit thousands of findings).  Holds the keys of
  /// diagnostics_[0, indexed_): add() indexes the rest first, so a report
  /// from fromUnique() pays for hashing only when something is added.
  std::unordered_set<std::string> seen_;
  std::size_t indexed_ = 0;
};

}  // namespace locwm::check
