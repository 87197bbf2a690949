// Finding baselines — `locwm lint --baseline FILE` suppression/ratchet.
//
// A baseline is the set of known findings, keyed by findingKey (code,
// artifact, location), the key a Report deduplicates on.  Linting against
// a baseline reports only findings NOT in the set, so a corpus with
// accepted debt can ratchet (new findings fail, old ones don't) instead
// of hard-failing; `--update-baseline` regenerates the file from the
// current run.
//
// Format (schema_version 1, deterministic: sorted keys, stable escaping):
//   {"schema_version": 1,
//    "findings": [{"code": "LW603", "artifact": "a.cdfg",
//                  "location": "node 7 (add 'A5')"}, ...]}
#pragma once

#include <string>
#include <unordered_set>

#include "check/diagnostics.h"

namespace locwm::check {

class Baseline {
 public:
  Baseline() = default;

  /// Snapshot of every finding in `report`.
  [[nodiscard]] static Baseline fromReport(const Report& report);

  /// Parses the JSON baseline format.  Throws std::runtime_error on
  /// malformed input (bad JSON, wrong schema_version, missing fields).
  [[nodiscard]] static Baseline parse(const std::string& text);

  /// Deterministic JSON rendering (findings sorted by key).
  [[nodiscard]] std::string toJson() const;

  [[nodiscard]] bool contains(const Diagnostic& d) const;
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }

  /// The findings of `report` not present in this baseline, in report
  /// order — what a ratcheted lint run actually reports.
  [[nodiscard]] Report filterNew(const Report& report) const;

 private:
  /// findingKey of each known finding.
  std::unordered_set<std::string> keys_;
};

}  // namespace locwm::check
