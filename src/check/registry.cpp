#include "check/rules.h"

namespace locwm::check {

// The catalogue of every code the checker can emit.  Codes are stable API:
// scripts key on them, docs/STATIC_ANALYSIS.md catalogues them, and the
// negative-path tests in tests/test_check.cpp pin one corruption per code.
// Never renumber; retire codes by leaving a tombstone entry.
const std::vector<RuleInfo>& allRules() {
  static const std::vector<RuleInfo> kRules = {
      {"LW001", Severity::kError, "engine",
       "artifact file is unreadable or fails to parse", "-"},
      {"LW002", Severity::kError, "engine",
       "artifact kind cannot be recognized", "-"},
      {"LW003", Severity::kError, "engine",
       "artifact needs a context artifact (design/schedule) that was not "
       "supplied",
       "-"},
      {"LW101", Severity::kError, "cdfg",
       "edge endpoints must be declared, distinct nodes", "§II"},
      {"LW102", Severity::kError, "cdfg",
       "temporal edges form a set: no duplicates", "§IV-A"},
      {"LW103", Severity::kError, "cdfg",
       "the dependence relation (data+control+temporal) must be acyclic",
       "§II"},
      {"LW104", Severity::kWarning, "cdfg",
       "a temporal edge implied by an existing data/control path is "
       "redundant and carries no watermark information",
       "§IV-A"},
      {"LW105", Severity::kWarning, "cdfg",
       "a real operation with no edges is disconnected from the "
       "computation",
       "§II"},
      {"LW106", Severity::kInfo, "cdfg",
       "automorphic operations cannot receive a unique canonical rank and "
       "are invisible to watermark localities",
       "§IV-A (C1-C3)"},
      {"LW201", Severity::kError, "schedule",
       "every node must be assigned a control step", "§IV-A"},
      {"LW202", Severity::kError, "schedule",
       "a data/control edge's consumer must start after the producer "
       "finishes (latency gap)",
       "§II"},
      {"LW203", Severity::kError, "schedule",
       "a temporal edge's destination must start strictly after its source",
       "§IV-A"},
      {"LW204", Severity::kInfo, "schedule",
       "makespan exceeds the dependence-only (ASAP) lower bound", "§IV-A"},
      {"LW205", Severity::kError, "schedule",
       "schedule entries must reference nodes of the design", "-"},
      {"LW301", Severity::kError, "cover",
       "every operation is implemented by exactly one module: tiles must "
       "not overlap",
       "§IV-B"},
      {"LW302", Severity::kError, "cover",
       "every real operation must be covered by a tile", "§IV-B"},
      {"LW303", Severity::kError, "cover",
       "cover entries must reference known templates, in-range template "
       "ops, and real nodes of the design",
       "§IV-B"},
      {"LW304", Severity::kError, "cover",
       "every template-internal edge must be realized by a data edge of "
       "the design",
       "§IV-B"},
      {"LW401", Severity::kError, "binding",
       "values with overlapping lifetimes must not share a register",
       "§III"},
      {"LW402", Severity::kError, "binding",
       "binding entries must assign every register value exactly once, "
       "within the declared register count",
       "§III"},
      {"LW403", Severity::kInfo, "binding",
       "register count exceeds the max-live lower bound", "§III"},
      {"LW501", Severity::kError, "certificate",
       "locality parameters must be in range (max-distance > 0, exclusion "
       "probability <= 255/256, 0 < min-size <= shape size)",
       "§III"},
      {"LW502", Severity::kError, "certificate",
       "root rank and constraint ranks must index shape nodes", "§IV-A"},
      {"LW503", Severity::kError, "certificate",
       "constraints must not be degenerate (self-referential) or "
       "duplicated",
       "§IV-A"},
      {"LW504", Severity::kError, "certificate",
       "the shape must re-identify: real operations only, no temporal "
       "edges, connected to its root",
       "§III"},
      {"LW505", Severity::kWarning, "certificate",
       "a constraint implied by a shape data path is satisfied by every "
       "schedule and carries no watermark information",
       "§IV-A"},
      {"LW601", Severity::kWarning, "semantic",
       "a temporal edge implied by the transitive precedence of the "
       "remaining constraints (other temporal edges included) adds no "
       "evidence",
       "§IV-A"},
      {"LW602", Severity::kInfo, "semantic",
       "a temporal edge that stretches the dependence-only critical path "
       "costs latency and is easy to profile for",
       "§IV-A"},
      {"LW603", Severity::kWarning, "semantic",
       "a dead operation (no path to an output or side effect) dilutes "
       "localities and survives no re-synthesis",
       "§II"},
      {"LW604", Severity::kWarning, "semantic",
       "an unreachable operation (no path from an input or constant) "
       "computes an undefined value",
       "§II"},
      {"LW605", Severity::kWarning, "semantic",
       "localities of two certificates overlap on the same design, "
       "weakening the independence of their proofs",
       "§III"},
      {"LW606", Severity::kInfo, "certificate",
       "the recomputed Pc is materially weaker than the nominal 2^-K "
       "strength claim",
       "§IV-A"},
      {"LW701", Severity::kError, "diff",
       "the marked design's operation set differs from the original",
       "§IV-A"},
      {"LW702", Severity::kError, "diff",
       "an operation's kind differs between original and marked design",
       "§IV-A"},
      {"LW703", Severity::kError, "diff",
       "the designs' data/control edges differ: a dependence was added, "
       "deleted, or redirected",
       "§IV-A"},
      {"LW704", Severity::kError, "diff",
       "a temporal edge of the original is missing from the marked design",
       "§IV-A"},
      {"LW705", Severity::kError, "diff",
       "a temporal edge only the marked design carries is explained by no "
       "supplied certificate",
       "§IV-A"},
      {"LW706", Severity::kInfo, "diff",
       "a temporal edge only the marked design carries (the watermark)",
       "§IV-A"},
      {"LW707", Severity::kError, "diff",
       "a supplied certificate's shape and constraints match nothing in "
       "the marked design",
       "§III"},
      {"LW801", Severity::kError, "workspace",
       "a workspace manifest entry is malformed: bad header/directive, "
       "duplicate artifact, or a reference that is malformed, names no "
       "workspace artifact, or targets the wrong artifact kind",
       "§IV-A"},
      {"LW802", Severity::kError, "workspace",
       "a dangling reference: no compatible (or no parseable) target "
       "artifact exists in the workspace",
       "§IV-A"},
      {"LW803", Severity::kWarning, "workspace",
       "an ambiguous reference: several compatible targets exist and the "
       "lexicographically first is assumed",
       "§IV-A"},
      {"LW804", Severity::kError, "workspace",
       "a schedule contradicts its design's transitive precedence closure: "
       "an operation starts before a transitive predecessor",
       "§IV-A"},
      {"LW805", Severity::kError, "workspace",
       "a certificate's locality cannot exist in the design it references",
       "§III"},
      {"LW806", Severity::kWarning, "workspace",
       "a certificate is a byte-identical duplicate of another one in the "
       "ring and adds no evidence",
       "§III"},
      {"LW807", Severity::kError, "workspace",
       "two different certificates draw the same key-stream context, "
       "making them mutually forgeable",
       "§III"},
      {"LW808", Severity::kWarning, "workspace",
       "an orphaned design or library is referenced by nothing in the "
       "workspace",
       "§IV-A"},
      {"LW809", Severity::kWarning, "workspace",
       "several distinct bindings claim the same schedule",
       "§IV-A"},
      {"LW810", Severity::kInfo, "workspace",
       "a schedule's design is above the LW804 closure bound, so its "
       "precedence-closure check did not run",
       "§IV-A"},
  };
  return kRules;
}

}  // namespace locwm::check
