// Rule registry and per-artifact checkers of the static-analysis
// subsystem.
//
// Each checker runs every rule registered for one artifact kind and
// returns a Report.  Rules are pure functions of their inputs: the same
// artifacts always produce the same diagnostics in the same order.  The
// structural invariants themselves are *reused* from the library —
// cdfg::topologicalOrder, LatencyModel::edgeGap, Lifetime::overlaps,
// regbind::maxLive, sched::computeOrdering — the rules only turn their
// verdicts into stable coded diagnostics.
//
// Lenient-parse issues (cdfg::ParseIssue and friends) carry violations the
// strict parsers would have rejected; the checkers translate them into
// the same code space so file-based linting and in-memory auditing agree.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cdfg/graph.h"
#include "cdfg/io.h"
#include "check/diagnostics.h"
#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "regbind/binding.h"
#include "regbind/binding_io.h"
#include "regbind/lifetime.h"
#include "sched/latency.h"
#include "sched/schedule.h"
#include "sched/schedule_io.h"
#include "tm/library_io.h"
#include "tm/matching.h"
#include "tm/template.h"

namespace locwm::check {

/// Catalogue entry of one rule (or engine code), for docs and the CLI.
struct RuleInfo {
  std::string_view code;      ///< "LW101"
  Severity severity;          ///< severity its diagnostics carry
  std::string_view artifact;  ///< "engine", "cdfg", "schedule", "cover",
                              ///< "binding", "certificate"
  std::string_view summary;   ///< the invariant, one line
  std::string_view paper;     ///< paper section the invariant comes from
};

/// Every code the checker can emit, ordered by code.
[[nodiscard]] const std::vector<RuleInfo>& allRules();

/// Graph rules (LW1xx) over a design plus any lenient-parse issues.
/// `artifact` names the design in the diagnostics.
[[nodiscard]] Report checkGraph(
    const cdfg::Cdfg& g, const std::vector<cdfg::ParseIssue>& issues = {},
    const std::string& artifact = "<design>");

/// Semantic rules (LW6xx) over a design: redundant temporal edges under
/// transitive precedence, critical-path-stretching temporal edges, and
/// dead/unreachable operations.  One pass each over the acyclic design
/// (check/dataflow.h and sched::TimeFrames); returns nothing on cyclic
/// graphs (LW103 territory).
[[nodiscard]] Report checkSemantics(const cdfg::Cdfg& g,
                                    const std::string& artifact = "<design>");

/// Schedule rules (LW2xx) for schedule `s` of design `g`.
[[nodiscard]] Report checkSchedule(
    const cdfg::Cdfg& g, const sched::Schedule& s,
    const std::vector<sched::ScheduleParseIssue>& issues = {},
    const std::string& artifact = "<schedule>",
    const sched::LatencyModel& lat = sched::LatencyModel::unit());

/// Cover rules (LW3xx) for template cover `cover` of design `g`.
[[nodiscard]] Report checkCover(
    const cdfg::Cdfg& g, const tm::TemplateLibrary& lib,
    const std::vector<tm::Matching>& cover,
    const std::vector<tm::CoverParseIssue>& issues = {},
    const std::string& artifact = "<cover>");

/// Binding rules (LW4xx) for register binding `binding` of design `g`,
/// whose scheduled values have the lifetimes `table`.
[[nodiscard]] Report checkBinding(
    const cdfg::Cdfg& g, const regbind::LifetimeTable& table,
    const regbind::Binding& binding,
    const std::vector<regbind::BindingParseIssue>& issues = {},
    const std::string& artifact = "<binding>");

/// Certificate rules (LW5xx), one checker per certificate kind.
[[nodiscard]] Report checkCertificate(
    const wm::WatermarkCertificate& cert,
    const std::string& artifact = "<certificate>");
[[nodiscard]] Report checkCertificate(
    const wm::TmCertificate& cert,
    const std::string& artifact = "<certificate>");
[[nodiscard]] Report checkCertificate(
    const wm::RegCertificate& cert,
    const std::string& artifact = "<certificate>");

}  // namespace locwm::check
