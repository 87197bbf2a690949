// Lint reports as first written — JSON escaping one byte at a time, the
// three renderers as one serial loop each, and the workspace merge as
// one Report::add per finding — kept as differential oracles for the
// bulk escaper (obs/json.h), the chunked parallel renderer
// (Report::renderPieces) and check::mergeFindings.  Each function is the
// old implementation with only its name and namespace changed.  Tests
// only; test_report.cpp compares the library with them.
#pragma once

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "check/diagnostics.h"
#include "check/project.h"
#include "check/rules.h"
#include "check/workspace.h"

namespace locwm::oracle {

inline void appendJsonEscaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline std::string jsonString(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  appendJsonEscaped(out, text);
  out += '"';
  return out;
}

inline std::size_t countSeverity(const std::vector<check::Diagnostic>& diags,
                                 check::Severity s) {
  std::size_t n = 0;
  for (const check::Diagnostic& d : diags) {
    n += d.severity == s;
  }
  return n;
}

inline std::string renderText(const std::vector<check::Diagnostic>& diags) {
  using check::Severity;
  std::string out;
  for (const check::Diagnostic& d : diags) {
    out += d.artifact;
    out += ": ";
    out += check::severityName(d.severity);
    out += ' ';
    out += d.code;
    out += ": ";
    out += d.message;
    if (!d.location.empty()) {
      out += " [";
      out += d.location;
      out += ']';
    }
    if (!d.hint.empty()) {
      out += "\n  hint: ";
      out += d.hint;
    }
    out += '\n';
  }
  out += std::to_string(countSeverity(diags, Severity::kError)) +
         " error(s), " +
         std::to_string(countSeverity(diags, Severity::kWarning)) +
         " warning(s), " +
         std::to_string(countSeverity(diags, Severity::kInfo)) + " info(s)\n";
  return out;
}

inline std::string renderJson(const std::vector<check::Diagnostic>& diags) {
  using check::Severity;
  std::string out = "{\n  \"diagnostics\": [";
  bool first = true;
  for (const check::Diagnostic& d : diags) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"code\": " + jsonString(d.code) +
           ", \"severity\": " + jsonString(check::severityName(d.severity)) +
           ", \"artifact\": " + jsonString(d.artifact) +
           ", \"location\": " + jsonString(d.location) +
           ", \"message\": " + jsonString(d.message) +
           ", \"hint\": " + jsonString(d.hint) + "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"summary\": {\"errors\": " +
         std::to_string(countSeverity(diags, Severity::kError)) +
         ", \"warnings\": " +
         std::to_string(countSeverity(diags, Severity::kWarning)) +
         ", \"infos\": " +
         std::to_string(countSeverity(diags, Severity::kInfo)) + "}\n}\n";
  return out;
}

inline std::string_view sarifLevel(check::Severity s) {
  switch (s) {
    case check::Severity::kInfo:
      return "note";
    case check::Severity::kWarning:
      return "warning";
    case check::Severity::kError:
      return "error";
  }
  return "none";
}

inline std::string renderSarif(const std::vector<check::Diagnostic>& diags) {
  std::vector<std::string> rule_order;
  std::map<std::string, std::size_t> rule_index;
  for (const check::Diagnostic& d : diags) {
    if (rule_index.emplace(d.code, rule_order.size()).second) {
      rule_order.push_back(d.code);
    }
  }
  std::string out =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"locwm\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/locwm/docs/STATIC_ANALYSIS.md\",\n"
      "          \"rules\": [";
  bool first = true;
  for (const std::string& code : rule_order) {
    out += first ? "\n" : ",\n";
    first = false;
    std::string summary = "(uncatalogued rule)";
    for (const check::RuleInfo& info : check::allRules()) {
      if (info.code == code) {
        summary = std::string(info.summary);
      }
    }
    out += "            {\"id\": " + jsonString(code) +
           ", \"shortDescription\": {\"text\": " + jsonString(summary) +
           "}}";
  }
  out += first ? "]\n" : "\n          ]\n";
  out +=
      "        }\n"
      "      },\n"
      "      \"results\": [";
  first = true;
  for (const check::Diagnostic& d : diags) {
    out += first ? "\n" : ",\n";
    first = false;
    std::string message = d.message;
    if (!d.hint.empty()) {
      message += " (hint: " + d.hint + ")";
    }
    out += "        {\"ruleId\": " + jsonString(d.code) +
           ", \"ruleIndex\": " + std::to_string(rule_index[d.code]) +
           ", \"level\": " + jsonString(sarifLevel(d.severity)) +
           ",\n         \"message\": {\"text\": " + jsonString(message) +
           "},\n         \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": " +
           jsonString(d.artifact) + "}}";
    if (!d.location.empty()) {
      out += ", \"logicalLocations\": [{\"fullyQualifiedName\": " +
             jsonString(d.location) + "}]";
    }
    out += "}]}";
  }
  out += first ? "]\n" : "\n      ]\n";
  out +=
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

/// checkProject's merge as first written: the load report, then every
/// artifact's self, resolution and pair findings, then the ring, each
/// through Report::add.
inline check::Report mergeFindings(
    const check::Workspace& ws,
    const std::vector<check::ArtifactFindings>& found,
    const std::vector<check::Diagnostic>& ring) {
  check::Report report = ws.loadReport();
  for (const check::ArtifactFindings& f : found) {
    for (const check::Diagnostic& d : f.self) {
      report.add(d);
    }
    for (const check::Diagnostic& d : f.resolution) {
      report.add(d);
    }
    for (const check::Diagnostic& d : f.pair) {
      report.add(d);
    }
  }
  for (const check::Diagnostic& d : ring) {
    report.add(d);
  }
  return report;
}

}  // namespace locwm::oracle
