#include "check/diagnostics.h"

#include <algorithm>
#include <cstddef>
#include <map>

#include "check/rules.h"
#include "obs/json.h"
#include "rt/rt.h"

namespace locwm::check {

std::string_view severityName(Severity s) noexcept {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

std::string findingKey(std::string_view code, std::string_view artifact,
                       std::string_view location) {
  // '\x1f' (unit separator) cannot appear in codes/paths/locations, so the
  // concatenation is an injective key.
  std::string key;
  key.reserve(code.size() + artifact.size() + location.size() + 2);
  key += code;
  key += '\x1f';
  key += artifact;
  key += '\x1f';
  key += location;
  return key;
}

void Report::add(Diagnostic d) {
  for (; indexed_ < diagnostics_.size(); ++indexed_) {
    seen_.insert(findingKey(diagnostics_[indexed_]));
  }
  if (!seen_.insert(findingKey(d)).second) {
    return;
  }
  diagnostics_.push_back(std::move(d));
  ++indexed_;
}

void Report::merge(Report other) {
  for (Diagnostic& d : other.diagnostics_) {
    add(std::move(d));
  }
}

Report Report::fromUnique(std::vector<Diagnostic> diags) {
  Report r;
  r.diagnostics_ = std::move(diags);
  return r;
}

std::size_t Report::count(Severity s) const noexcept {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    n += d.severity == s;
  }
  return n;
}

std::string Report::render(ReportFormat format) const {
  const std::vector<std::string> pieces = renderPieces(format);
  std::size_t size = 0;
  for (const std::string& p : pieces) {
    size += p.size();
  }
  std::string out;
  out.reserve(size);
  for (const std::string& p : pieces) {
    out += p;
  }
  return out;
}

namespace {

std::string_view sarifLevel(Severity s) noexcept {
  switch (s) {
    case Severity::kInfo:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "none";
}

const RuleInfo* findRule(const std::string& code) {
  for (const RuleInfo& info : allRules()) {
    if (info.code == code) {
      return &info;
    }
  }
  return nullptr;
}

/// The chunked renderer behind every format: `head`, then one piece per
/// kRenderGrain findings, each rendered concurrently by
/// `item(out, index, finding)`, then `tail`.
template <typename Item>
std::vector<std::string> renderChunked(const std::vector<Diagnostic>& diags,
                                       std::string head, const Item& item,
                                       std::string tail) {
  const std::size_t chunks = (diags.size() + kRenderGrain - 1) / kRenderGrain;
  std::vector<std::string> pieces(chunks + 2);
  pieces.front() = std::move(head);
  rt::parallel_for(0, chunks, 1, [&](std::size_t c) {
    std::string& out = pieces[c + 1];
    const std::size_t end = std::min(diags.size(), (c + 1) * kRenderGrain);
    for (std::size_t i = c * kRenderGrain; i < end; ++i) {
      item(out, i, diags[i]);
    }
  });
  pieces.back() = std::move(tail);
  return pieces;
}

/// JSON array separator before element `i`.
const char* separator(std::size_t i) { return i == 0 ? "\n" : ",\n"; }

}  // namespace

std::vector<std::string> Report::renderPieces(ReportFormat format) const {
  const std::vector<Diagnostic>& diags = diagnostics_;
  const bool none = diags.empty();
  const std::string errors = std::to_string(count(Severity::kError));
  const std::string warnings = std::to_string(count(Severity::kWarning));
  const std::string infos = std::to_string(count(Severity::kInfo));
  if (format == ReportFormat::kText) {
    return renderChunked(
        diags, {},
        [](std::string& out, std::size_t, const Diagnostic& d) {
          out += d.artifact;
          out += ": ";
          out += severityName(d.severity);
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
        },
        errors + " error(s), " + warnings + " warning(s), " + infos +
            " info(s)\n");
  }
  if (format == ReportFormat::kJson) {
    return renderChunked(
        diags, "{\n  \"diagnostics\": [",
        [](std::string& out, std::size_t i, const Diagnostic& d) {
          out += separator(i);
          out += "    {\"code\": ";
          obs::appendJsonString(out, d.code);
          out += ", \"severity\": ";
          obs::appendJsonString(out, severityName(d.severity));
          out += ", \"artifact\": ";
          obs::appendJsonString(out, d.artifact);
          out += ", \"location\": ";
          obs::appendJsonString(out, d.location);
          out += ", \"message\": ";
          obs::appendJsonString(out, d.message);
          out += ", \"hint\": ";
          obs::appendJsonString(out, d.hint);
          out += '}';
        },
        std::string(none ? "],\n" : "\n  ],\n") +
            "  \"summary\": {\"errors\": " + errors +
            ", \"warnings\": " + warnings + ", \"infos\": " + infos +
            "}\n}\n");
  }

  // SARIF.  Rules referenced by this report, indexed in first-appearance
  // order — each result names its rule's index in the rules array.
  std::vector<std::string> rule_order;
  std::map<std::string, std::size_t> rule_index;
  for (const Diagnostic& d : diags) {
    if (rule_index.emplace(d.code, rule_order.size()).second) {
      rule_order.push_back(d.code);
    }
  }
  std::string head =
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
  for (std::size_t r = 0; r < rule_order.size(); ++r) {
    const RuleInfo* info = findRule(rule_order[r]);
    head += separator(r);
    head += "            {\"id\": ";
    obs::appendJsonString(head, rule_order[r]);
    head += ", \"shortDescription\": {\"text\": ";
    obs::appendJsonString(head, info != nullptr ? info->summary
                                                : "(uncatalogued rule)");
    head += "}}";
  }
  head += rule_order.empty() ? "]\n" : "\n          ]\n";
  head +=
      "        }\n"
      "      },\n"
      "      \"results\": [";
  return renderChunked(
      diags, std::move(head),
      [&rule_index](std::string& out, std::size_t i, const Diagnostic& d) {
        out += separator(i);
        out += "        {\"ruleId\": ";
        obs::appendJsonString(out, d.code);
        out += ", \"ruleIndex\": ";
        out += std::to_string(rule_index.find(d.code)->second);
        out += ", \"level\": ";
        obs::appendJsonString(out, sarifLevel(d.severity));
        out += ",\n         \"message\": {\"text\": \"";
        obs::appendJsonEscaped(out, d.message);
        if (!d.hint.empty()) {
          out += " (hint: ";
          obs::appendJsonEscaped(out, d.hint);
          out += ')';
        }
        out +=
            "\"},\n         \"locations\": [{\"physicalLocation\": "
            "{\"artifactLocation\": {\"uri\": ";
        obs::appendJsonString(out, d.artifact);
        out += "}}";
        if (!d.location.empty()) {
          out += ", \"logicalLocations\": [{\"fullyQualifiedName\": ";
          obs::appendJsonString(out, d.location);
          out += "}]";
        }
        out += "}]}";
      },
      std::string(none ? "]\n" : "\n      ]\n") +
          "    }\n"
          "  ]\n"
          "}\n");
}

}  // namespace locwm::check
