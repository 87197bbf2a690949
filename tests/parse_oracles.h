// The artifact readers as first written — one std::istringstream per
// line — kept as differential oracles for the string_view cursor
// (cdfg/text.h) that the library's parsers now share.  Each function is
// the old implementation with only its name and namespace changed, plus
// the rules the library has changed since, each selectable so the tests
// can show the old and new rule differ only where intended: how every
// numeric field reads its word (NumberRule), schedule lines that open
// with a non-number (ScheduleLine) and whether a cover line's syntax is
// checked before its context (CoverOrder).  The certificate reader also
// drops one trailing '\r' per line and skips whole-line '#' comments, as
// the library's does.  Tests only; test_parse_oracle.cpp compares every
// parser with its oracle on seeded mutants of real artifacts (Mutator),
// and test_check.cpp lints the same mutants in both lint modes.
#pragma once

#include <array>
#include <cctype>
#include <cstdint>
#include <exception>
#include <istream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "cdfg/prng.h"
#include "cdfg/text.h"
#include "core/certificate_io.h"
#include "regbind/binding_io.h"
#include "scan/fingerprint.h"
#include "sched/schedule_io.h"
#include "tm/cover.h"
#include "tm/library_io.h"

namespace locwm::oracle {

/// How a numeric field reads its word.  kOld is the rule each field was
/// first read by: `>>` extraction for most, so "-4294967295" wraps to 1,
/// "+1" is 1 and "1abc" reads 1 and leaves "abc" for the next field; the
/// binding node and both sides of `<a>:<b>` pairs used std::stoul and a
/// 32-bit cast, so "4294967296" and "0abc" both read 0.  kWholeWord is
/// the library's one rule: the field's word, whole, is decimal digits that
/// fit the field (wholeWord), and any other word fails the field.
enum class NumberRule : std::uint8_t { kOld, kWholeWord };

/// The whole-word rule: `word` starts with a digit and extracts whole as
/// a field of type T.
template <typename T>
bool wholeWord(const std::string& word, T& value) {
  std::istringstream ns(word);
  return !word.empty() && std::isdigit(static_cast<unsigned char>(word[0])) &&
         (ns >> value) && ns.peek() == std::char_traits<char>::eof();
}

/// Extracts the next field of `ls` into `value` by `rule`; a failure
/// fails the stream, as `>>` does.
template <typename T>
bool readNumber(std::istream& ls, T& value, NumberRule rule) {
  if (rule == NumberRule::kOld) {
    return static_cast<bool>(ls >> value);
  }
  std::string word;
  T v{};
  if (!(ls >> word) || !wholeWord(word, v)) {
    ls.setstate(std::ios::failbit);
    return false;
  }
  value = v;
  return true;
}

// --- Design (cdfg/io) ----------------------------------------------------

inline cdfg::Cdfg parseDesign(std::istream& is,
                              std::vector<cdfg::ParseIssue>* issues,
                              const std::string& source = {},
                              NumberRule numbers = NumberRule::kWholeWord) {
  using namespace cdfg;
  Cdfg g;
  std::string line;
  std::size_t lineno = 0;
  bool sawHeader = false;
  const std::string where = source.empty() ? "" : source + ": ";
  auto fail = [&](const std::string& why) -> void {
    throw ParseError(where + "cdfg parse error at line " +
                     std::to_string(lineno) + ": " + why);
  };
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) {
      continue;  // blank
    }
    if (word == "cdfg") {
      std::string version;
      if (!(ls >> version) || version != "v1") {
        fail("unsupported version");
      }
      sawHeader = true;
    } else if (word == "node") {
      if (!sawHeader) {
        fail("missing 'cdfg v1' header");
      }
      std::uint32_t index = 0;
      std::string op;
      std::string label;
      if (!readNumber(ls, index, numbers) || !(ls >> op)) {
        fail("malformed node line");
      }
      ls >> label;  // optional
      if (index != g.nodeCount()) {
        fail("node indices must be dense and ascending");
      }
      const auto kind = opFromName(op);
      if (!kind) {
        fail("unknown operation '" + op + "'");
      }
      g.addNode(*kind, label);
    } else if (word == "edge") {
      if (!sawHeader) {
        fail("missing 'cdfg v1' header");
      }
      std::uint32_t src = 0;
      std::uint32_t dst = 0;
      std::string kindName;
      if (!readNumber(ls, src, numbers) || !readNumber(ls, dst, numbers) ||
          !(ls >> kindName)) {
        fail("malformed edge line");
      }
      EdgeKind kind = EdgeKind::kData;
      if (kindName == "data") {
        kind = EdgeKind::kData;
      } else if (kindName == "control") {
        kind = EdgeKind::kControl;
      } else if (kindName == "temporal") {
        kind = EdgeKind::kTemporal;
      } else {
        fail("unknown edge kind '" + kindName + "'");
      }
      if (src >= g.nodeCount() || dst >= g.nodeCount()) {
        if (!issues) {
          fail("edge references undeclared node");
        }
        issues->push_back(
            {ParseIssue::Kind::kDanglingEdge, lineno, src, dst, kind,
             source});
        continue;
      }
      if (issues && src == dst) {
        issues->push_back(
            {ParseIssue::Kind::kSelfEdge, lineno, src, dst, kind, source});
        continue;
      }
      if (issues && kind == EdgeKind::kTemporal &&
          g.hasEdge(NodeId(src), NodeId(dst), EdgeKind::kTemporal)) {
        issues->push_back({ParseIssue::Kind::kDuplicateTemporal, lineno,
                           src, dst, kind, source});
        continue;
      }
      g.addEdge(NodeId(src), NodeId(dst), kind);
    } else {
      fail("unknown directive '" + word + "'");
    }
  }
  if (!sawHeader) {
    throw ParseError(where + "cdfg parse error: empty input");
  }
  if (!issues) {
    g.checkAcyclic();
  } else {
    try {
      g.checkAcyclic();
    } catch (const GraphError&) {
      issues->push_back(
          {ParseIssue::Kind::kCycle, 0, 0, 0, EdgeKind::kData, source});
    }
  }
  return g;
}

// --- Schedule (sched/schedule_io) ------------------------------------------

/// What the schedule oracle does with a non-blank line whose first word is
/// not a number ("abc 5").  kSkip is the old rule: such a line reads as
/// blank.  kReject is the library's: "malformed entry '<word>'".
enum class ScheduleLine : std::uint8_t { kSkip, kReject };

inline sched::Schedule parseSchedule(
    std::istream& is, std::size_t nodeCount,
    std::vector<sched::ScheduleParseIssue>* issues,
    const std::string& source = {},
    ScheduleLine non_numeric = ScheduleLine::kSkip,
    NumberRule numbers = NumberRule::kWholeWord) {
  using namespace sched;
  Schedule s(nodeCount);
  std::string line;
  std::size_t lineno = 0;
  const std::string where = source.empty() ? "" : source + ": ";
  const auto fail = [&](const std::string& why) {
    throw ParseError(where + "schedule parse error at line " +
                     std::to_string(lineno) + ": " + why);
  };
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::uint32_t node = 0;
    std::uint32_t step = 0;
    // The library names the word that is no number, so it reads words.
    if (numbers == NumberRule::kWholeWord) {
      std::string node_word;
      std::string step_word;
      if (!(ls >> node_word)) {
        continue;  // blank/comment line
      }
      if (!wholeWord(node_word, node)) {
        fail("malformed entry '" + node_word + "'");
      }
      if (!(ls >> step_word)) {
        fail("missing step");
      }
      if (!wholeWord(step_word, step)) {
        fail("malformed entry '" + step_word + "'");
      }
    } else {
      if (!(ls >> node)) {
        std::istringstream ws(line);
        std::string word;
        if (non_numeric == ScheduleLine::kSkip || !(ws >> word)) {
          continue;  // blank/comment line
        }
        fail("malformed entry '" + word + "'");
      }
      if (!(ls >> step)) {
        fail("missing step");
      }
    }
    std::string trailing;
    if (ls >> trailing) {
      fail("trailing tokens");
    }
    if (node >= nodeCount) {
      if (!issues) {
        fail("node " + std::to_string(node) + " out of range");
      }
      issues->push_back({lineno, node, step, source});
      continue;
    }
    s.set(cdfg::NodeId(node), step);
  }
  return s;
}

// --- Binding (regbind/binding_io) --------------------------------------------

inline regbind::Binding parseBinding(
    std::istream& is, const regbind::LifetimeTable& table,
    std::vector<regbind::BindingParseIssue>* issues,
    const std::string& source = {},
    NumberRule numbers = NumberRule::kWholeWord) {
  using namespace regbind;
  Binding binding;
  binding.reg_of.assign(table.values.size(), 0);
  std::vector<bool> assigned(table.values.size(), false);
  std::string line;
  std::size_t lineno = 0;
  bool have_header = false;
  const std::string where = source.empty() ? "" : source + ": ";
  const auto fail = [&](const std::string& why) {
    throw ParseError(where + "binding parse error at line " +
                     std::to_string(lineno) + ": " + why);
  };
  const auto reject = [&](const std::string& why) {
    if (!issues) {
      fail(why);
    }
    issues->push_back({lineno, why, source});
  };
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first)) {
      continue;  // blank/comment
    }
    if (!have_header) {
      if (first != "registers" ||
          !readNumber(ls, binding.register_count, numbers)) {
        fail("missing 'registers N' header");
      }
      have_header = true;
      continue;
    }
    std::uint32_t node = 0;
    std::uint32_t reg = 0;
    if (numbers == NumberRule::kOld) {
      try {
        node = static_cast<std::uint32_t>(std::stoul(first));
      } catch (const std::exception&) {
        fail("malformed entry '" + first + "'");
      }
    } else if (!wholeWord(first, node)) {
      fail("malformed entry '" + first + "'");
    }
    if (numbers == NumberRule::kOld) {
      if (!(ls >> reg)) {
        fail("entry for node " + std::to_string(node) + " lacks a register");
      }
    } else {
      std::string reg_word;
      if (!(ls >> reg_word)) {
        fail("entry for node " + std::to_string(node) + " lacks a register");
      }
      if (!wholeWord(reg_word, reg)) {
        fail("malformed register '" + reg_word + "'");
      }
    }
    if (node >= table.index_of.size() ||
        table.index_of[node] == LifetimeTable::npos) {
      reject("node " + std::to_string(node) + " produces no register value");
      continue;
    }
    if (issues && reg >= binding.register_count) {
      reject("register " + std::to_string(reg) + " of node " +
             std::to_string(node) + " is outside the declared count " +
             std::to_string(binding.register_count));
      continue;
    }
    binding.reg_of[table.index_of[node]] = reg;
    assigned[table.index_of[node]] = true;
  }
  if (!have_header) {
    throw ParseError(where +
                     "binding parse error: missing 'registers N' header");
  }
  if (issues) {
    for (std::size_t i = 0; i < assigned.size(); ++i) {
      if (!assigned[i]) {
        issues->push_back(
            {0,
             "value of node " +
                 std::to_string(table.values[i].producer.value()) +
                 " has no register assignment",
             source});
      }
    }
  }
  return binding;
}

// --- Certificates (core/certificate_io) ------------------------------------

struct CertReader {
  std::istream& is;
  NumberRule numbers;
  std::size_t lineno = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("certificate parse error at line " +
                     std::to_string(lineno) + ": " + why);
  }

  /// Next non-empty, non-comment line; nullopt at end of stream.
  std::optional<std::string> next() {
    std::string line;
    while (std::getline(is, line)) {
      ++lineno;
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      const std::size_t first = line.find_first_not_of(" \t\n\v\f\r");
      if (!line.empty() &&
          (first == std::string::npos || line[first] != '#')) {
        return line;
      }
    }
    return std::nullopt;
  }
};

inline std::string parseCertHeader(CertReader& r) {
  const auto line = r.next();
  if (!line) {
    throw ParseError("certificate parse error: empty input");
  }
  std::istringstream ls(*line);
  std::string magic;
  std::string version;
  std::string kind;
  if (!(ls >> magic >> version >> kind) || magic != "locwm-cert" ||
      version != "v1" ||
      (kind != "sched" && kind != "tm" && kind != "reg")) {
    r.fail("expected 'locwm-cert v1 sched|tm|reg' header");
  }
  return kind;
}

inline cdfg::Cdfg parseCertShape(CertReader& r) {
  std::string body;
  for (;;) {
    const auto line = r.next();
    if (!line) {
      r.fail("unterminated shape block");
    }
    if (*line == "shape-end") {
      break;
    }
    body += *line;
    body += '\n';
  }
  std::istringstream bs(body);
  return parseDesign(bs, nullptr, {}, r.numbers);
}

inline void parseCertParams(CertReader& r, std::istream& ls,
                            wm::LocalityParams& p) {
  if (!readNumber(ls, p.max_distance, r.numbers) ||
      !readNumber(ls, p.exclude_prob_256, r.numbers) ||
      !readNumber(ls, p.min_size, r.numbers)) {
    r.fail("malformed params");
  }
}

inline wm::WatermarkCertificate parseSchedCertImpl(
    std::istream& is, wm::CertValidation validation, NumberRule numbers) {
  using namespace wm;
  CertReader r{is, numbers};
  if (parseCertHeader(r) != "sched") {
    r.fail("not a scheduling-watermark certificate");
  }
  WatermarkCertificate cert;
  bool have_shape = false;
  for (;;) {
    const auto line = r.next();
    if (!line) {
      break;
    }
    std::istringstream ls(*line);
    std::string word;
    ls >> word;
    if (word == "context") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') {
        rest.erase(rest.begin());
      }
      cert.context = rest;
    } else if (word == "params") {
      parseCertParams(r, ls, cert.locality_params);
    } else if (word == "root-rank") {
      if (!readNumber(ls, cert.root_rank, r.numbers)) {
        r.fail("malformed root-rank");
      }
    } else if (word == "constraint") {
      RankConstraint c;
      if (!readNumber(ls, c.before_rank, r.numbers) ||
          !readNumber(ls, c.after_rank, r.numbers)) {
        r.fail("malformed constraint");
      }
      cert.constraints.push_back(c);
    } else if (word == "shape-begin") {
      cert.shape = parseCertShape(r);
      have_shape = true;
    } else {
      r.fail("unknown directive '" + word + "'");
    }
  }
  if (!have_shape) {
    r.fail("certificate lacks a shape block");
  }
  if (validation == CertValidation::kStrict) {
    for (const RankConstraint& c : cert.constraints) {
      if (c.before_rank >= cert.shape.nodeCount() ||
          c.after_rank >= cert.shape.nodeCount()) {
        r.fail("constraint rank out of shape range");
      }
    }
    if (cert.root_rank >= cert.shape.nodeCount()) {
      r.fail("root-rank out of shape range");
    }
  }
  return cert;
}

inline wm::TmCertificate parseTmCertImpl(std::istream& is,
                                         wm::CertValidation validation,
                                         NumberRule numbers) {
  using namespace wm;
  CertReader r{is, numbers};
  if (parseCertHeader(r) != "tm") {
    r.fail("not a template-watermark certificate");
  }
  TmCertificate cert;
  bool have_shape = false;
  for (;;) {
    const auto line = r.next();
    if (!line) {
      break;
    }
    std::istringstream ls(*line);
    std::string word;
    ls >> word;
    if (word == "context") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') {
        rest.erase(rest.begin());
      }
      cert.context = rest;
    } else if (word == "params") {
      parseCertParams(r, ls, cert.locality_params);
    } else if (word == "whole-design") {
      // The first reader's field was an int; the library's is unsigned.
      int flag = 0;
      std::uint32_t word_flag = 0;
      if (r.numbers == NumberRule::kOld
              ? !(ls >> flag) || (flag != 0 && flag != 1)
              : !readNumber(ls, word_flag, r.numbers) || word_flag > 1) {
        r.fail("malformed whole-design flag");
      }
      cert.whole_design = flag == 1 || word_flag == 1;
    } else if (word == "matching") {
      EnforcedMatching m;
      std::uint32_t tid = 0;
      if (!readNumber(ls, tid, r.numbers)) {
        r.fail("malformed matching");
      }
      m.template_id = TemplateId(tid);
      std::string pair;
      while (ls >> pair) {
        const std::size_t colon = pair.find(':');
        if (colon == std::string::npos) {
          r.fail("malformed matching pair '" + pair + "'");
        }
        if (r.numbers == NumberRule::kWholeWord) {
          std::uint32_t rank = 0;
          std::uint32_t op = 0;
          if (!wholeWord(pair.substr(0, colon), rank) ||
              !wholeWord(pair.substr(colon + 1), op)) {
            r.fail("malformed matching pair '" + pair + "'");
          }
          m.pairs.emplace_back(rank, op);
          continue;
        }
        try {
          const std::uint32_t rank = static_cast<std::uint32_t>(
              std::stoul(pair.substr(0, colon)));
          const std::size_t op = std::stoul(pair.substr(colon + 1));
          m.pairs.emplace_back(rank, op);
        } catch (const std::exception&) {
          r.fail("malformed matching pair '" + pair + "'");
        }
      }
      if (m.pairs.empty()) {
        r.fail("matching without pairs");
      }
      cert.matchings.push_back(std::move(m));
    } else if (word == "shape-begin") {
      cert.shape = parseCertShape(r);
      have_shape = true;
    } else {
      r.fail("unknown directive '" + word + "'");
    }
  }
  if (!have_shape) {
    r.fail("certificate lacks a shape block");
  }
  if (validation == CertValidation::kStrict) {
    for (const EnforcedMatching& m : cert.matchings) {
      for (const auto& [rank, op] : m.pairs) {
        if (rank >= cert.shape.nodeCount()) {
          r.fail("matching rank out of shape range");
        }
      }
    }
  }
  return cert;
}

inline wm::RegCertificate parseRegCertImpl(
    std::istream& is, wm::CertValidation validation, NumberRule numbers) {
  using namespace wm;
  CertReader r{is, numbers};
  if (parseCertHeader(r) != "reg") {
    r.fail("not a register-binding-watermark certificate");
  }
  RegCertificate cert;
  bool have_shape = false;
  for (;;) {
    const auto line = r.next();
    if (!line) {
      break;
    }
    std::istringstream ls(*line);
    std::string word;
    ls >> word;
    if (word == "context") {
      std::string rest;
      std::getline(ls, rest);
      if (!rest.empty() && rest.front() == ' ') {
        rest.erase(rest.begin());
      }
      cert.context = rest;
    } else if (word == "params") {
      parseCertParams(r, ls, cert.locality_params);
    } else if (word == "root-rank") {
      if (!readNumber(ls, cert.root_rank, r.numbers)) {
        r.fail("malformed root-rank");
      }
    } else if (word == "share") {
      RankConstraint c;
      if (!readNumber(ls, c.before_rank, r.numbers) ||
          !readNumber(ls, c.after_rank, r.numbers)) {
        r.fail("malformed share pair");
      }
      cert.pairs.push_back(c);
    } else if (word == "shape-begin") {
      cert.shape = parseCertShape(r);
      have_shape = true;
    } else {
      r.fail("unknown directive '" + word + "'");
    }
  }
  if (!have_shape) {
    r.fail("certificate lacks a shape block");
  }
  if (validation == CertValidation::kStrict) {
    for (const RankConstraint& c : cert.pairs) {
      if (c.before_rank >= cert.shape.nodeCount() ||
          c.after_rank >= cert.shape.nodeCount()) {
        r.fail("share rank out of shape range");
      }
    }
    if (cert.root_rank >= cert.shape.nodeCount()) {
      r.fail("root-rank out of shape range");
    }
  }
  return cert;
}

template <typename F>
inline auto withSource(const std::string& source, F&& parse) {
  try {
    return parse();
  } catch (const ParseError& e) {
    if (source.empty()) {
      throw;
    }
    throw ParseError(source + ": " + e.what());
  }
}

inline wm::WatermarkCertificate parseSchedCertificate(
    std::istream& is, wm::CertValidation validation,
    const std::string& source = {},
    NumberRule numbers = NumberRule::kWholeWord) {
  return withSource(source, [&] {
    return parseSchedCertImpl(is, validation, numbers);
  });
}

inline wm::TmCertificate parseTmCertificate(
    std::istream& is, wm::CertValidation validation,
    const std::string& source = {},
    NumberRule numbers = NumberRule::kWholeWord) {
  return withSource(source, [&] {
    return parseTmCertImpl(is, validation, numbers);
  });
}

inline wm::RegCertificate parseRegCertificate(
    std::istream& is, wm::CertValidation validation,
    const std::string& source = {},
    NumberRule numbers = NumberRule::kWholeWord) {
  return withSource(source, [&] {
    return parseRegCertImpl(is, validation, numbers);
  });
}

// --- Template library and cover (tm/library_io) ------------------------------

[[noreturn]] inline void tmFail(std::size_t lineno, const std::string& why) {
  throw ParseError("template-io parse error at line " +
                   std::to_string(lineno) + ": " + why);
}

inline std::string stripComment(std::string line) {
  const std::size_t hash = line.find('#');
  if (hash != std::string::npos) {
    line.resize(hash);
  }
  return line;
}

inline tm::TemplateLibrary parseLibrary(
    std::istream& is, NumberRule numbers = NumberRule::kWholeWord) {
  using namespace tm;
  TemplateLibrary lib;
  std::string line;
  std::size_t lineno = 0;
  bool header = false;
  std::optional<Template> current;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(stripComment(line));
    std::string word;
    if (!(ls >> word)) {
      continue;
    }
    if (word == "tmlib") {
      std::string version;
      if (!(ls >> version) || version != "v1") {
        tmFail(lineno, "unsupported version");
      }
      header = true;
    } else if (word == "template") {
      if (!header) {
        tmFail(lineno, "missing 'tmlib v1' header");
      }
      if (current) {
        tmFail(lineno, "nested template");
      }
      current.emplace();
      if (!(ls >> current->name)) {
        tmFail(lineno, "template needs a name");
      }
    } else if (word == "op") {
      if (!current) {
        tmFail(lineno, "op outside a template");
      }
      std::size_t index = 0;
      std::string opname;
      if (!readNumber(ls, index, numbers) || !(ls >> opname)) {
        tmFail(lineno, "malformed op line");
      }
      if (index != current->ops.size()) {
        tmFail(lineno, "op indices must be dense and ascending");
      }
      const auto kind = cdfg::opFromName(opname);
      if (!kind) {
        tmFail(lineno, "unknown operation '" + opname + "'");
      }
      TemplateOp op;
      op.kind = *kind;
      std::size_t child = 0;
      if (numbers == NumberRule::kOld) {
        while (ls >> child) {
          op.children.push_back(child);
        }
      } else {
        // Every word after the operation is a child, so one that is no
        // number fails the line rather than ending the list.
        for (std::string child_word; ls >> child_word;) {
          if (!wholeWord(child_word, child)) {
            tmFail(lineno, "malformed child '" + child_word + "'");
          }
          op.children.push_back(child);
        }
      }
      current->ops.push_back(std::move(op));
    } else if (word == "end") {
      if (!current) {
        tmFail(lineno, "'end' outside a template");
      }
      try {
        lib.add(std::move(*current));
      } catch (const Error& e) {
        tmFail(lineno, e.what());
      }
      current.reset();
    } else {
      tmFail(lineno, "unknown directive '" + word + "'");
    }
  }
  if (!header) {
    throw ParseError("template-io parse error: empty input");
  }
  if (current) {
    throw ParseError("template-io parse error: unterminated template");
  }
  return lib;
}

/// When the cover oracle checks the syntax of a `use` line.  kContextFirst
/// is the old rule: the template id is range-checked before the pairs are
/// read, and the first out-of-range pair drops the line unread.
/// kSyntaxFirst is the library's: every pair is read, and a line without
/// pairs fails, before any context check.
enum class CoverOrder : std::uint8_t { kContextFirst, kSyntaxFirst };

inline std::vector<tm::Matching> parseCover(
    std::istream& is, const tm::TemplateLibrary& lib, std::size_t nodeCount,
    std::vector<tm::CoverParseIssue>* issues, const std::string& source = {},
    NumberRule numbers = NumberRule::kWholeWord,
    CoverOrder order = CoverOrder::kContextFirst) {
  using namespace tm;
  std::vector<Matching> cover;
  std::string line;
  std::size_t lineno = 0;
  bool header = false;
  // Semantic rejection: in lenient mode the entry is recorded and dropped;
  // in strict mode it throws like any other parse failure.
  const auto reject = [&](const std::string& why) {
    if (!issues) {
      tmFail(lineno, why);
    }
    issues->push_back({lineno, why, source});
  };
  // Reads one `<node>:<op>` pair by the selected side rule.
  const auto readPair = [&](const std::string& pair, std::uint32_t& node,
                            std::size_t& op) {
    const std::size_t colon = pair.find(':');
    if (colon == std::string::npos) {
      return false;
    }
    if (numbers == NumberRule::kWholeWord) {
      std::uint32_t op32 = 0;
      if (!wholeWord(pair.substr(0, colon), node) ||
          !wholeWord(pair.substr(colon + 1), op32)) {
        return false;
      }
      op = op32;
      return true;
    }
    try {
      node = static_cast<std::uint32_t>(std::stoul(pair.substr(0, colon)));
      op = std::stoul(pair.substr(colon + 1));
      return true;
    } catch (const std::invalid_argument&) {
      return false;
    } catch (const std::out_of_range&) {
      return false;
    }
  };
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(stripComment(line));
    std::string word;
    if (!(ls >> word)) {
      continue;
    }
    if (word == "tmcover") {
      std::string version;
      if (!(ls >> version) || version != "v1") {
        tmFail(lineno, "unsupported version");
      }
      header = true;
    } else if (word == "single") {
      if (!header) {
        tmFail(lineno, "missing header");
      }
      std::uint32_t node = 0;
      if (!readNumber(ls, node, numbers)) {
        tmFail(lineno, "malformed 'single'");
      }
      if (node >= nodeCount) {
        reject("'single' node " + std::to_string(node) +
               " outside the design");
        continue;
      }
      cover.push_back(singletonMatching(cdfg::NodeId(node)));
    } else if (word == "use") {
      if (!header) {
        tmFail(lineno, "missing header");
      }
      std::uint32_t tid = 0;
      if (!readNumber(ls, tid, numbers)) {
        tmFail(lineno, "malformed 'use'");
      }
      std::vector<std::string> pairs;
      for (std::string pair; ls >> pair;) {
        pairs.push_back(pair);
      }
      if (order == CoverOrder::kSyntaxFirst) {
        for (const std::string& pair : pairs) {
          std::uint32_t node = 0;
          std::size_t op = 0;
          if (!readPair(pair, node, op)) {
            tmFail(lineno, "malformed pair '" + pair + "'");
          }
        }
        if (pairs.empty()) {
          tmFail(lineno, "'use' without pairs");
        }
      }
      if (tid >= lib.size()) {
        reject("unknown template id " + std::to_string(tid));
        continue;
      }
      Matching m;
      m.template_id = TemplateId(tid);
      bool dropped = false;
      for (const std::string& pair : pairs) {
        std::uint32_t node = 0;
        std::size_t op = 0;
        if (!readPair(pair, node, op)) {
          tmFail(lineno, "malformed pair '" + pair + "'");
        }
        if (node >= nodeCount || op >= lib.get(m.template_id).size()) {
          reject("pair out of range '" + pair + "'");
          dropped = true;
          break;
        }
        m.pairs.push_back(MatchPair{cdfg::NodeId(node), op});
      }
      if (dropped) {
        continue;
      }
      if (m.pairs.empty()) {
        tmFail(lineno, "'use' without pairs");
      }
      cover.push_back(std::move(m));
    } else {
      tmFail(lineno, "unknown directive '" + word + "'");
    }
  }
  if (!header) {
    throw ParseError("template-io parse error: empty input");
  }
  return cover;
}

// --- Fingerprint-cache index (scan/fingerprint) ------------------------------

inline bool parseHex64(const std::string& token, std::uint64_t& out) {
  if (token.size() != 16) {
    return false;
  }
  std::uint64_t v = 0;
  for (const char c : token) {
    std::uint32_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a') + 10;
    } else {
      return false;
    }
    v = (v << 4) | digit;
  }
  out = v;
  return true;
}

inline std::optional<scan::DesignIndex> parseIndex(
    const std::string& text, NumberRule numbers = NumberRule::kWholeWord) {
  using namespace scan;
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "locwm-scanfp v2") {
    return std::nullopt;
  }
  DesignIndex index;
  bool have_radius = false;
  bool have_design = false;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) {
      return std::nullopt;  // blank lines are not part of the format
    }
    std::string trailing;
    if (word == "radius") {
      if (have_radius || !readNumber(ls, index.radius, numbers) ||
          (ls >> trailing)) {
        return std::nullopt;
      }
      have_radius = true;
    } else if (word == "design") {
      std::string w0;
      std::string w1;
      if (have_design || !(ls >> w0 >> w1) || (ls >> trailing) ||
          !parseHex64(w0, index.design_fp.bits[0]) ||
          !parseHex64(w1, index.design_fp.bits[1])) {
        return std::nullopt;
      }
      have_design = true;
    } else if (word == "root") {
      std::uint32_t id = 0;
      std::uint32_t kind = 0;
      std::string w0;
      std::string w1;
      std::string r0;
      std::string r1;
      KindFingerprint fp;
      KindFingerprint fp1;
      if (!readNumber(ls, id, numbers) || !readNumber(ls, kind, numbers) ||
          !(ls >> w0 >> w1 >> r0 >> r1) || (ls >> trailing) ||
          kind >= cdfg::kOpKindCount || !parseHex64(w0, fp.bits[0]) ||
          !parseHex64(w1, fp.bits[1]) || !parseHex64(r0, fp1.bits[0]) ||
          !parseHex64(r1, fp1.bits[1])) {
        return std::nullopt;
      }
      if (!index.roots.empty() && index.roots.back().value() >= id) {
        return std::nullopt;  // roots must be strictly ascending
      }
      index.roots.push_back(cdfg::NodeId(id));
      index.root_kinds.push_back(static_cast<std::uint8_t>(kind));
      index.root_fps.push_back(fp);
      index.root_fps1.push_back(fp1);
    } else {
      return std::nullopt;
    }
  }
  if (!have_radius || !have_design) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < index.roots.size(); ++i) {
    index.kind_union[index.root_kinds[i]].merge(index.root_fps[i]);
  }
  return index;
}

// --- Mutants -----------------------------------------------------------------

/// Byte flips, truncations, splices of two seeds, token swaps, line drops
/// and duplications, and injected tokens chosen to probe the istream
/// quirks: signs, wrap-around, overflow, numeric prefixes, \r, \v, NUL.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::vector<std::string>& seeds) {
    std::string text = seeds[rng_.below(seeds.size())];
    const std::size_t ops = 1 + rng_.below(3);
    for (std::size_t k = 0; k < ops; ++k) {
      text = apply(text, seeds[rng_.below(seeds.size())]);
    }
    return text;
  }

 private:
  static constexpr std::array<std::string_view, 14> kInjected = {
      "-1", "+7", "4294967296", "12abc", "\r", "\v",
      std::string_view("\0", 1), "-4294967295", "-4294967297",
      "18446744073709551616", "0x1f", "#", "\n", " "};

  std::size_t pos(const std::string& t) { return rng_.below(t.size() + 1); }

  /// [begin, end) of every whitespace-delimited token.
  static std::vector<std::pair<std::size_t, std::size_t>> tokens(
      const std::string& t) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    std::size_t i = 0;
    while (i < t.size()) {
      while (i < t.size() && text::isSpace(t[i])) {
        ++i;
      }
      const std::size_t b = i;
      while (i < t.size() && !text::isSpace(t[i])) {
        ++i;
      }
      if (i > b) {
        out.emplace_back(b, i);
      }
    }
    return out;
  }

  std::string apply(std::string t, const std::string& other) {
    const auto toks = tokens(t);
    switch (rng_.below(8)) {
      case 0: {  // byte flip
        if (!t.empty()) {
          t[rng_.below(t.size())] = static_cast<char>(rng_.below(256));
        }
        return t;
      }
      case 1:  // truncation
        return t.substr(0, pos(t));
      case 2:  // splice: a prefix of this seed, a suffix of another
        return t.substr(0, pos(t)) + other.substr(rng_.below(other.size() + 1));
      case 3: {  // token swap
        if (toks.size() < 2) {
          return t;
        }
        auto a = toks[rng_.below(toks.size())];
        auto b = toks[rng_.below(toks.size())];
        if (a.first > b.first) {
          std::swap(a, b);
        }
        if (a.first == b.first) {
          return t;
        }
        return t.substr(0, a.first) + t.substr(b.first, b.second - b.first) +
               t.substr(a.second, b.first - a.second) +
               t.substr(a.first, a.second - a.first) + t.substr(b.second);
      }
      case 4: {  // replace a token with an injected one
        const std::string_view inj = kInjected[rng_.below(kInjected.size())];
        if (toks.empty()) {
          return t + std::string(inj);
        }
        const auto [b, e] = toks[rng_.below(toks.size())];
        return t.substr(0, b) + std::string(inj) + t.substr(e);
      }
      case 5: {  // insert an injected token anywhere
        const std::size_t p = pos(t);
        return t.substr(0, p) +
               std::string(kInjected[rng_.below(kInjected.size())]) +
               t.substr(p);
      }
      case 6: {  // append an injected token to a token ("5" -> "5abc")
        if (toks.empty()) {
          return t;
        }
        const std::size_t e = toks[rng_.below(toks.size())].second;
        const std::string_view inj = rng_.below(2) == 0 ? "abc" : ":3";
        return t.substr(0, e) + std::string(inj) + t.substr(e);
      }
      default: {  // drop or duplicate a line
        const std::size_t p = t.find('\n', pos(t));
        if (p == std::string::npos) {
          return t;
        }
        const std::size_t b = t.rfind('\n', p == 0 ? 0 : p - 1);
        const std::size_t start = b == std::string::npos || b >= p ? 0 : b + 1;
        const std::string line = t.substr(start, p + 1 - start);
        return rng_.below(2) == 0 ? t.erase(start, line.size())
                                  : t.insert(start, line);
      }
    }
  }

  cdfg::SplitMix64 rng_;
};

}  // namespace locwm::oracle
