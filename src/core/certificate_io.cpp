#include "core/certificate_io.h"

#include <algorithm>
#include <sstream>

#include "cdfg/error.h"
#include "cdfg/io.h"
#include "cdfg/text.h"
#include "obs/obs.h"

namespace locwm::wm {

namespace {

void printParams(std::ostream& os, const LocalityParams& p) {
  os << "params " << p.max_distance << ' ' << p.exclude_prob_256 << ' '
     << p.min_size << '\n';
}

void printShape(std::ostream& os, const cdfg::Cdfg& shape) {
  os << "shape-begin\n";
  cdfg::print(os, shape);
  os << "shape-end\n";
}

/// Shared line-oriented reader with context-aware failure messages.
/// Empty lines and whole-line comments (first non-blank byte '#') are
/// skipped but counted; a '#' after other bytes is content (a context may
/// hold one).  One trailing '\r' per line is dropped, so a CRLF
/// certificate reads as its LF original (its shape-end closes the block,
/// its context keeps no '\r').
struct Reader {
  text::LineReader lines;

  [[noreturn]] void fail(const std::string& why) const {
    throw ParseError("certificate parse error at line " +
                     std::to_string(lines.lineno()) + ": " + why);
  }

  /// Next non-empty, non-comment line; false at the end of the text.
  bool next(std::string_view& line) {
    while (lines.next(line)) {
      if (line.ends_with('\r')) {
        line.remove_suffix(1);
      }
      if (line.empty()) {
        continue;
      }
      const auto first = std::find_if_not(line.begin(), line.end(),
                                          text::isSpace);
      if (first == line.end() || *first != '#') {
        return true;
      }
    }
    return false;
  }
};

/// Parses the shared header; returns the kind word ("sched"/"tm"/"reg").
std::string_view parseHeader(Reader& r) {
  std::string_view line;
  if (!r.next(line)) {
    throw ParseError("certificate parse error: empty input");
  }
  text::Fields ls(line);
  std::string_view magic;
  std::string_view version;
  std::string_view kind;
  if (!(ls >> magic >> version >> kind) || magic != "locwm-cert" ||
      version != "v1" ||
      (kind != "sched" && kind != "tm" && kind != "reg")) {
    r.fail("expected 'locwm-cert v1 sched|tm|reg' header");
  }
  return kind;
}

/// Reads the shape block: assumes "shape-begin" was already consumed.
/// The block's non-empty lines form the embedded design text, so its
/// parse errors number lines within the block.
cdfg::Cdfg parseShape(Reader& r) {
  std::string body;
  std::string_view line;
  for (;;) {
    if (!r.next(line)) {
      r.fail("unterminated shape block");
    }
    if (line == "shape-end") {
      break;
    }
    body += line;
    body += '\n';
  }
  return cdfg::parseString(body);
}

/// The text after a `context` directive, less the one separating space.
std::string contextOf(const text::Fields& ls) {
  std::string_view rest = ls.rest();
  if (!rest.empty() && rest.front() == ' ') {
    rest.remove_prefix(1);
  }
  return std::string(rest);
}

/// Reads `params <max_distance> <exclude_prob_256> <min_size>`.
void parseParams(Reader& r, text::Fields& ls, LocalityParams& p) {
  if (!(ls >> p.max_distance >> p.exclude_prob_256 >> p.min_size)) {
    r.fail("malformed params");
  }
}

}  // namespace

void printCertificate(std::ostream& os, const WatermarkCertificate& cert) {
  os << "locwm-cert v1 sched\n";
  os << "context " << cert.context << '\n';
  printParams(os, cert.locality_params);
  os << "root-rank " << cert.root_rank << '\n';
  for (const RankConstraint& c : cert.constraints) {
    os << "constraint " << c.before_rank << ' ' << c.after_rank << '\n';
  }
  printShape(os, cert.shape);
}

void printCertificate(std::ostream& os, const TmCertificate& cert) {
  os << "locwm-cert v1 tm\n";
  os << "context " << cert.context << '\n';
  printParams(os, cert.locality_params);
  os << "whole-design " << (cert.whole_design ? 1 : 0) << '\n';
  for (const EnforcedMatching& m : cert.matchings) {
    os << "matching " << m.template_id.value();
    for (const auto& [rank, op] : m.pairs) {
      os << ' ' << rank << ':' << op;
    }
    os << '\n';
  }
  printShape(os, cert.shape);
}

void printCertificate(std::ostream& os, const RegCertificate& cert) {
  os << "locwm-cert v1 reg\n";
  os << "context " << cert.context << '\n';
  printParams(os, cert.locality_params);
  os << "root-rank " << cert.root_rank << '\n';
  for (const RankConstraint& c : cert.pairs) {
    os << "share " << c.before_rank << ' ' << c.after_rank << '\n';
  }
  printShape(os, cert.shape);
}

std::string certificateToString(const WatermarkCertificate& c) {
  std::ostringstream os;
  printCertificate(os, c);
  return os.str();
}

std::string certificateToString(const TmCertificate& c) {
  std::ostringstream os;
  printCertificate(os, c);
  return os.str();
}

std::string certificateToString(const RegCertificate& c) {
  std::ostringstream os;
  printCertificate(os, c);
  return os.str();
}

namespace {

WatermarkCertificate parseSchedCertImpl(std::string_view text,
                                        CertValidation validation) {
  Reader r{text::LineReader(text)};
  if (parseHeader(r) != "sched") {
    r.fail("not a scheduling-watermark certificate");
  }
  WatermarkCertificate cert;
  bool have_shape = false;
  std::string_view line;
  while (r.next(line)) {
    text::Fields ls(line);
    std::string_view word;
    ls >> word;
    if (word == "context") {
      cert.context = contextOf(ls);
    } else if (word == "params") {
      parseParams(r, ls, cert.locality_params);
    } else if (word == "root-rank") {
      if (!(ls >> cert.root_rank)) {
        r.fail("malformed root-rank");
      }
    } else if (word == "constraint") {
      RankConstraint c;
      if (!(ls >> c.before_rank >> c.after_rank)) {
        r.fail("malformed constraint");
      }
      cert.constraints.push_back(c);
    } else if (word == "shape-begin") {
      cert.shape = parseShape(r);
      have_shape = true;
    } else {
      r.fail("unknown directive '" + std::string(word) + "'");
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

TmCertificate parseTmCertImpl(std::string_view text,
                              CertValidation validation) {
  Reader r{text::LineReader(text)};
  if (parseHeader(r) != "tm") {
    r.fail("not a template-watermark certificate");
  }
  TmCertificate cert;
  bool have_shape = false;
  std::string_view line;
  while (r.next(line)) {
    text::Fields ls(line);
    std::string_view word;
    ls >> word;
    if (word == "context") {
      cert.context = contextOf(ls);
    } else if (word == "params") {
      parseParams(r, ls, cert.locality_params);
    } else if (word == "whole-design") {
      std::uint32_t flag = 0;
      if (!(ls >> flag) || flag > 1) {
        r.fail("malformed whole-design flag");
      }
      cert.whole_design = flag == 1;
    } else if (word == "matching") {
      EnforcedMatching m;
      std::uint32_t tid = 0;
      if (!(ls >> tid)) {
        r.fail("malformed matching");
      }
      m.template_id = TemplateId(tid);
      std::string_view pair;
      while (ls >> pair) {
        std::uint32_t rank = 0;
        std::uint32_t op = 0;
        if (!text::numberPair(pair, rank, op)) {
          r.fail("malformed matching pair '" + std::string(pair) + "'");
        }
        m.pairs.emplace_back(rank, op);
      }
      if (m.pairs.empty()) {
        r.fail("matching without pairs");
      }
      cert.matchings.push_back(std::move(m));
    } else if (word == "shape-begin") {
      cert.shape = parseShape(r);
      have_shape = true;
    } else {
      r.fail("unknown directive '" + std::string(word) + "'");
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

RegCertificate parseRegCertImpl(std::string_view text,
                                CertValidation validation) {
  Reader r{text::LineReader(text)};
  if (parseHeader(r) != "reg") {
    r.fail("not a register-binding-watermark certificate");
  }
  RegCertificate cert;
  bool have_shape = false;
  std::string_view line;
  while (r.next(line)) {
    text::Fields ls(line);
    std::string_view word;
    ls >> word;
    if (word == "context") {
      cert.context = contextOf(ls);
    } else if (word == "params") {
      parseParams(r, ls, cert.locality_params);
    } else if (word == "root-rank") {
      if (!(ls >> cert.root_rank)) {
        r.fail("malformed root-rank");
      }
    } else if (word == "share") {
      RankConstraint c;
      if (!(ls >> c.before_rank >> c.after_rank)) {
        r.fail("malformed share pair");
      }
      cert.pairs.push_back(c);
    } else if (word == "shape-begin") {
      cert.shape = parseShape(r);
      have_shape = true;
    } else {
      r.fail("unknown directive '" + std::string(word) + "'");
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

/// Re-throws a ParseError from `parse()` with the artifact name prefixed,
/// so a thousand-file corpus scan can attribute the failure.
template <typename F>
auto withSource(const std::string& source, F&& parse) {
  LOCWM_OBS_SPAN("core.cert.parse");
  try {
    return parse();
  } catch (const ParseError& e) {
    if (source.empty()) {
      throw;
    }
    throw ParseError(source + ": " + e.what());
  }
}

}  // namespace

WatermarkCertificate parseSchedCertificate(std::string_view text,
                                           CertValidation validation,
                                           const std::string& source) {
  return withSource(source,
                    [&] { return parseSchedCertImpl(text, validation); });
}

TmCertificate parseTmCertificate(std::string_view text,
                                 CertValidation validation,
                                 const std::string& source) {
  return withSource(source, [&] { return parseTmCertImpl(text, validation); });
}

RegCertificate parseRegCertificate(std::string_view text,
                                   CertValidation validation,
                                   const std::string& source) {
  return withSource(source,
                    [&] { return parseRegCertImpl(text, validation); });
}

}  // namespace locwm::wm
