#include "tm/library_io.h"

#include <sstream>

#include "cdfg/error.h"
#include "cdfg/text.h"
#include "obs/obs.h"
#include "tm/cover.h"

namespace locwm::tm {

namespace {

[[noreturn]] void fail(std::size_t lineno, const std::string& why) {
  throw ParseError("template-io parse error at line " +
                   std::to_string(lineno) + ": " + why);
}

}  // namespace

void printLibrary(std::ostream& os, const TemplateLibrary& lib) {
  os << "tmlib v1\n";
  for (const TemplateId id : lib.allIds()) {
    const Template& t = lib.get(id);
    os << "template " << t.name << '\n';
    for (std::size_t i = 0; i < t.ops.size(); ++i) {
      os << "  op " << i << ' ' << cdfg::opName(t.ops[i].kind);
      for (const std::size_t c : t.ops[i].children) {
        os << ' ' << c;
      }
      os << '\n';
    }
    os << "end\n";
  }
}

std::string libraryToString(const TemplateLibrary& lib) {
  std::ostringstream os;
  printLibrary(os, lib);
  return os.str();
}

TemplateLibrary parseLibraryString(std::string_view text) {
  TemplateLibrary lib;
  text::LineReader lines(text);
  std::string_view line;
  bool header = false;
  std::optional<Template> current;
  while (lines.next(line)) {
    const std::size_t lineno = lines.lineno();
    text::Fields ls(text::stripComment(line));
    std::string_view word;
    if (!(ls >> word)) {
      continue;
    }
    if (word == "tmlib") {
      std::string_view version;
      if (!(ls >> version) || version != "v1") {
        fail(lineno, "unsupported version");
      }
      header = true;
    } else if (word == "template") {
      if (!header) {
        fail(lineno, "missing 'tmlib v1' header");
      }
      if (current) {
        fail(lineno, "nested template");
      }
      current.emplace();
      if (!(ls >> current->name)) {
        fail(lineno, "template needs a name");
      }
    } else if (word == "op") {
      if (!current) {
        fail(lineno, "op outside a template");
      }
      std::size_t index = 0;
      std::string_view opname;
      if (!(ls >> index >> opname)) {
        fail(lineno, "malformed op line");
      }
      if (index != current->ops.size()) {
        fail(lineno, "op indices must be dense and ascending");
      }
      const auto kind = cdfg::opFromName(opname);
      if (!kind) {
        fail(lineno, "unknown operation '" + std::string(opname) + "'");
      }
      TemplateOp op;
      op.kind = *kind;
      for (std::string_view child_word; ls >> child_word;) {
        std::size_t child = 0;
        if (!text::wholeNumber(child_word, child)) {
          fail(lineno, "malformed child '" + std::string(child_word) + "'");
        }
        op.children.push_back(child);
      }
      current->ops.push_back(std::move(op));
    } else if (word == "end") {
      if (!current) {
        fail(lineno, "'end' outside a template");
      }
      try {
        lib.add(std::move(*current));
      } catch (const Error& e) {
        fail(lineno, e.what());
      }
      current.reset();
    } else {
      fail(lineno, "unknown directive '" + std::string(word) + "'");
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

void printCover(std::ostream& os, const std::vector<Matching>& cover) {
  os << "tmcover v1\n";
  for (const Matching& m : cover) {
    if (!m.template_id.isValid()) {
      os << "single " << m.pairs.front().node.value() << '\n';
      continue;
    }
    os << "use " << m.template_id.value();
    for (const MatchPair& p : m.pairs) {
      os << ' ' << p.node.value() << ':' << p.op_index;
    }
    os << '\n';
  }
}

std::string coverToString(const std::vector<Matching>& cover) {
  std::ostringstream os;
  printCover(os, cover);
  return os.str();
}

bool CoverReader::next(CoverEntry& entry) {
  std::string_view line;
  while (lines_.next(line)) {
    text::Fields ls(text::stripComment(line));
    std::string_view word;
    if (!(ls >> word)) {
      continue;
    }
    if (word == "tmcover") {
      std::string_view version;
      if (!(ls >> version) || version != "v1") {
        fail(lineno(), "unsupported version");
      }
      header_ = true;
      continue;
    }
    entry.pairs.clear();
    entry.words.clear();
    if (word == "single") {
      if (!header_) {
        fail(lineno(), "missing header");
      }
      std::uint32_t node = 0;
      if (!(ls >> node)) {
        fail(lineno(), "malformed 'single'");
      }
      entry.single = true;
      entry.pairs.push_back(MatchPair{cdfg::NodeId(node), 0});
      return true;
    }
    if (word != "use") {
      fail(lineno(), "unknown directive '" + std::string(word) + "'");
    }
    if (!header_) {
      fail(lineno(), "missing header");
    }
    entry.single = false;
    if (!(ls >> entry.template_id)) {
      fail(lineno(), "malformed 'use'");
    }
    std::string_view pair;
    while (ls >> pair) {
      std::uint32_t node = 0;
      std::uint32_t op = 0;
      if (!text::numberPair(pair, node, op)) {
        fail(lineno(), "malformed pair '" + std::string(pair) + "'");
      }
      entry.pairs.push_back(MatchPair{cdfg::NodeId(node), op});
      entry.words.push_back(pair);
    }
    if (entry.pairs.empty()) {
      fail(lineno(), "'use' without pairs");
    }
    return true;
  }
  if (!header_) {
    throw ParseError("template-io parse error: empty input");
  }
  return false;
}

namespace {

std::vector<Matching> parseCoverImpl(std::string_view text,
                                     const TemplateLibrary& lib,
                                     std::size_t nodeCount,
                                     std::vector<CoverParseIssue>* issues,
                                     const std::string& source = {}) {
  LOCWM_OBS_SPAN("tm.cover.parse");
  std::vector<Matching> cover;
  CoverReader reader(text);
  // Semantic rejection: in lenient mode the entry is recorded and dropped;
  // in strict mode it throws like any other parse failure.
  const auto reject = [&](const std::string& why) {
    if (!issues) {
      fail(reader.lineno(), why);
    }
    issues->push_back({reader.lineno(), why, source});
  };
  CoverEntry e;
  while (reader.next(e)) {
    if (e.single) {
      const cdfg::NodeId node = e.pairs.front().node;
      if (node.value() >= nodeCount) {
        reject("'single' node " + std::to_string(node.value()) +
               " outside the design");
        continue;
      }
      cover.push_back(singletonMatching(node));
      continue;
    }
    if (e.template_id >= lib.size()) {
      reject("unknown template id " + std::to_string(e.template_id));
      continue;
    }
    const Template& t = lib.get(TemplateId(e.template_id));
    std::size_t k = 0;
    while (k < e.pairs.size() && e.pairs[k].node.value() < nodeCount &&
           e.pairs[k].op_index < t.size()) {
      ++k;
    }
    if (k < e.pairs.size()) {
      reject("pair out of range '" + std::string(e.words[k]) + "'");
      continue;
    }
    cover.push_back(Matching{TemplateId(e.template_id), e.pairs});
  }
  return cover;
}

}  // namespace

std::vector<Matching> parseCoverString(std::string_view text,
                                       const TemplateLibrary& lib,
                                       std::size_t nodeCount) {
  return parseCoverImpl(text, lib, nodeCount, nullptr);
}

std::vector<Matching> parseCoverString(std::string_view text,
                                       const TemplateLibrary& lib,
                                       std::size_t nodeCount,
                                       std::vector<CoverParseIssue>& issues,
                                       const std::string& source) {
  return parseCoverImpl(text, lib, nodeCount, &issues, source);
}

}  // namespace locwm::tm
