#include "regbind/binding_io.h"

#include <iterator>
#include <sstream>

#include "cdfg/error.h"
#include "cdfg/text.h"
#include "obs/obs.h"

namespace locwm::regbind {

void printBinding(std::ostream& os, const LifetimeTable& table,
                  const Binding& binding) {
  os << "registers " << binding.register_count << '\n';
  for (std::size_t i = 0; i < table.values.size(); ++i) {
    os << table.values[i].producer.value() << ' ' << binding.reg_of[i]
       << '\n';
  }
}

std::string bindingToString(const LifetimeTable& table,
                            const Binding& binding) {
  std::ostringstream os;
  printBinding(os, table, binding);
  return os.str();
}

bool BindingReader::next(BindingEntry& entry) {
  std::string_view line;
  while (lines_.next(line)) {
    text::Fields ls(text::stripComment(line));
    std::string_view first;
    if (!(ls >> first)) {
      continue;  // blank/comment
    }
    if (!have_header_) {
      if (first != "registers" || !(ls >> register_count_)) {
        fail("missing 'registers N' header");
      }
      have_header_ = true;
      continue;
    }
    // Read as words so that the messages can quote them.
    if (!text::wholeNumber(first, entry.node)) {
      fail("malformed entry '" + std::string(first) + "'");
    }
    std::string_view reg;
    if (!(ls >> reg)) {
      fail("entry for node " + std::to_string(entry.node) +
           " lacks a register");
    }
    if (!text::wholeNumber(reg, entry.reg)) {
      fail("malformed register '" + std::string(reg) + "'");
    }
    return true;
  }
  if (!have_header_) {
    throw ParseError(where_ +
                     "binding parse error: missing 'registers N' header");
  }
  return false;
}

void BindingReader::fail(const std::string& why) const {
  throw ParseError(where_ + "binding parse error at line " +
                   std::to_string(lineno()) + ": " + why);
}

namespace {

Binding parseBindingImpl(std::string_view text, const LifetimeTable& table,
                         std::vector<BindingParseIssue>* issues,
                         const std::string& source = {}) {
  LOCWM_OBS_SPAN("regbind.parse");
  Binding binding;
  binding.reg_of.assign(table.values.size(), 0);
  std::vector<bool> assigned(table.values.size(), false);
  BindingReader reader(text, source);
  const auto reject = [&](const std::string& why) {
    if (!issues) {
      reader.fail(why);
    }
    issues->push_back({reader.lineno(), why, source});
  };
  BindingEntry e;
  while (reader.next(e)) {
    if (e.node >= table.index_of.size() ||
        table.index_of[e.node] == LifetimeTable::npos) {
      reject("node " + std::to_string(e.node) + " produces no register value");
      continue;
    }
    if (issues && e.reg >= reader.registerCount()) {
      reject("register " + std::to_string(e.reg) + " of node " +
             std::to_string(e.node) + " is outside the declared count " +
             std::to_string(reader.registerCount()));
      continue;
    }
    binding.reg_of[table.index_of[e.node]] = e.reg;
    assigned[table.index_of[e.node]] = true;
  }
  binding.register_count = reader.registerCount();
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

}  // namespace

Binding parseBinding(std::istream& is, const LifetimeTable& table) {
  const std::string text{std::istreambuf_iterator<char>(is),
                         std::istreambuf_iterator<char>()};
  return parseBindingImpl(text, table, nullptr);
}

Binding parseBindingString(std::string_view text, const LifetimeTable& table) {
  return parseBindingImpl(text, table, nullptr);
}

Binding parseBindingString(std::string_view text, const LifetimeTable& table,
                           std::vector<BindingParseIssue>& issues,
                           const std::string& source) {
  return parseBindingImpl(text, table, &issues, source);
}

}  // namespace locwm::regbind
