// Text serialization of register bindings — the artifact a register-
// binding watermark lives in, so it needs a durable interchange form
// (previously private to the CLI).  Format:
//
//   registers <count>
//   <producer-node-index> <register> ...one line per value...
//
// '#' comments allowed.  Values are keyed by their producer node; every
// line must name a node that produces a register value under the lifetime
// table the binding is parsed against.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "cdfg/text.h"
#include "regbind/binding.h"
#include "regbind/lifetime.h"

namespace locwm::regbind {

/// Writes `binding` (parallel to `table`) in the text format.
void printBinding(std::ostream& os, const LifetimeTable& table,
                  const Binding& binding);

/// Renders to a string.
[[nodiscard]] std::string bindingToString(const LifetimeTable& table,
                                          const Binding& binding);

/// One "<node> <register>" entry line.
struct BindingEntry {
  std::uint32_t node = 0;
  std::uint32_t reg = 0;
};

/// The one syntax walk over a binding, shared by the parsers and the
/// workspace analyzer: reads the "registers N" header, then yields the
/// entries in line order.  Throws ParseError on a missing header, an entry
/// whose node is not a word of decimal digits below 2^32 ("malformed
/// entry") or one without a register; whether a node produces a value is
/// the caller's to check.  `text` must outlive the reader; `source`
/// is prefixed to ParseError messages.
class BindingReader {
 public:
  explicit BindingReader(std::string_view text, std::string_view source = {})
      : lines_(text),
        where_(source.empty() ? "" : std::string(source) + ": ") {}

  /// Stores the next entry in `entry`; false at the end of the text.
  bool next(BindingEntry& entry);
  /// The header's register count (once next() has returned).
  [[nodiscard]] std::uint32_t registerCount() const noexcept {
    return register_count_;
  }
  /// 1-based line of the entry next() returned last.
  [[nodiscard]] std::size_t lineno() const noexcept { return lines_.lineno(); }
  /// Throws "<source>: binding parse error at line N: <why>".
  [[noreturn]] void fail(const std::string& why) const;

 private:
  text::LineReader lines_;
  std::string where_;  ///< "<source>: ", or "" for an anonymous text
  bool have_header_ = false;
  std::uint32_t register_count_ = 0;
};

/// One invalid binding entry found while parsing in lenient mode: the
/// entry is dropped and recorded so a linter can report it with a stable
/// code.  line == 0 marks whole-file findings (values never assigned).
struct BindingParseIssue {
  std::size_t line = 0;
  std::string what;
  std::string path;  ///< source artifact ("" when anonymous)
};

/// Parses a binding against `table`.  Throws ParseError on a syntax error
/// (BindingReader) or an entry whose node produces no register value.
/// Entries for values the file does not mention default to register 0.
[[nodiscard]] Binding parseBinding(std::istream& is,
                                   const LifetimeTable& table);

/// Text overload: the implementation the std::istream overload delegates
/// to (it reads the stream into a string first).
[[nodiscard]] Binding parseBindingString(std::string_view text,
                                         const LifetimeTable& table);

/// Lenient overload: invalid entries (non-value nodes, registers at or
/// above the declared count) and values left unassigned are recorded in
/// `issues` instead of throwing.  Syntax errors still throw.
[[nodiscard]] Binding parseBindingString(
    std::string_view text, const LifetimeTable& table,
    std::vector<BindingParseIssue>& issues, const std::string& source = {});

}  // namespace locwm::regbind
