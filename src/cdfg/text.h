// The one tokenizer every artifact parser reads through: a line splitter
// and a whitespace-delimited field cursor over std::string_view.
//
// The formats' observable behaviour — which inputs are accepted, the
// values they yield, the line numbers in error messages — is defined by
// `std::istream >>` extraction (C locale, default flags) over each line,
// and the cursor reproduces that extraction exactly, quirks included
// (tests/parse_oracles.h keeps the istream readers as the reference):
//
//   * whitespace is the C locale's: ' ', \t, \n, \v, \f, \r; a word runs
//     from the first non-whitespace byte to the next whitespace byte (NUL
//     and bytes >= 0x80 are word bytes);
//   * a number is an optional sign followed by the longest run of decimal
//     digits, so "12abc" yields 12 and leaves the word "abc";
//   * unsigned fields accept '-' and wrap modulo 2^N ("-1" reads as the
//     type's maximum), as libstdc++'s num_get does;
//   * a magnitude beyond the type's range, a missing digit, or a field
//     past the end of the line fails, and failure is sticky: every later
//     extraction fails too and leaves its target unchanged;
//   * LineReader numbers lines as repeated std::getline does: a final line
//     without '\n' counts, a trailing '\n' opens no empty line.
//
// No allocation: words are views into the caller's text, which must
// outlive them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace locwm::text {

/// The C locale's whitespace — the bytes `std::istream >>` skips.
constexpr bool isSpace(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// `line` up to its first '#' (the formats' comment marker).
constexpr std::string_view stripComment(std::string_view line) noexcept {
  return line.substr(0, line.find('#'));
}

/// Splits text into lines the way repeated std::getline does.
class LineReader {
 public:
  explicit LineReader(std::string_view text) noexcept : text_(text) {}

  /// Stores the next line, without its '\n', in `line`; false at the end.
  bool next(std::string_view& line) noexcept {
    if (pos_ >= text_.size()) {
      return false;
    }
    const std::size_t eol = text_.find('\n', pos_);
    const std::size_t end = eol == std::string_view::npos ? text_.size() : eol;
    line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
    ++lineno_;
    return true;
  }

  /// 1-based number of the line next() returned last (0 before the first).
  [[nodiscard]] std::size_t lineno() const noexcept { return lineno_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t lineno_ = 0;
};

/// Field cursor over one line: `fields >> a >> b` extracts like an
/// std::istringstream over the line would, and the cursor converts to
/// false once an extraction has failed.
class Fields {
 public:
  explicit Fields(std::string_view line) noexcept : rest_(line) {}

  explicit operator bool() const noexcept { return ok_; }

  /// The unread remainder of the line, leading whitespace included (what
  /// std::getline would return after the last extraction).
  [[nodiscard]] std::string_view rest() const noexcept { return rest_; }

  Fields& operator>>(std::string_view& word) noexcept {
    if (skipSpace()) {
      std::size_t end = 0;
      while (end < rest_.size() && !isSpace(rest_[end])) {
        ++end;
      }
      word = rest_.substr(0, end);
      rest_.remove_prefix(end);
    }
    return *this;
  }

  Fields& operator>>(std::string& word) {
    std::string_view view;
    if (*this >> view) {
      word.assign(view);
    }
    return *this;
  }

  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  Fields& operator>>(T& value) noexcept {
    if (!skipSpace()) {
      return *this;
    }
    using U = std::make_unsigned_t<T>;
    std::size_t i = 0;
    const bool negative = rest_[0] == '-';
    if (negative || rest_[0] == '+') {
      ++i;
    }
    // Largest magnitude the field may carry: an unsigned '-' field wraps,
    // so its magnitude is bounded like a positive one.
    const U limit = negative && std::is_signed_v<T>
                        ? static_cast<U>(std::numeric_limits<T>::max()) + 1U
                        : static_cast<U>(std::numeric_limits<T>::max());
    U magnitude = 0;
    bool digits = false;
    bool overflow = false;
    for (; i < rest_.size() && rest_[i] >= '0' && rest_[i] <= '9'; ++i) {
      digits = true;
      const auto digit = static_cast<U>(rest_[i] - '0');
      if (overflow || magnitude > (limit - digit) / 10U) {
        overflow = true;
      } else {
        magnitude = static_cast<U>(magnitude * 10U + digit);
      }
    }
    rest_.remove_prefix(i);
    if (!digits) {
      value = 0;
      ok_ = false;
    } else if (overflow) {
      value = negative && std::is_signed_v<T> ? std::numeric_limits<T>::min()
                                              : std::numeric_limits<T>::max();
      ok_ = false;
    } else {
      value = static_cast<T>(negative ? static_cast<U>(U{0} - magnitude)
                                      : magnitude);
    }
    return *this;
  }

 private:
  /// Skips leading whitespace; fails the cursor when nothing is left.
  bool skipSpace() noexcept {
    if (!ok_) {
      return false;
    }
    std::size_t i = 0;
    while (i < rest_.size() && isSpace(rest_[i])) {
      ++i;
    }
    rest_.remove_prefix(i);
    ok_ = !rest_.empty();
    return ok_;
  }

  std::string_view rest_;
  bool ok_ = true;
};

/// Reads `word` whole as a 32-bit field of decimal digits: a sign, a
/// numeric prefix ("12abc") or a value beyond 32 bits fails, so no word
/// aliases another number.  The node words of bindings and both sides of
/// the `<a>:<b>` pairs of certificate matchings and covers.
inline bool wholeNumber(std::string_view word, std::uint32_t& value) noexcept {
  std::uint32_t v = 0;
  for (const char c : word) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<std::uint32_t>(c - '0');
    if (v > (std::numeric_limits<std::uint32_t>::max() - digit) / 10U) {
      return false;
    }
    v = v * 10U + digit;
  }
  value = v;
  return !word.empty();
}

/// Splits `word` at its first ':' and reads each side with wholeNumber().
/// False when there is no ':' or a side is not a whole number.
inline bool numberPair(std::string_view word, std::uint32_t& first,
                       std::uint32_t& second) noexcept {
  const std::size_t colon = word.find(':');
  return colon != std::string_view::npos &&
         wholeNumber(word.substr(0, colon), first) &&
         wholeNumber(word.substr(colon + 1), second);
}

}  // namespace locwm::text
