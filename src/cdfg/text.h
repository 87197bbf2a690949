// The one tokenizer every text locwm reads goes through: a line splitter
// and a whitespace-delimited field cursor over std::string_view.  Every
// artifact format, the key ring and the workspace manifest use it.
//
//   * whitespace is the C locale's: ' ', \t, \n, \v, \f, \r; a word runs
//     from the first non-whitespace byte to the next whitespace byte (NUL
//     and bytes >= 0x80 are word bytes);
//   * a number is a whole word of decimal digits that fits its unsigned
//     field (wholeNumber): a sign, any other byte ("12abc", "0x1f") or a
//     value beyond the field's range makes the word no number, so no word
//     stands for another number;
//   * a missing field or a word that is no number fails the cursor, and
//     failure is sticky: every later extraction fails too and leaves its
//     target unchanged;
//   * LineReader splits at '\n': a final line without '\n' counts, a
//     trailing '\n' opens no empty line, and lines are numbered from 1.
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

/// The C locale's whitespace.
constexpr bool isSpace(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// `line` up to its first '#' (the formats' comment marker).
constexpr std::string_view stripComment(std::string_view line) noexcept {
  return line.substr(0, line.find('#'));
}

/// Reads `word` whole as a number of the unsigned type T: decimal digits
/// only, at least one, and a value T can hold.  False, leaving `value`
/// unchanged, for anything else.
template <typename T>
constexpr bool wholeNumber(std::string_view word, T& value) noexcept {
  static_assert(std::is_unsigned_v<T> && !std::is_same_v<T, bool>,
                "a number field is unsigned");
  if (word.empty()) {
    return false;
  }
  T v = 0;
  for (const char c : word) {
    if (c < '0' || c > '9') {
      return false;
    }
    const auto digit = static_cast<T>(c - '0');
    if (v > (std::numeric_limits<T>::max() - digit) / 10U) {
      return false;
    }
    v = static_cast<T>(v * 10U + digit);
  }
  value = v;
  return true;
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

/// Splits text into lines at '\n'.
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

/// Field cursor over one line: `fields >> a >> b` reads the next words
/// into views, strings or numbers, and the cursor converts to false once
/// an extraction has failed.
class Fields {
 public:
  explicit Fields(std::string_view line) noexcept : rest_(line) {}

  explicit operator bool() const noexcept { return ok_; }

  /// The unread remainder of the line, leading whitespace included.
  [[nodiscard]] std::string_view rest() const noexcept { return rest_; }

  Fields& operator>>(std::string_view& word) noexcept {
    if (!ok_) {
      return *this;
    }
    std::size_t begin = 0;
    while (begin < rest_.size() && isSpace(rest_[begin])) {
      ++begin;
    }
    std::size_t end = begin;
    while (end < rest_.size() && !isSpace(rest_[end])) {
      ++end;
    }
    ok_ = end > begin;
    if (ok_) {
      word = rest_.substr(begin, end - begin);
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

  /// The next word as a number (wholeNumber); a word that is none fails.
  template <typename T, typename = std::enable_if_t<std::is_unsigned_v<T> &&
                                                    !std::is_same_v<T, bool>>>
  Fields& operator>>(T& value) noexcept {
    std::string_view word;
    if (*this >> word && !wholeNumber(word, value)) {
      ok_ = false;
    }
    return *this;
  }

 private:
  std::string_view rest_;
  bool ok_ = true;
};

}  // namespace locwm::text
