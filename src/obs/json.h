// Minimal JSON shared by the observability exporters, the bench table
// writers and the formats `locwm` writes and reads back (lint baselines,
// analysis-cache entries).  Only what those need: escaping,
// locale-independent number formatting, and a reader for the subset the
// writers emit.
#pragma once

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

namespace locwm::obs {

/// Appends `text` to `out` as the *contents* of a JSON string (no quotes),
/// escaping the characters RFC 8259 requires.  Runs of bytes that need no
/// escape are appended whole.
inline void appendJsonEscaped(std::string& out, std::string_view text) {
  std::size_t run = 0;  // start of the pending run of unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(text, run, i - run);
    run = i + 1;
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
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(text, run, text.size() - run);
}

/// Appends `text` to `out` as a quoted JSON string.
inline void appendJsonString(std::string& out, std::string_view text) {
  out += '"';
  appendJsonEscaped(out, text);
  out += '"';
}

/// `text` as a quoted JSON string.
inline std::string jsonString(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  appendJsonString(out, text);
  return out;
}

/// A double as a JSON number ("null" for non-finite values, which JSON
/// cannot represent).
inline std::string jsonNumber(double value) {
  if (value != value || value > 1.7976931348623157e308 ||
      value < -1.7976931348623157e308) {
    return "null";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Reads the JSON subset the writers above emit: objects, arrays, strings
/// (`\u` escapes only up to U+00FF, as appendJsonEscaped writes them),
/// unsigned integers up to 2^64 - 1 and booleans.  Anything else throws
/// std::runtime_error saying what was expected.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The next non-blank byte ('\0' at the end), not consumed.
  [[nodiscard]] char peek() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  /// Consumes the next non-blank byte when it is `c`.
  bool consume(char c) {
    if (peek() != c || pos_ == text_.size()) {
      return false;
    }
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) {
        fail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        fail("dangling escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out += esc;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u':
          out += byteEscape();
          break;
        default:
          fail("unknown escape");
      }
    }
  }

  std::uint64_t number() {
    if (!isDigit(peek())) {
      fail("expected number");
    }
    std::uint64_t value = 0;
    while (pos_ < text_.size() && isDigit(text_[pos_])) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_++] - '0');
      if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        fail("number out of range");
      }
      value = value * 10 + digit;
    }
    return value;
  }

  bool boolean() {
    static_cast<void>(peek());  // skip blanks
    for (const bool value : {true, false}) {
      const std::string_view word = value ? "true" : "false";
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return value;
      }
    }
    fail("expected true or false");
  }

 private:
  [[noreturn]] static void fail(const std::string& what) {
    throw std::runtime_error(what);
  }

  static bool isDigit(char c) noexcept { return c >= '0' && c <= '9'; }

  /// The four hex digits of a \u escape, as the byte they encode.
  char byteEscape() {
    if (pos_ + 4 > text_.size()) {
      fail("truncated \\u escape");
    }
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      value <<= 4U;
      if (isDigit(h)) {
        value |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        fail("bad \\u escape");
      }
    }
    if (value > 0xFF) {
      fail("unsupported \\u escape beyond U+00FF");
    }
    return static_cast<char>(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace locwm::obs
