#include "scan/keyring.h"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <utility>

#include "cdfg/error.h"
#include "cdfg/text.h"
#include "check/workspace.h"
#include "core/certificate_io.h"
#include "store/store.h"

namespace locwm::scan {

namespace fs = std::filesystem;

const char* certKindName(CertKind kind) noexcept {
  switch (kind) {
    case CertKind::kSched:
      return "sched";
    case CertKind::kTm:
      return "tm";
    case CertKind::kReg:
      return "reg";
  }
  return "?";
}

wm::ShapeQuery KeyRingEntry::query() const {
  switch (kind) {
    case CertKind::kTm:
      return wm::replayQuery(signature, *tm);
    case CertKind::kReg:
      return wm::replayQuery(signature, *reg);
    case CertKind::kSched:
      break;
  }
  return wm::replayQuery(signature, *sched);
}

namespace {

/// Splits a ring line into tokens: words as text::Fields splits them,
/// except that a word opening with '"' runs to the closing quote (a
/// backslash escapes the next byte inside the quotes) and that a '#'
/// outside quotes starts a comment.  Returns nullopt on an unterminated
/// quote.
std::optional<std::vector<std::string>> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  text::Fields fields(line);
  for (std::string_view word; fields >> word;) {
    if (word.front() != '"') {
      const std::size_t hash = word.find('#');
      if (hash != 0) {
        tokens.emplace_back(word.substr(0, hash));
      }
      if (hash != std::string_view::npos) {
        break;
      }
      continue;
    }
    std::string token;
    std::size_t i = static_cast<std::size_t>(word.data() - line.data()) + 1;
    for (;; ++i) {
      if (i >= line.size()) {
        return std::nullopt;
      }
      if (line[i] == '"') {
        break;
      }
      if (line[i] == '\\' && i + 1 < line.size()) {
        ++i;
      }
      token.push_back(line[i]);
    }
    tokens.push_back(std::move(token));
    fields = text::Fields(line.substr(i + 1));
  }
  return tokens;
}

/// Quotes a token for toText() when it is empty or contains whitespace, a
/// quote, a backslash or a '#' (which would read back as a comment).
std::string quoteToken(const std::string& token) {
  const bool needs =
      token.empty() || std::any_of(token.begin(), token.end(), text::isSpace) ||
      token.find_first_of("\"#\\") != std::string::npos;
  if (!needs) {
    return token;
  }
  std::string out = "\"";
  for (const char c : token) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

KeyRingEntry loadEntry(crypto::AuthorSignature signature,
                       std::string cert_path, const std::string& resolved) {
  const std::optional<std::string> file = store::readFile(resolved);
  if (!file) {
    throw Error(resolved + ": cannot open certificate");
  }
  const std::string& text = *file;
  KeyRingEntry entry;
  entry.signature = std::move(signature);
  entry.cert_path = std::move(cert_path);
  switch (check::sniffArtifact(text).kind) {
    case check::ArtifactKind::kCertSched:
      entry.kind = CertKind::kSched;
      entry.sched = wm::parseSchedCertificate(
          text, wm::CertValidation::kStrict, resolved);
      break;
    case check::ArtifactKind::kCertTm:
      entry.kind = CertKind::kTm;
      entry.tm =
          wm::parseTmCertificate(text, wm::CertValidation::kStrict, resolved);
      break;
    case check::ArtifactKind::kCertReg:
      entry.kind = CertKind::kReg;
      entry.reg =
          wm::parseRegCertificate(text, wm::CertValidation::kStrict, resolved);
      break;
    default:
      throw ParseError(resolved + ": not a locwm-cert v1 artifact");
  }
  return entry;
}

}  // namespace

KeyRing KeyRing::fromFile(const std::string& path) {
  const std::optional<std::string> text = store::readFile(path);
  if (!text) {
    throw Error(path + ": cannot open key ring");
  }
  return fromText(*text, path, fs::path(path).parent_path().string());
}

KeyRing KeyRing::fromText(const std::string& text, const std::string& name,
                          const std::string& base_dir) {
  text::LineReader lines(text);
  bool have_header = false;
  KeyRing ring;
  const auto fail = [&](const std::string& why) -> void {
    throw ParseError(name + ": key-ring parse error at line " +
                     std::to_string(lines.lineno()) + ": " + why);
  };
  for (std::string_view line; lines.next(line);) {
    const std::optional<std::vector<std::string>> tokens = tokenize(line);
    if (!tokens.has_value()) {
      fail("unterminated quote");
    }
    if (tokens->empty()) {
      continue;
    }
    if (!have_header) {
      if (tokens->size() != 2 || (*tokens)[0] != "locwm-keyring" ||
          (*tokens)[1] != "v1") {
        fail("missing 'locwm-keyring v1' header");
      }
      have_header = true;
      continue;
    }
    if ((*tokens)[0] != "key") {
      fail("unknown directive '" + (*tokens)[0] + "'");
    }
    if (tokens->size() != 4) {
      fail("'key' needs <identity> <nonce> <cert-path>");
    }
    crypto::AuthorSignature signature;
    signature.identity = (*tokens)[1];
    signature.nonce = (*tokens)[2];
    const std::string& cert_path = (*tokens)[3];
    const fs::path rel(cert_path);
    const std::string resolved =
        (rel.is_absolute() || base_dir.empty())
            ? cert_path
            : (fs::path(base_dir) / rel).string();
    ring.entries_.push_back(
        loadEntry(std::move(signature), cert_path, resolved));
  }
  if (!have_header) {
    throw ParseError(name + ": key-ring parse error: empty input");
  }
  return ring;
}

void KeyRing::add(crypto::AuthorSignature signature, std::string cert_path,
                  wm::WatermarkCertificate cert) {
  KeyRingEntry entry;
  entry.signature = std::move(signature);
  entry.cert_path = std::move(cert_path);
  entry.kind = CertKind::kSched;
  entry.sched = std::move(cert);
  entries_.push_back(std::move(entry));
}

void KeyRing::add(crypto::AuthorSignature signature, std::string cert_path,
                  wm::TmCertificate cert) {
  KeyRingEntry entry;
  entry.signature = std::move(signature);
  entry.cert_path = std::move(cert_path);
  entry.kind = CertKind::kTm;
  entry.tm = std::move(cert);
  entries_.push_back(std::move(entry));
}

void KeyRing::add(crypto::AuthorSignature signature, std::string cert_path,
                  wm::RegCertificate cert) {
  KeyRingEntry entry;
  entry.signature = std::move(signature);
  entry.cert_path = std::move(cert_path);
  entry.kind = CertKind::kReg;
  entry.reg = std::move(cert);
  entries_.push_back(std::move(entry));
}

std::string KeyRing::toText() const {
  std::string out = "locwm-keyring v1\n";
  for (const KeyRingEntry& entry : entries_) {
    out += "key " + quoteToken(entry.signature.identity) + ' ' +
           quoteToken(entry.signature.nonce) + ' ' +
           quoteToken(entry.cert_path) + '\n';
  }
  return out;
}

std::uint32_t KeyRing::maxRadius() const noexcept {
  std::uint32_t radius = 0;
  for (const KeyRingEntry& entry : entries_) {
    radius = std::max(radius, entry.query().params.max_distance);
  }
  return radius;
}

}  // namespace locwm::scan
