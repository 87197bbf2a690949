// Key rings — the certificate collection a corpus scan searches for.
//
// A ring names, per entry, the author signature a certificate was embedded
// under and the certificate file itself; the scanner screens and replays
// every (design, entry) pair.  On-disk format (line oriented, read
// through cdfg/text.h; '#' comments outside quotes):
//
//   locwm-keyring v1
//   key <identity> <nonce> <cert-path>
//
// Tokens may be double-quoted to carry whitespace or '#' ("ACME #1"); a
// backslash escapes the next character inside quotes.  Certificate paths are
// resolved relative to the ring file's directory, so a ring travels with
// its certificates.  All three certificate kinds (sched/tm/reg) are
// accepted; the kind is sniffed from the certificate header.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/reg_wm.h"
#include "core/sched_wm.h"
#include "core/tm_wm.h"
#include "crypto/bitstream.h"

namespace locwm::scan {

enum class CertKind : std::uint8_t { kSched, kTm, kReg };

/// Stable mnemonic ("sched", "tm", "reg") for JSON rows.
[[nodiscard]] const char* certKindName(CertKind kind) noexcept;

/// One ring entry: a signature plus exactly one parsed certificate
/// (matching `kind`).
struct KeyRingEntry {
  crypto::AuthorSignature signature;
  /// Certificate path as written in the ring (JSON row identity).
  std::string cert_path;
  CertKind kind = CertKind::kSched;
  std::optional<wm::WatermarkCertificate> sched;
  std::optional<wm::TmCertificate> tm;
  std::optional<wm::RegCertificate> reg;

  /// The certificate's detection query, whichever kind holds it.  The
  /// entry must outlive the query.
  [[nodiscard]] wm::ShapeQuery query() const;
};

class KeyRing {
 public:
  /// Loads a ring and every certificate it references.  Throws Error on a
  /// malformed ring or certificate (messages carry the offending path).
  [[nodiscard]] static KeyRing fromFile(const std::string& path);

  /// Parses ring text.  `name` labels errors; `base_dir` anchors relative
  /// certificate paths ("" = current directory).
  [[nodiscard]] static KeyRing fromText(const std::string& text,
                                       const std::string& name,
                                       const std::string& base_dir);

  /// In-memory construction (tests, the shared corpus fixture).
  void add(crypto::AuthorSignature signature, std::string cert_path,
           wm::WatermarkCertificate cert);
  void add(crypto::AuthorSignature signature, std::string cert_path,
           wm::TmCertificate cert);
  void add(crypto::AuthorSignature signature, std::string cert_path,
           wm::RegCertificate cert);

  [[nodiscard]] const std::vector<KeyRingEntry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  /// Serializes the ring (header + one `key` line per entry, tokens quoted
  /// as needed).  Certificate files are NOT written — cert_path is emitted
  /// as stored.
  [[nodiscard]] std::string toText() const;

  /// The widest locality radius in the ring (the sound design-side
  /// fingerprint radius); 0 for an empty ring.
  [[nodiscard]] std::uint32_t maxRadius() const noexcept;

 private:
  std::vector<KeyRingEntry> entries_;
};

}  // namespace locwm::scan
