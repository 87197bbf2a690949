// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used to digest an author's free-form signature text into the fixed-size
// key material that seeds the RC4 bitstream generator.  The one-way
// property of the hash + cipher chain is what prevents an adversary from
// inverting the bitstream to forge a signature for an existing solution
// (paper §IV-A, "third" property).  It also digests every artifact and
// cache entry `locwm lint --project` and `locwm scan` read, so on x86 CPUs
// with the SHA extensions the compression runs on them.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace locwm::crypto {

/// A 256-bit digest.
using Sha256Digest = std::array<std::uint8_t, 32>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorbs `data`.  May be called repeatedly.
  void update(std::span<const std::uint8_t> data) noexcept;
  void update(std::string_view text) noexcept;

  /// Finalizes and returns the digest.  The object must not be updated
  /// afterwards (create a new one instead).
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// One-shot convenience.
  [[nodiscard]] static Sha256Digest hash(std::string_view text) noexcept;

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into the state.
  void compress(const std::uint8_t* data, std::size_t blocks) noexcept;
  void processBlock(const std::uint8_t* block) noexcept;  ///< portable

  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t bit_length_ = 0;
  std::size_t buffered_ = 0;
};

/// Lowercase hex rendering of a digest.
[[nodiscard]] std::string toHex(const Sha256Digest& digest);

/// Lowercase hex SHA-256 of `text`: the one content digest of artifacts,
/// certificates and cache entries.
[[nodiscard]] std::string sha256Hex(std::string_view text);

namespace detail {
/// Tests only: false makes Sha256 use its portable rounds even where the
/// x86 SHA extensions exist, so both paths are pinned to the same digests.
void useShaExtensions(bool enabled) noexcept;
}  // namespace detail

}  // namespace locwm::crypto
