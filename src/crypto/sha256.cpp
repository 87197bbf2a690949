#include "crypto/sha256.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace locwm::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

#if defined(__x86_64__)
/// The x86 SHA-extension compression: two rounds per sha256rnds2 on the
/// state held as (ABEF, CDGH), four message words per group.
__attribute__((target("sha,sse4.1"))) void compressShaExt(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL,
                                       0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks != 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // w[g % 4]: message words 4g .. 4g+3
    for (std::size_t g = 0; g < 16; ++g) {
      __m128i& m = w[g % 4];
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      } else {
        m = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(m, w[(g + 1) % 4]),
                          _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4)),
            w[(g + 3) % 4]);
      }
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(&kRoundConstants[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

/// CPUID: SSE4.1 is leaf 1 ECX bit 19, SHA is leaf 7 EBX bit 29.
bool cpuHasShaExt() noexcept {
  unsigned a = 0;
  unsigned b = 0;
  unsigned c = 0;
  unsigned d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0 || (c & (1U << 19)) == 0) {
    return false;
  }
  return __get_cpuid_count(7, 0, &a, &b, &c, &d) != 0 &&
         (b & (1U << 29)) != 0;
}

std::atomic<bool> g_sha_ext{cpuHasShaExt()};
#endif

}  // namespace

namespace detail {
void useShaExtensions(bool enabled) noexcept {
#if defined(__x86_64__)
  g_sha_ext = enabled && cpuHasShaExt();
#else
  static_cast<void>(enabled);
#endif
}
}  // namespace detail

Sha256::Sha256() noexcept
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) {
    return;
  }
  bit_length_ += static_cast<std::uint64_t>(data.size()) * 8;
  // Top up a partial block, then compress whole blocks straight from the
  // input: cache entries are digested on every read.
  std::size_t i = 0;
  if (buffered_ != 0) {
    i = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), i);
    buffered_ += i;
    if (buffered_ < buffer_.size()) {
      return;
    }
    compress(buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = (data.size() - i) / buffer_.size();
  compress(data.data() + i, blocks);
  i += blocks * buffer_.size();
  std::memcpy(buffer_.data(), data.data() + i, data.size() - i);
  buffered_ = data.size() - i;
}

void Sha256::update(std::string_view text) noexcept {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Sha256Digest Sha256::finish() noexcept {
  // Padding: 0x80, zeros, 64-bit big-endian length.
  const std::uint64_t total_bits = bit_length_;
  const std::uint8_t pad_one = 0x80;
  update(std::span<const std::uint8_t>(&pad_one, 1));
  const std::uint8_t zero = 0;
  while (buffered_ != 56) {
    // update() adjusts bit_length_, which no longer matters post-padding.
    update(std::span<const std::uint8_t>(&zero, 1));
  }
  std::array<std::uint8_t, 8> len_bytes{};
  for (int i = 0; i < 8; ++i) {
    len_bytes[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(total_bits >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(len_bytes.data(), len_bytes.size()));

  Sha256Digest digest{};
  for (std::size_t i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::hash(std::string_view text) noexcept {
  Sha256 h;
  h.update(text);
  return h.finish();
}

void Sha256::compress(const std::uint8_t* data, std::size_t blocks) noexcept {
#if defined(__x86_64__)
  if (g_sha_ext.load(std::memory_order_relaxed)) {
    compressShaExt(state_.data(), data, blocks);
    return;
  }
#endif
  for (; blocks != 0; --blocks, data += 64) {
    processBlock(data);
  }
}

void Sha256::processBlock(const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w{};
  for (std::size_t i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];
  std::uint32_t f = state_[5];
  std::uint32_t g = state_[6];
  std::uint32_t h = state_[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

std::string toHex(const Sha256Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xF]);
  }
  return out;
}

std::string sha256Hex(std::string_view text) {
  return toHex(Sha256::hash(text));
}

}  // namespace locwm::crypto
