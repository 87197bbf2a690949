// Crypto substrate tests: SHA-256 and RC4 against published vectors, plus
// the determinism/uniformity contracts of the keyed bitstream.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <string_view>

#include "crypto/bitstream.h"
#include "crypto/rc4.h"
#include "crypto/sha256.h"

namespace locwm::crypto {
namespace {

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(toHex(Sha256::hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(toHex(Sha256::hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      toHex(Sha256::hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.update(chunk);
  }
  EXPECT_EQ(toHex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Sha256 h;
  h.update("hello ");
  h.update("world");
  EXPECT_EQ(toHex(h.finish()), toHex(Sha256::hash("hello world")));
  // Chunks that straddle, fill and skip whole 64-byte blocks.
  std::string text(300, '\0');
  for (std::size_t i = 0; i < text.size(); ++i) {
    text[i] = static_cast<char>(i * 7);
  }
  for (const std::size_t chunk : {1UL, 63UL, 64UL, 65UL, 200UL}) {
    Sha256 c;
    for (std::size_t pos = 0; pos < text.size(); pos += chunk) {
      c.update(std::string_view(text).substr(pos, chunk));
    }
    EXPECT_EQ(toHex(c.finish()), toHex(Sha256::hash(text))) << chunk;
  }
}

TEST(Sha256, PortableAndExtensionRoundsAgree) {
  // The x86 SHA-extension path (where the CPU has it) and the portable
  // rounds give the same digests, one block boundary after another.
  std::string text;
  for (std::size_t n = 0; n < 300; ++n) {
    detail::useShaExtensions(false);
    const std::string portable = sha256Hex(text);
    detail::useShaExtensions(true);
    EXPECT_EQ(sha256Hex(text), portable) << n;
    text += static_cast<char>(n * 37 + 11);
  }
  detail::useShaExtensions(false);
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  detail::useShaExtensions(true);
}

TEST(Rc4, ClassicTestVectors) {
  // RFC 6229-adjacent classics.
  {
    const std::array<std::uint8_t, 3> key = {'K', 'e', 'y'};
    Rc4 rc4(key);
    // Keystream for key "Key": eb 9f 77 81 b7 34 ca 72 a7 19 ...
    const std::array<std::uint8_t, 10> expect = {0xEB, 0x9F, 0x77, 0x81, 0xB7,
                                                 0x34, 0xCA, 0x72, 0xA7, 0x19};
    for (const std::uint8_t b : expect) {
      EXPECT_EQ(rc4.nextByte(), b);
    }
  }
  {
    // Encrypting "Plaintext" with key "Key" gives BBF316E8D940AF0AD3.
    const std::array<std::uint8_t, 3> key = {'K', 'e', 'y'};
    Rc4 rc4(key);
    std::array<std::uint8_t, 9> data;
    std::memcpy(data.data(), "Plaintext", 9);
    rc4.crypt(data);
    const std::array<std::uint8_t, 9> expect = {0xBB, 0xF3, 0x16, 0xE8, 0xD9,
                                                0x40, 0xAF, 0x0A, 0xD3};
    EXPECT_EQ(data, expect);
  }
  {
    // Key "Wiki", plaintext "pedia" -> 1021BF0420.
    const std::array<std::uint8_t, 4> key = {'W', 'i', 'k', 'i'};
    Rc4 rc4(key);
    std::array<std::uint8_t, 5> data;
    std::memcpy(data.data(), "pedia", 5);
    rc4.crypt(data);
    const std::array<std::uint8_t, 5> expect = {0x10, 0x21, 0xBF, 0x04, 0x20};
    EXPECT_EQ(data, expect);
  }
}

TEST(Rc4, DropSkipsPrefix) {
  const std::array<std::uint8_t, 3> key = {'K', 'e', 'y'};
  Rc4 plain(key);
  Rc4 dropped(key, 5);
  for (int i = 0; i < 5; ++i) {
    (void)plain.nextByte();
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(plain.nextByte(), dropped.nextByte());
  }
}

TEST(Rc4, RejectsBadKeySizes) {
  EXPECT_THROW(Rc4(std::span<const std::uint8_t>{}), std::invalid_argument);
  const std::vector<std::uint8_t> big(300, 1);
  EXPECT_THROW(Rc4(std::span<const std::uint8_t>(big.data(), big.size())),
               std::invalid_argument);
}

TEST(Bitstream, DeterministicReplay) {
  const AuthorSignature sig{"alice", "design-1"};
  KeyedBitstream a(sig, "ctx");
  KeyedBitstream b(sig, "ctx");
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.nextBit(), b.nextBit());
  }
}

TEST(Bitstream, CopyDrawsWhatAFreshlyKeyedStreamDraws) {
  // Detection keys each carve stream once and carves from copies, so a
  // copy must replay the fresh stream exactly — bits, integers, Bernoulli
  // draws and the consumed-bit count — however many copies are drawn from,
  // in any order, and without disturbing the stream it was copied from.
  const AuthorSignature sig{"alice", "design-1"};
  const KeyedBitstream keyed(sig, "sched-wm/0/carve");
  const auto draws = [](KeyedBitstream bits) {
    std::string out;
    for (int i = 0; i < 300; ++i) {
      out += std::to_string(bits.below(static_cast<std::uint64_t>(i % 13) + 1));
      out += bits.chance(96, 256) ? '+' : '-';
      out += bits.nextBit() ? '1' : '0';
      out += ' ';
    }
    return out + std::to_string(bits.bitsConsumed());
  };
  const std::string fresh = draws(KeyedBitstream(sig, "sched-wm/0/carve"));
  for (int copy = 0; copy < 3; ++copy) {
    KeyedBitstream bits = keyed;
    EXPECT_EQ(draws(bits), fresh) << "copy " << copy;
  }
  EXPECT_EQ(keyed.bitsConsumed(), 0u);
  EXPECT_NE(draws(KeyedBitstream(sig, "sched-wm/1/carve")), fresh);
}

TEST(Bitstream, ContextSeparatesStreams) {
  const AuthorSignature sig{"alice", "design-1"};
  KeyedBitstream a(sig, "ctx-1");
  KeyedBitstream b(sig, "ctx-2");
  int differences = 0;
  for (int i = 0; i < 256; ++i) {
    differences += a.nextBit() != b.nextBit();
  }
  EXPECT_GT(differences, 64);  // independent streams differ ~50%
}

TEST(Bitstream, SignatureSeparatesStreams) {
  KeyedBitstream a({"alice", "d"}, "ctx");
  KeyedBitstream b({"bob", "d"}, "ctx");
  KeyedBitstream c({"alice", "d2"}, "ctx");
  int ab = 0;
  int ac = 0;
  for (int i = 0; i < 256; ++i) {
    const bool bit = a.nextBit();
    ab += bit != b.nextBit();
    ac += bit != c.nextBit();
  }
  EXPECT_GT(ab, 64);
  EXPECT_GT(ac, 64);
}

TEST(Bitstream, BelowIsInRangeAndCoversRange) {
  const AuthorSignature sig{"alice", "design-1"};
  KeyedBitstream bits(sig, "ctx");
  std::array<int, 7> histogram{};
  for (int i = 0; i < 7000; ++i) {
    const std::uint64_t v = bits.below(7);
    ASSERT_LT(v, 7u);
    ++histogram[v];
  }
  for (const int count : histogram) {
    EXPECT_GT(count, 700);  // roughly uniform (expected 1000)
    EXPECT_LT(count, 1300);
  }
}

TEST(Bitstream, BelowOneIsFree) {
  const AuthorSignature sig{"alice", "design-1"};
  KeyedBitstream bits(sig, "ctx");
  EXPECT_EQ(bits.below(1), 0u);
  EXPECT_EQ(bits.bitsConsumed(), 0u);  // degenerate bound consumes nothing
}

TEST(Bitstream, ErrorsOnMisuse) {
  const AuthorSignature sig{"alice", "design-1"};
  KeyedBitstream bits(sig, "ctx");
  EXPECT_THROW((void)bits.below(0), std::invalid_argument);
  EXPECT_THROW((void)bits.nextBits(65), std::invalid_argument);
  EXPECT_THROW((void)bits.chance(1, 0), std::invalid_argument);
  EXPECT_THROW(KeyedBitstream({"", ""}, "ctx"), std::invalid_argument);
}

TEST(Bitstream, ChanceMatchesProbability) {
  const AuthorSignature sig{"alice", "design-1"};
  KeyedBitstream bits(sig, "ctx");
  int hits = 0;
  for (int i = 0; i < 4000; ++i) {
    hits += bits.chance(96, 256);  // p = 0.375
  }
  EXPECT_NEAR(hits / 4000.0, 0.375, 0.05);
}

TEST(Signature, KeyMaterialDependsOnBothFields) {
  const auto a = AuthorSignature{"alice", "x"}.keyMaterial();
  const auto b = AuthorSignature{"alice", "y"}.keyMaterial();
  const auto c = AuthorSignature{"alic", "ex"}.keyMaterial();  // no splice
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace locwm::crypto
