// Unit tests for SHA-256, HMAC-SHA256 (standard test vectors), and session
// key generation.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/hmac.h"
#include "src/crypto/session_key.h"
#include "src/crypto/sha256.h"
#include "src/util/base64.h"
#include "src/util/rand.h"

namespace rcb {
namespace {

using sha256_internal::CompressFn;
using sha256_internal::CompressPortable;
using sha256_internal::ShaNiCompress;

// FIPS 180-4 / NIST example vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(Sha256::HexDigest(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::HexDigest("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::HexDigest(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 hasher;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    hasher.Update(chunk);
  }
  auto digest = hasher.Finish();
  EXPECT_EQ(HexEncode(std::string(reinterpret_cast<const char*>(digest.data()),
                                  digest.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot) {
  std::string message = "The quick brown fox jumps over the lazy dog";
  Sha256 hasher;
  for (char c : message) {
    hasher.Update(std::string_view(&c, 1));
  }
  auto digest = hasher.Finish();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(digest.data()),
                        digest.size()),
            Sha256::Digest(message));
}

TEST(Sha256Test, BoundaryLengths) {
  // Padding edge cases: 55, 56, 63, 64, 65 byte messages.
  for (size_t n : {55u, 56u, 63u, 64u, 65u}) {
    std::string message(n, 'x');
    Sha256 streaming;
    streaming.Update(message.substr(0, n / 2));
    streaming.Update(message.substr(n / 2));
    auto digest = streaming.Finish();
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(digest.data()),
                          digest.size()),
              Sha256::Digest(message))
        << "length " << n;
  }
}

// One-shot SHA-256 straight on a compression body: FIPS 180-4 padding, then
// every block in a single multi-block call. Bypasses Sha256's buffering.
std::string DigestWith(CompressFn body, std::string_view message) {
  std::string padded(message);
  padded.push_back('\x80');
  while (padded.size() % Sha256::kBlockSize != Sha256::kBlockSize - 8) {
    padded.push_back('\0');
  }
  uint64_t bit_len = message.size() * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<char>(bit_len >> shift));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  body(state, reinterpret_cast<const uint8_t*>(padded.data()),
       padded.size() / Sha256::kBlockSize);
  std::string digest;
  for (uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<char>(word >> shift));
    }
  }
  return digest;
}

// Feeds `message` to a Sha256 in random chunks (empty ones included).
std::string ChunkedDigest(std::string_view message, Rng* rng) {
  Sha256 hasher;
  size_t pos = 0;
  while (pos < message.size()) {
    size_t n = rng->NextBelow(std::min<size_t>(message.size() - pos, 200) + 1);
    hasher.Update(message.substr(pos, n));
    pos += n;
  }
  auto digest = hasher.Finish();
  return std::string(reinterpret_cast<const char*>(digest.data()),
                     digest.size());
}

TEST(Sha256KernelTest, PortableBodyMatchesVectors) {
  EXPECT_EQ(HexEncode(DigestWith(CompressPortable, "abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(DigestWith(
                CompressPortable,
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256KernelTest, ShaNiBodyMatchesPortableOnRandomMessages) {
  CompressFn shani = ShaNiCompress();
  if (shani == nullptr) {
    GTEST_SKIP() << "CPU lacks SHA-NI (or is not x86-64): only the portable "
                    "body runs here";
  }
  Rng rng(180);
  for (int iter = 0; iter < 400; ++iter) {
    std::string message = rng.NextBytes(rng.NextBelow(1101));
    EXPECT_EQ(DigestWith(shani, message),
              DigestWith(CompressPortable, message))
        << "length " << message.size();
  }
}

// Sha256 runs the body the CPU selected; its buffering must agree with the
// portable one-shot reference under any chunking.
TEST(Sha256KernelTest, ChunkedUpdatesMatchPortableOneShot) {
  Rng rng(4231);
  for (int iter = 0; iter < 400; ++iter) {
    std::string message = rng.NextBytes(rng.NextBelow(1101));
    EXPECT_EQ(ChunkedDigest(message, &rng),
              DigestWith(CompressPortable, message))
        << "length " << message.size();
  }
  // A partial buffer, then a run that completes it and carries several
  // whole blocks plus a tail.
  std::string message = rng.NextBytes(1100);
  for (size_t head : {1u, 10u, 63u}) {
    Sha256 hasher;
    hasher.Update(std::string_view(message).substr(0, head));
    hasher.Update(std::string_view(message).substr(head));
    auto digest = hasher.Finish();
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(digest.data()),
                          digest.size()),
              DigestWith(CompressPortable, message))
        << "head " << head;
  }
}

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(HmacSha256Hex(key, "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HmacSha256Hex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  std::string key(20, '\xaa');
  std::string message(50, '\xdd');
  EXPECT_EQ(HmacSha256Hex(key, message),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, Rfc4231Case6LongKey) {
  std::string key(131, '\xaa');
  EXPECT_EQ(HmacSha256Hex(key, "Test Using Larger Than Block-Size Key - "
                               "Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentMacs) {
  EXPECT_NE(HmacSha256Hex("key1", "message"), HmacSha256Hex("key2", "message"));
  EXPECT_NE(HmacSha256Hex("key", "message1"), HmacSha256Hex("key", "message2"));
}

TEST(ConstantTimeEqualsTest, Basics) {
  EXPECT_TRUE(ConstantTimeEquals("", ""));
  EXPECT_TRUE(ConstantTimeEquals("abc", "abc"));
  EXPECT_FALSE(ConstantTimeEquals("abc", "abd"));
  EXPECT_FALSE(ConstantTimeEquals("abc", "ab"));
  EXPECT_FALSE(ConstantTimeEquals("ab", "abc"));
  EXPECT_FALSE(ConstantTimeEquals("", "x"));
}

TEST(SessionKeyTest, GeneratesDistinctTypableKeys) {
  SessionKeyGenerator generator(42);
  std::string k1 = generator.Generate();
  std::string k2 = generator.Generate();
  EXPECT_EQ(k1.size(), 20u);
  EXPECT_NE(k1, k2);
  for (char c : k1) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'));
  }
}

TEST(SessionKeyTest, DeterministicPerSeed) {
  SessionKeyGenerator a(7);
  SessionKeyGenerator b(7);
  EXPECT_EQ(a.Generate(), b.Generate());
}

}  // namespace
}  // namespace rcb
