#include "src/crypto/sha256.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define RCB_SHA256_HAVE_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "src/util/base64.h"

namespace rcb {
namespace {

constexpr uint32_t kRoundConstants[64] = {
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

uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef RCB_SHA256_HAVE_SHANI
#define RCB_SHANI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Message schedule for the next four words W[t..t+3], given the previous
// sixteen as x = W[t-16..t-13], y, z, v = W[t-4..t-1].
RCB_SHANI_TARGET inline __m128i ShaNiSchedule(__m128i x, __m128i y, __m128i z,
                                              __m128i v) {
  __m128i w = _mm_sha256msg1_epu32(x, y);          // + s0(W[t-15])
  w = _mm_add_epi32(w, _mm_alignr_epi8(v, z, 4));  // + W[t-7]
  return _mm_sha256msg2_epu32(w, v);               // + s1(W[t-2])
}

// Four rounds over the words `w` with constants k[0..3]; abef/cdgh hold the
// working variables in the layout sha256rnds2 expects.
RCB_SHANI_TARGET inline void ShaNiRounds(__m128i* abef, __m128i* cdgh,
                                         __m128i w, const uint32_t* k) {
  __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(reinterpret_cast<const __m128i*>(k)));
  *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
  *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

RCB_SHANI_TARGET void CompressShaNi(uint32_t state[8], const uint8_t* data,
                                    size_t blocks) {
  // Big-endian word loads.
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(in), kByteSwap);
    __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kByteSwap);
    __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kByteSwap);
    __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kByteSwap);
    ShaNiRounds(&abef, &cdgh, m0, kRoundConstants);
    ShaNiRounds(&abef, &cdgh, m1, kRoundConstants + 4);
    ShaNiRounds(&abef, &cdgh, m2, kRoundConstants + 8);
    ShaNiRounds(&abef, &cdgh, m3, kRoundConstants + 12);
    for (int t = 16; t < 64; t += 16) {
      m0 = ShaNiSchedule(m0, m1, m2, m3);
      ShaNiRounds(&abef, &cdgh, m0, kRoundConstants + t);
      m1 = ShaNiSchedule(m1, m2, m3, m0);
      ShaNiRounds(&abef, &cdgh, m1, kRoundConstants + t + 4);
      m2 = ShaNiSchedule(m2, m3, m0, m1);
      ShaNiRounds(&abef, &cdgh, m2, kRoundConstants + t + 8);
      m3 = ShaNiSchedule(m3, m0, m1, m2);
      ShaNiRounds(&abef, &cdgh, m3, kRoundConstants + t + 12);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

// CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1).
bool CpuHasShaNi() {
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return false;
  }
  return ssse3 && sse41 && (ebx & (1u << 29)) != 0;
}
#endif  // RCB_SHA256_HAVE_SHANI

// The body every Sha256 runs, chosen once per process.
void Compress(uint32_t state[8], const uint8_t* data, size_t blocks) {
  static const sha256_internal::CompressFn body =
      sha256_internal::ShaNiCompress() != nullptr
          ? sha256_internal::ShaNiCompress()
          : sha256_internal::CompressPortable;
  body(state, data, blocks);
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[i * 4]) << 24) |
             (static_cast<uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn ShaNiCompress() {
#ifdef RCB_SHA256_HAVE_SHANI
  static const bool supported = CpuHasShaNi();
  return supported ? CompressShaNi : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace sha256_internal

Sha256::Sha256() {
  static constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                        0xa54ff53a, 0x510e527f, 0x9b05688c,
                                        0x1f83d9ab, 0x5be0cd19};
  std::memcpy(state_, kInit, sizeof(state_));
}

void Sha256::Update(std::string_view data) {
  assert(!finished_);
  if (data.empty()) {
    return;
  }
  total_len_ += data.size();
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data.data());
  size_t n = data.size();
  if (buffer_len_ > 0) {
    size_t take = std::min(n, kBlockSize - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < kBlockSize) {
      return;
    }
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  size_t blocks = n / kBlockSize;
  if (blocks > 0) {
    Compress(state_, p, blocks);
    p += blocks * kBlockSize;
    n -= blocks * kBlockSize;
  }
  std::memcpy(buffer_, p, n);
  buffer_len_ = n;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  assert(!finished_);
  finished_ = true;
  // Append 0x80, zeros up to the last 8 bytes of a block, then the bit
  // length big-endian; a tail too long for the length takes a second block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_ + buffer_len_, 0, kBlockSize - buffer_len_);
    Compress(state_, buffer_, 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  uint64_t bit_len = total_len_ * 8;
  for (int i = 7; i >= 0; --i) {
    buffer_[kBlockSize - 8 + i] = static_cast<uint8_t>(bit_len & 0xFF);
    bit_len >>= 8;
  }
  Compress(state_, buffer_, 1);
  buffer_len_ = 0;

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

std::string Sha256::Digest(std::string_view data) {
  Sha256 h;
  h.Update(data);
  auto digest = h.Finish();
  return std::string(reinterpret_cast<const char*>(digest.data()), digest.size());
}

std::string Sha256::HexDigest(std::string_view data) {
  return HexEncode(Digest(data));
}

}  // namespace rcb
