// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The paper's request authentication (§3.4) uses keyed-hash MACs computed by
// a JavaScript crypto library; we provide the equivalent primitive here.
//
// The compression function has two bodies: portable C++ rounds, and an
// x86-64 body on the SHA extensions (SHA-NI). The SHA-NI body is chosen once
// from CPUID when the CPU has it; every other platform runs the portable
// body. Both produce identical digests.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rcb {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  // Streaming interface.
  void Update(std::string_view data);
  std::array<uint8_t, kDigestSize> Finish();

  // One-shot digest as raw bytes.
  static std::string Digest(std::string_view data);
  // One-shot digest as lowercase hex.
  static std::string HexDigest(std::string_view data);

 private:
  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
  bool finished_ = false;
};

// Test seam for the differential test of the two compression bodies; not an
// option. Each body folds `blocks` consecutive 64-byte blocks into `state`.
namespace sha256_internal {
using CompressFn = void (*)(uint32_t state[8], const uint8_t* data,
                            size_t blocks);
void CompressPortable(uint32_t state[8], const uint8_t* data, size_t blocks);
// The SHA-NI body, or null when this CPU (or platform) lacks it.
CompressFn ShaNiCompress();
}  // namespace sha256_internal

}  // namespace rcb

#endif  // SRC_CRYPTO_SHA256_H_
