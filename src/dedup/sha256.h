// SHA-256 (FIPS 180-4), from scratch — the chunk fingerprint of the
// dedup/backup stack (dedup::ChunkDigest, dedup/digest.h) and the inner loop
// of the simulated device hash kernel (core::fingerprint_on_gpu).
//
// update() hands each run of whole 64-byte blocks to one compression
// function picked once per process by CPUID: the x86 SHA-extensions kernel
// when the CPU has SHA + SSSE3 + SSE4.1, the portable loop otherwise
// (dedup/sha256_compress.h). No build flag selects it; digests are identical
// either way, and the tests run both against each other and the NIST vectors.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace shredder::dedup {

struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  friend bool operator==(const Sha256Digest&, const Sha256Digest&) = default;
  std::string hex() const;
  std::uint64_t prefix64() const noexcept;
};

class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(ByteSpan data) noexcept;
  Sha256Digest finish() noexcept;  // resets afterwards

  static Sha256Digest hash(ByteSpan data) noexcept;

 private:
  std::uint32_t h_[8];
  std::uint64_t length_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
};

struct Sha256DigestHash {
  std::size_t operator()(const Sha256Digest& d) const noexcept {
    return static_cast<std::size_t>(d.prefix64());
  }
};

}  // namespace shredder::dedup
