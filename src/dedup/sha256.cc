#include "dedup/sha256.h"

#include <algorithm>
#include <cstring>

#include "dedup/sha256_compress.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define SHREDDER_SHA256_X86 1
#else
#define SHREDDER_SHA256_X86 0
#endif

namespace shredder::dedup {

namespace {

inline std::uint32_t rotr(std::uint32_t x, int s) noexcept {
  return (x >> s) | (x << (32 - s));
}

alignas(16) constexpr std::uint32_t kK[64] = {
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

// The process-wide compression function, picked by CPUID on first use.
sha256_compress::CompressFn compress_fn() noexcept {
  static const sha256_compress::CompressFn fn =
      sha256_compress::hardware_available() ? sha256_compress::hardware
                                            : sha256_compress::portable;
  return fn;
}

}  // namespace

namespace sha256_compress {

void portable(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) noexcept {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
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

#if SHREDDER_SHA256_X86

// Compiled for the SHA extensions without a -march flag; only reached
// through compress_fn() once hardware_available() said yes.
#define SHREDDER_SHA_TARGET __attribute__((target("sha,sse4.1,ssse3")))

namespace {

// Four rounds over message group g (words 4g..4g+3).
SHREDDER_SHA_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh,
                                        __m128i w, int g) noexcept {
  const __m128i wk = _mm_add_epi32(
      w, _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message group g of a block as big-endian words.
SHREDDER_SHA_TARGET inline __m128i load_group(const std::uint8_t* block,
                                              int g) noexcept {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * g)),
      bswap);
}

}  // namespace

SHREDDER_SHA_TARGET void hardware(std::uint32_t* state,
                                  const std::uint8_t* data,
                                  std::size_t blocks) noexcept {
  // sha256rnds2 wants the state split as ABEF / CDGH.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // m0..m3 hold message groups g-4..g-1.
    __m128i m0 = load_group(data, 0);
    __m128i m1 = load_group(data, 1);
    __m128i m2 = load_group(data, 2);
    __m128i m3 = load_group(data, 3);
    rounds4(abef, cdgh, m0, 0);
    rounds4(abef, cdgh, m1, 1);
    rounds4(abef, cdgh, m2, 2);
    rounds4(abef, cdgh, m3, 3);
    for (int g = 4; g < 16; ++g) {
      // W[t] = W[t-16] + s0(W[t-15]) + W[t-7] + s1(W[t-2]).
      const __m128i next = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1),
                        _mm_alignr_epi8(m3, m2, 4)),
          m3);
      m0 = m1;
      m1 = m2;
      m2 = m3;
      m3 = next;
      rounds4(abef, cdgh, m3, g);
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

bool hardware_available() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return sha && ssse3 && sse41;
}

#else  // Non-x86: portable only. CI runs on x86, so this branch is untested.

void hardware(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) noexcept {
  portable(state, data, blocks);
}

bool hardware_available() noexcept { return false; }

#endif

}  // namespace sha256_compress

std::string Sha256Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

std::uint64_t Sha256Digest::prefix64() const noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes[static_cast<std::size_t>(i)];
  return v;
}

void Sha256::reset() noexcept {
  h_[0] = 0x6a09e667u;
  h_[1] = 0xbb67ae85u;
  h_[2] = 0x3c6ef372u;
  h_[3] = 0xa54ff53au;
  h_[4] = 0x510e527fu;
  h_[5] = 0x9b05688cu;
  h_[6] = 0x1f83d9abu;
  h_[7] = 0x5be0cd19u;
  length_ = 0;
  buffered_ = 0;
}

void Sha256::update(ByteSpan data) noexcept {
  if (data.empty()) return;
  length_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ != 0) {
    const std::size_t take = std::min(n, 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < 64) return;
    compress_fn()(h_, buffer_.data(), 1);
    buffered_ = 0;
  }
  if (n >= 64) {
    compress_fn()(h_, p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n != 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Sha256Digest Sha256::finish() noexcept {
  // 0x80, zeros to 56 mod 64, then the big-endian bit length: one block,
  // or two when fewer than 9 bytes of the buffered block are free.
  std::uint8_t tail[128] = {};
  std::memcpy(tail, buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ < 56 ? 1 : 2;
  const std::uint64_t bit_length = length_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[blocks * 64 - 1 - i] = static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  compress_fn()(h_, tail, blocks);
  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest.bytes[static_cast<std::size_t>(i * 4)] =
        static_cast<std::uint8_t>(h_[i] >> 24);
    digest.bytes[static_cast<std::size_t>(i * 4 + 1)] =
        static_cast<std::uint8_t>(h_[i] >> 16);
    digest.bytes[static_cast<std::size_t>(i * 4 + 2)] =
        static_cast<std::uint8_t>(h_[i] >> 8);
    digest.bytes[static_cast<std::size_t>(i * 4 + 3)] =
        static_cast<std::uint8_t>(h_[i]);
  }
  reset();
  return digest;
}

Sha256Digest Sha256::hash(ByteSpan data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace shredder::dedup
