// Block compression behind dedup::Sha256 — an internal seam, not public API.
//
// Sha256::update hands each run of whole 64-byte blocks to one of these,
// chosen once per process: the SHA-extensions kernel when the CPU has it,
// the portable loop otherwise. Both are exposed here so the tests can run
// them against each other; callers hash through Sha256.
#pragma once

#include <cstddef>
#include <cstdint>

namespace shredder::dedup::sha256_compress {

// Compresses `blocks` consecutive 64-byte blocks starting at `data` (any
// alignment) into `state` (a..h, host order).
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks) noexcept;

// FIPS 180-4 compression in plain C++; the fallback and the test oracle.
void portable(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) noexcept;

// x86 SHA-NI kernel. Only valid when hardware_available(); on other
// architectures it forwards to portable().
void hardware(std::uint32_t* state, const std::uint8_t* data,
              std::size_t blocks) noexcept;

// True when CPUID reports the SHA, SSSE3 and SSE4.1 extensions that
// hardware() is compiled for. Always false off x86.
bool hardware_available() noexcept;

}  // namespace shredder::dedup::sha256_compress
