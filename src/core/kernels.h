// GPU chunking kernels (paper §3.1 and §4.3).
//
// Both kernels divide the buffer's payload into one contiguous sub-stream
// per GPU thread and compute Rabin fingerprints over a sliding window,
// emitting a boundary wherever the masked fingerprint equals the marker.
// Each thread warms its window on the w-1 bytes preceding its sub-stream, so
// the concatenated output is bit-identical to a serial scan of the buffer.
// The host does the real scan once per block: a block's sub-streams form one
// contiguous range, scanned after the same warm-up, which emits exactly what
// the per-thread scans would. A per-thread walk then only records the reads,
// processed bytes and staged tiles the modelled threads issue, so launch
// statistics are those of the per-thread kernel.
//
//  * Basic kernel (§3.1): each thread reads its own sub-stream directly from
//    global device memory in 16 B segments — thousands of interleaved
//    streams, which row-switches the DRAM banks on almost every transaction.
//  * Coalesced kernel (§4.3): the threads of a block cooperatively stage
//    tiles of their sub-streams into on-chip shared memory with contiguous
//    128 B half-warp transactions, then fingerprint out of shared memory.
//    Each tile restages the w-1 bytes before its payload (the halo), and a
//    tile that does not fit the thread's slice of shared memory is read
//    straight from global memory. The simulator counts tiles, halos and
//    staged bytes but copies nothing: the block's scan reads the staged
//    bytes in place.
#pragma once

#include <cstdint>
#include <vector>

#include "chunking/chunk.h"
#include "common/bytes.h"
#include "dedup/digest.h"
#include "gpusim/device.h"
#include "rabin/rabin.h"

namespace shredder::core {

struct KernelParams {
  int blocks = 28;             // 2 resident blocks per SM on the C2050
  int threads_per_block = 128;
  bool coalesced = true;
  bool exact_dram = false;     // exact bank accounting (tests / small runs)
};

struct GpuChunkResult {
  // Absolute end offsets of raw content boundaries, ascending.
  std::vector<std::uint64_t> boundaries;
  gpu::KernelRunStats stats;
};

// Chunks `data`, the staged bytes read in place. The first `carry` bytes are
// window context from the previous buffer (boundaries inside them are not
// re-emitted); `base_offset` is the absolute stream offset of data[0].
// Global reads are recorded at their offsets within `data`.
GpuChunkResult chunk_on_gpu(gpu::Device& device, ByteSpan data,
                            std::size_t carry, std::uint64_t base_offset,
                            const rabin::RabinTables& tables,
                            const chunking::ChunkerConfig& config,
                            const KernelParams& params);

struct GpuFingerprintResult {
  // One SHA-256 digest per cut, in cut order; bit-identical to the host
  // dedup::Sha256 over the same chunk bytes.
  std::vector<dedup::ChunkDigest> digests;
  gpu::KernelRunStats stats;
};

// Fingerprint kernel (§4.3-style second device stage): hashes the payload
// bytes data[carry, data.size()) — the bytes the chunking kernel read —
// into per-chunk SHA-256 digests.
// `cuts` are the resolved chunk end offsets (absolute, ascending, each in
// (base_offset+carry, base_offset+data.size()]).
// `carry_ctx` is the running hash of the open chunk's bytes from previous
// buffers; on return it holds the bytes after the last cut, so chunks that
// span buffers hash incrementally without re-reading evicted data. Each
// closed chunk is an independent hash task, mapped one-per-thread across the
// launch's blocks.
GpuFingerprintResult fingerprint_on_gpu(
    gpu::Device& device, ByteSpan data, std::size_t carry,
    std::uint64_t base_offset, const std::vector<std::uint64_t>& cuts,
    dedup::ChunkHasher& carry_ctx, const KernelParams& params);

}  // namespace shredder::core
