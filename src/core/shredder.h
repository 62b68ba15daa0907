// Shredder: the GPU-accelerated content-based chunking service
// (paper §3–§5). This is the library's primary public API.
//
// The workflow matches Figure 2/8 of the paper. The calling thread is the
// Reader: it takes the input stream from its DataSource one buffer-sized
// view at a time and submits each view to the pipeline engine, which copies
// it behind the stream's last w-1 bytes into the pinned ring (for in-memory
// input the only host copy). The engine's kernel thread, the one thread a
// run starts, prices each staged buffer's H2D DMA and runs the chunking
// kernel over the slot in place, finding raw content boundaries in parallel
// on the (simulated) GPU. It then runs the Store stage, which prices the
// boundaries' readback, applies min/max sizes and hands finished chunks to
// the application's ChunkSink one batch per buffer (core::StreamStore, the
// Store stage the multi-tenant service runs per tenant too). The stages'
// overlap, including double buffering (one buffer's H2D under the kernel of
// the one before), is priced by the pipeline makespan.
//
// Three operating modes expose the paper's optimization ladder (Fig 12):
//   kBasic            serialized stages, pageable host memory, direct
//                     device-memory kernel                       (§3.1)
//   kStreams          pinned ring buffers + double buffering + 4-stage
//                     streaming pipeline                          (§4.1–4.2)
//   kStreamsCoalesced kStreams + memory-coalesced kernel          (§4.3)
//
// Every run does the real work on real bytes (the returned chunks are
// bit-identical to chunking::chunk_serial) and additionally reports virtual
// timings under the calibrated C2050 model so CPU/GPU comparisons reproduce
// the paper's era rather than this host.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chunking/chunk.h"
#include "core/kernels.h"
#include "core/pipeline.h"
#include "core/sink.h"
#include "core/source.h"
#include "gpusim/device.h"
#include "gpusim/pinned.h"
#include "gpusim/spec.h"
#include "rabin/rabin.h"

namespace shredder::core {

// GpuMode and StageSeconds live in core/pipeline.h (the pipeline engine is
// shared with the multi-tenant service); both are re-exported here because
// this header is the single-stream public API.

struct ShredderConfig {
  chunking::ChunkerConfig chunker;
  std::size_t buffer_bytes = 32ull * 1024 * 1024;  // pipeline buffer size
  GpuMode mode = GpuMode::kStreamsCoalesced;
  KernelParams kernel;
  std::size_t ring_slots = 4;  // pinned ring = number of pipeline stages
  gpu::DeviceSpec device;
  gpu::HostSpec host;
  std::size_t sim_threads = 0;  // host threads simulating the GPU (0 = auto)
  // Run the on-device fingerprint stage: each chunk is SHA-256-hashed by a
  // second kernel while its buffer is still resident, and the result carries
  // one digest per chunk (bit-identical to host dedup::Sha256).
  bool fingerprint_on_device = false;
  // Optional metrics registry (borrowed; must outlive the Shredder's runs).
  // Forwarded to the pipeline engine, which publishes pipeline.* counters
  // and stage timings; the store stage adds core.store_seconds. Virtual-time
  // *tracing* runs through the service path (a 1-tenant ChunkingService is
  // the single-stream trace) — see docs/observability.md.
  obs::Registry* registry = nullptr;

  void validate() const;
};

struct ShredderResult {
  std::vector<chunking::Chunk> chunks;
  // One digest per chunk when fingerprint_on_device is set; empty otherwise.
  std::vector<dedup::ChunkDigest> digests;
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;
  std::uint64_t raw_boundaries = 0;

  // Virtual end-to-end time under the configured mode (serialized for
  // kBasic; 4-stage pipeline makespan otherwise) and its throughput.
  double virtual_seconds = 0;
  double virtual_throughput_bps = 0;
  // Sum of all stage durations (the fully serialized execution).
  double serialized_seconds = 0;
  // Mean per-buffer stage durations (inputs to pipeline modelling).
  StageSeconds mean_stage_seconds;
  // One-time pinned-ring construction cost (streams modes only).
  double init_seconds = 0;
  // Aggregated kernel statistics over all buffers.
  gpu::KernelRunStats kernel_totals;
  // Aggregated fingerprint-kernel statistics (fingerprint mode only).
  gpu::KernelRunStats fingerprint_totals;
  // Real host time spent executing the run.
  double wall_seconds = 0;
};

class Shredder {
 public:
  // Throws std::invalid_argument on bad configuration.
  explicit Shredder(ShredderConfig config);

  // Streaming consumption: `sink` receives one ChunkBatchView (chunks and
  // digests) per drained pipeline buffer that finalized chunks, in stream
  // order, plus exactly one eos batch — no per-chunk dispatch on the store
  // path. The ByteSpan overload reads `data` through a MemorySource, so both
  // overloads run one code path and deliver identical batches.
  ShredderResult run(DataSource& source, ChunkSink& sink);
  ShredderResult run(ByteSpan data, ChunkSink& sink);

  // Sink-less runs: chunk the whole stream and return the full result.
  ShredderResult run(DataSource& source);
  // Convenience: chunk an in-memory buffer served at the host reader
  // bandwidth (the SAN model).
  ShredderResult run(ByteSpan data);

  const ShredderConfig& config() const noexcept { return config_; }
  const rabin::RabinTables& tables() const noexcept { return tables_; }

 private:
  ShredderResult run_impl(DataSource& source, ChunkSink* sink);

  ShredderConfig config_;
  rabin::RabinTables tables_;
  std::unique_ptr<gpu::Device> device_;
};

// Host-only parallel chunking with the same result/report shape, for the
// CPU-vs-GPU comparisons of Fig 12 (paper §5.1). Virtual timings use the
// calibrated X5650 pthreads throughput from HostSpec.
struct HostChunkResult {
  std::vector<chunking::Chunk> chunks;
  std::uint64_t total_bytes = 0;
  double virtual_seconds = 0;        // max(reader, chunking) — overlapped
  double virtual_throughput_bps = 0;
  double wall_seconds = 0;           // real measured time on this machine
  double wall_throughput_bps = 0;
};

HostChunkResult chunk_on_host(ByteSpan data,
                              const chunking::ChunkerConfig& chunker,
                              const gpu::HostSpec& host, bool use_arena,
                              std::size_t threads = 0);

}  // namespace shredder::core
