// Batch consumer API: the library's only way to stream chunks to a consumer.
//
// The store stage hands the consumer ONE ChunkBatchView per drained pipeline
// buffer, carrying spans over everything the buffer finalized: chunks and,
// when the fingerprint stage ran, their device digests. The bytes stay with
// the application, as in the paper's Store stage, which reads back only
// chunk boundaries (§4.2); a consumer that needs a chunk's bytes slices the
// data it handed in. No per-chunk dispatch on the store path, and the backup
// server ships the same granularity as one wire batch. Every frontend
// delivers through it: Shredder::run, service::TenantOptions::sink, the
// backup server's chunking stage. Consumers that only need the final chunk
// list call the sink-less Shredder::run overloads and read the result.
#pragma once

#include <cstdint>
#include <span>

#include "chunking/chunk.h"
#include "dedup/digest.h"

namespace shredder {

// Everything one drained buffer finalized, delivered in stream order. The
// spans point into producer-owned storage and are valid only for the
// duration of the on_batch() call — copy what must outlive it.
struct ChunkBatchView {
  std::uint32_t stream_id = 0;   // producing stream (0 for single-stream runs)
  std::uint64_t stream_seq = 0;  // delivered-batch ordinal within the stream
  // Final batch of the stream. Always delivered exactly once, even when no
  // trailing chunks remain, so sinks have a flush point.
  bool eos = false;

  std::span<const chunking::Chunk> chunks;  // finalized by this buffer
  // Device-computed digests, 1:1 with `chunks` when the producer ran the
  // fingerprint stage; empty otherwise.
  std::span<const dedup::ChunkDigest> digests;
};

// The batch consumer interface. on_batch runs on the pipeline engine's
// kernel thread (core/pipeline.h), in stream order, for both frontends; it
// must not re-enter the producer. An exception it throws fails the run:
// Shredder::run rethrows it, and so do the service's wait() and shutdown().
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;

  virtual void on_batch(const ChunkBatchView& batch) = 0;
};

}  // namespace shredder
