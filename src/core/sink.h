// Batch consumer API: the library's only way to stream chunks to a consumer.
//
// The store stage hands the consumer ONE ChunkBatchView per drained pipeline
// buffer, carrying spans over everything the buffer finalized — chunks, their
// device digests when the fingerprint stage ran, and (when the producer
// retains payload bytes) a window of the stream the chunks can be sliced
// from. No per-chunk dispatch on the store path, and the backup server ships
// the same granularity as one wire batch. Every frontend delivers through it:
// Shredder::run, service::TenantOptions::sink, the backup server's chunking
// stage. Consumers that only need the final chunk list call the sink-less
// Shredder::run overloads and read the result.
#pragma once

#include <cstdint>
#include <deque>
#include <span>

#include "chunking/chunk.h"
#include "common/bytes.h"
#include "core/lease.h"
#include "dedup/digest.h"

namespace shredder {

class PayloadTail;

// Everything one drained buffer finalized, delivered in stream order. All
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

  // Stream bytes covering [payload_base, payload_base + payload.size()),
  // when the producer retains them (Shredder::run over an in-memory span
  // always does; streaming runs when the sink wants_payload()). For
  // streaming runs this is the current buffer's leased staging bytes —
  // zero-copy — and chunks reaching further back resolve through `tail`.
  // Empty otherwise.
  ByteSpan payload;
  std::uint64_t payload_base = 0;  // absolute stream offset of payload[0]

  // The producer's full rolling retention window, when one exists; lets
  // chunk_bytes resolve chunks that start before `payload` (min/max
  // filtering can finalize a chunk a buffer late). Borrowed, valid only
  // during on_batch().
  const PayloadTail* tail = nullptr;

  bool has_payload() const noexcept { return !payload.empty(); }

  // Bytes of chunks[i]: a direct subspan of `payload` when the chunk lies
  // inside it, else resolved through `tail` (which may splice a copy for
  // chunks spanning retained buffers), else an empty span. The returned
  // span is invalidated by the next chunk_bytes call on the same view.
  ByteSpan chunk_bytes(std::size_t i) const;
};

// The batch consumer interface. on_batch runs on the producer's store
// thread, in stream order; it must not re-enter the producer.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;

  virtual void on_batch(const ChunkBatchView& batch) = 0;

  // Sinks that slice chunk payloads out of the batch return true so
  // streaming producers know to retain buffer bytes for them. Retention is
  // a refcounted slot lease per buffer (core/lease.h) — no per-buffer copy
  // — so this is cheap to want; it only extends how long staging slots
  // stay leased.
  virtual bool wants_payload() const noexcept { return false; }
};

// Rolling window of stream bytes a streaming producer retains for
// payload-slicing consumers, covering [base(), end()). Zero-copy: the
// window is a list of leased buffer segments (core/lease.h), each one
// buffer's staged bytes, adjacent segments overlapping by the carry bytes
// the producer re-staged. Its one owner is the store stage
// (core::StreamStore, core/pipeline.h), which appends one buffer's payload
// lease per batch, hands window()/window_base() (+ the tail itself) to the
// ChunkBatchView, then trims to the open chunk's start so retention stays
// bounded by (open chunk + one buffer).
//
// Slot backpressure: segments holding pinned-slot leases keep ring slots
// out of circulation. set_slot_cap bounds that: trim() compacts the oldest
// slot-backed segments beyond the cap into owned copies of just the bytes
// still retained. The cap is the StreamStore's constructor argument: the
// multi-tenant service uses 0 so no session can starve the shared ring; a
// single-consumer Shredder run keeps recommended_slot_cap(ring_slots) slots
// parked for zero-copy delivery.
class PayloadTail {
 public:
  // Appends one buffer's staged bytes (carry prefix ++ payload) as a leased
  // segment; the first `carry` bytes repeat bytes the window already covers
  // (the new segment overlaps the previous one by `carry`). Aborts if
  // `carry` exceeds the staged size or the stream position.
  void append(core::SlotLease lease, std::size_t carry);

  // Drops whole segments no longer needed for offsets >= `keep_from`
  // (typically the open chunk's start), then compacts slot-backed segments
  // beyond the slot cap into owned copies of their retained suffix.
  void trim(std::uint64_t keep_from);

  // The most recent segment — the current buffer's bytes — which is what a
  // ChunkBatchView exposes as its contiguous `payload`.
  ByteSpan window() const noexcept;
  std::uint64_t window_base() const noexcept;

  // Bytes of [offset, offset + len): a direct alias into one segment when a
  // single segment covers the range, else a splice into an internal scratch
  // buffer (each call invalidates the previous splice). Empty when the
  // range is outside [base(), end()).
  ByteSpan slice(std::uint64_t offset, std::size_t len) const;

  std::uint64_t base() const noexcept {
    return segments_.empty() ? end_ : segments_.front().base;
  }
  std::uint64_t end() const noexcept { return end_; }
  bool empty() const noexcept { return segments_.empty(); }

  // Slot-backed segments currently held (lease-leak checks in tests).
  std::size_t slot_leases() const noexcept;
  void set_slot_cap(std::size_t cap) noexcept { slot_cap_ = cap; }
  // Largest cap that always leaves a slot circulating for the pipeline:
  // 0 for rings of <= 1 slot, 1 for 2 slots, ring_slots - 2 above that.
  static std::size_t recommended_slot_cap(std::size_t ring_slots) noexcept {
    if (ring_slots <= 1) return 0;
    if (ring_slots == 2) return 1;
    return ring_slots - 2;
  }

 private:
  struct Segment {
    core::SlotLease lease;
    std::uint64_t base = 0;  // absolute stream offset of lease.bytes()[0]
  };

  std::deque<Segment> segments_;
  std::uint64_t end_ = 0;  // absolute end of the window (and the stream)
  std::size_t slot_cap_ = static_cast<std::size_t>(-1);
  mutable ByteVec scratch_;  // splice target for cross-segment slices
};

}  // namespace shredder
