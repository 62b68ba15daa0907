// Reusable GPU chunking pipeline engine (paper §4.1–4.2, Figure 8).
//
// PipelineEngine runs the transfer→kernel→store core of Shredder's 4-stage
// pipeline, factored out of core::Shredder so that *any* number of
// producers can share one device: every work item is tagged with the client
// stream that produced it, flows through the staging ring, the H2D DMA and
// the chunking kernel in submission order, and comes back out as a
// BoundaryBatch carrying the same tag, handed to the frontend's Store stage
// (a BatchConsumer). Single-stream Shredder::run and the multi-tenant
// service::ChunkingService are both thin shells around this engine, and
// both run each stream's Store stage through one StreamStore (below).
// Producers hand in only new payload bytes; the engine owns each stream's
// staging state — its window carry, offset and sequence number.
//
// Stage layout (one host thread, the kernel thread, runs every stage after
// the copy; the input queue and the ring bound the buffers in flight,
// exactly like Figure 8's ring):
//
//   submit() ──copy carry ++ payload into a leased ring slot──► kernel thread
//     (prices the H2D DMA; chunk_on_gpu [+ fingerprint_on_gpu] read the
//      slot in place; consumer.on_batch(batch), the Store stage; the
//      slot's lease ends here)
//
// A stage is a priced cost, not a host thread. The simulated device holds
// no bytes. Each buffer's H2D DMA is a priced stage (gpu::dma_seconds of
// the staged bytes, StageSeconds::transfer), both kernels read the leased
// slot where submit() staged it, and the Store stage prices its D2H
// readback. Double buffering (§4.1.1), buffer i+1's H2D overlapping buffer
// i's kernel, and the overlap of every other stage are priced in virtual
// time where the stages are composed: pipeline_makespan over the ring in
// Shredder, twin GpuTimeline streams per tenant in the service.
//
// With config.fingerprint set, the kernel thread runs a second device
// kernel per buffer: it resolves the final (min/max-filtered) chunk ends on
// the device side and SHA-256-hashes each chunk over the same staged bytes,
// so batches come back with chunk+digest pairs and the host never rehashes
// (docs/fingerprint.md has the timeline).
//
// Staged bytes never leave the engine. Every GpuMode stages each buffer
// into a leased slot of the engine's ring (core/lease.h), held from
// submit() until the consumer returns from the buffer's batch; a
// BoundaryBatch carries boundaries, digests and stage timings only.
// submit() blocks while every slot is in flight, which is the engine-level
// backpressure the service relies on when clients outrun the device. A
// stalled consumer reaches producers the same way: it holds its item's
// slot, and the ring runs out of free slots. The pipeline.slots_leased
// gauge tracks the slots in flight.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chunking/chunk.h"
#include "chunking/minmax.h"
#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "core/kernels.h"
#include "core/lease.h"
#include "core/sink.h"
#include "dedup/digest.h"
#include "gpusim/device.h"
#include "gpusim/pinned.h"
#include "obs/registry.h"
#include "rabin/rabin.h"

namespace shredder::core {

// Operating modes exposing the paper's optimization ladder (Fig 12).
enum class GpuMode { kBasic, kStreams, kStreamsCoalesced };

// Per-buffer virtual durations of the pipeline stages. `transfer` is the
// buffer's H2D DMA. `fingerprint` is the on-device hash kernel (zero unless
// the engine fingerprints); it runs on the compute engine right after the
// chunking kernel, overlapping the next buffer's H2D exactly like the
// chunking kernel does.
struct StageSeconds {
  double reader = 0;
  double transfer = 0;
  double kernel = 0;
  double fingerprint = 0;
  double store = 0;

  double sum() const noexcept {
    return reader + transfer + kernel + fingerprint + store;
  }
  StageSeconds& operator+=(const StageSeconds& other) noexcept {
    reader += other.reader;
    transfer += other.transfer;
    kernel += other.kernel;
    fingerprint += other.fingerprint;
    store += other.store;
    return *this;
  }
};

// One producer submission: the next payload bytes of one client stream.
// Producers send only new bytes. The engine keeps each stream's window
// carry (its last w-1 staged bytes), offset and sequence number, and stages
// every buffer as carry ++ payload so no Rabin window is lost at a seam.
struct StreamBuffer {
  std::uint32_t stream_id = 0;
  // Borrowed: submit() copies it into the staging slot before returning.
  ByteSpan payload;
  double reader_seconds = 0;      // modelled producer time for the payload
  bool eos = false;               // end-of-stream marker; payload is empty
  // Scheduler context stamped by the producer (the service's dispatch path)
  // and echoed back on the BoundaryBatch, so the Store stage can emit
  // credit/queue-depth trace points at the batch's virtual completion time.
  double sched_credit = 0;
  std::uint32_t queue_depth = 0;
};

// Raw content boundaries of one buffer, tagged with its stream and its
// per-stream sequence number (0, 1, ..., with the eos batch last). eos
// batches carry no boundaries and mark that every preceding buffer of that
// stream has been delivered.
//
// When the engine fingerprints, chunk_ends/digests carry the stream's
// *final* chunking (min/max applied on the device side) resolved as far as
// this buffer allows, with one device-computed SHA-256 per chunk; the eos
// batch then carries the stream's trailing chunk. StreamStore uses them
// directly instead of running its own min/max filter.
struct BoundaryBatch {
  std::uint32_t stream_id = 0;
  std::uint64_t seq = 0;
  bool eos = false;
  std::vector<std::uint64_t> boundaries;
  std::vector<std::uint64_t> chunk_ends;      // fingerprint mode only
  std::vector<dedup::ChunkDigest> digests;    // 1:1 with chunk_ends
  StageSeconds stages;
  gpu::KernelRunStats kernel_stats;
  gpu::KernelRunStats fingerprint_stats;
  // Absolute end offset of the stream bytes staged so far; on eos, the
  // stream's total byte count.
  std::uint64_t payload_end = 0;
  // Scheduler context echoed from the StreamBuffer (see StreamBuffer).
  double sched_credit = 0;
  std::uint32_t queue_depth = 0;
};

// Modelled Store-stage seconds for one batch: one D2H DMA descriptor
// carrying the boundary array AND the digest array when the fingerprint
// stage ran (digest_bytes = sizeof(ChunkDigest) * n_digests; the two arrays
// are contiguous in the device result region, so a single transfer per
// buffer brings both back), plus per-boundary filter handling.
double store_stage_seconds(const gpu::DeviceSpec& spec,
                           std::size_t n_boundaries, bool pinned,
                           std::size_t digest_bytes = 0) noexcept;

struct PipelineEngineConfig {
  GpuMode mode = GpuMode::kStreamsCoalesced;
  std::size_t slot_bytes = 0;  // staging slot size = buffer_bytes + (w-1)
  std::size_t ring_slots = 4;  // pinned ring = number of leasable slots
  KernelParams kernel;         // coalesced flag is derived from `mode`
  // Adds the on-device fingerprint stage: after the chunking kernel, a
  // SHA-256 kernel hashes every resolved chunk over the same staged bytes
  // and the digests ride back with the batch; the trailing chunk
  // closes on the stream's eos StreamBuffer, which every producer submits.
  bool fingerprint = false;
  // Optional metrics registry (borrowed; must outlive the engine). The
  // engine publishes pipeline.buffers_total / pipeline.bytes_total, the
  // per-stage virtual-second timings and the pipeline.slots_leased gauge.
  // Null => no metrics, zero cost.
  obs::Registry* registry = nullptr;

  void validate() const;
};

// The frontend's Store stage. Both callbacks run on the engine's kernel
// thread. on_batch receives every batch, in global submission order, while
// the batch's item still leases its slot; a throw from it fails the engine
// the way a failing kernel does. on_failure (optional) hears the engine's
// first failure once, after every queued buffer has been dropped; it must
// not throw. Neither may call back into the engine.
struct BatchConsumer {
  std::function<void(BoundaryBatch&)> on_batch;
  std::function<void(std::exception_ptr)> on_failure = nullptr;
};

class PipelineEngine {
 public:
  // The engine borrows `device`, `tables` and `chunker`; all three must
  // outlive it, and so must everything `consumer` touches. Throws
  // std::invalid_argument on bad configuration, and when the engine's
  // device buffers (two in the pipelined modes, one in basic) of
  // slot_bytes each exceed the device's global memory; both are checked
  // before the ring is built and the kernel thread starts.
  PipelineEngine(const PipelineEngineConfig& config, gpu::Device& device,
                 const rabin::RabinTables& tables,
                 const chunking::ChunkerConfig& chunker,
                 BatchConsumer consumer);
  ~PipelineEngine();

  PipelineEngine(const PipelineEngine&) = delete;
  PipelineEngine& operator=(const PipelineEngine&) = delete;

  // Stages `buf` behind its stream's window carry and hands it to the
  // kernel thread: leases a ring slot (blocking while all slots are in
  // flight — this is the backpressure point) and copies carry ++ payload
  // into it. An eos buffer closes the stream and drops its staging state.
  // Returns false once the engine has failed or stopped. Each stream has
  // one submitting thread, which submits its buffers in stream order;
  // different streams may submit concurrently.
  bool submit(const StreamBuffer& buf);

  // End of input: closes it, waits until the consumer has had every
  // submitted batch, joins the kernel thread and rethrows the engine's
  // failure, if any (once). Call it after the last submit() returns.
  void drain();

  // Hard-stops the pipeline: wakes any producer blocked on a slot lease
  // (their submit returns false), drops the buffers still queued and joins
  // the kernel thread. Idempotent; also runs from the destructor.
  void stop();

  // One-time pinned-ring construction cost (streams modes only).
  double init_seconds() const noexcept { return init_seconds_; }
  std::size_t ring_slots() const noexcept { return config_.ring_slots; }
  bool pipelined() const noexcept { return config_.mode != GpuMode::kBasic; }
  bool fingerprints() const noexcept { return config_.fingerprint; }
  const gpu::DeviceSpec& device_spec() const noexcept { return device_.spec(); }
  const chunking::ChunkerConfig& chunker() const noexcept { return chunker_; }
  // Ring slots currently leased: buffers between submit() and the end of
  // their Store stage. 0 after full drains.
  std::size_t slots_leased() const;

 private:
  // A submitted buffer on its way through the stages. `lease` holds the
  // staged bytes (carry ++ payload) in a leased ring slot. It ends with the
  // item, when the consumer has returned from the item's batch.
  struct StagedItem {
    std::uint32_t stream_id = 0;
    std::uint64_t seq = 0;
    bool eos = false;
    // Absolute stream offset of the first staged byte; on eos, the stream's
    // total byte count.
    std::uint64_t base_offset = 0;
    std::size_t carry = 0;  // leading window-context bytes of `lease`
    SlotLease lease;
    double reader_seconds = 0;
    double sched_credit = 0;
    std::uint32_t queue_depth = 0;
  };

  // One open stream's staging state: the last w-1 staged bytes (fewer at
  // the stream's start), the payload bytes staged so far and the next
  // sequence number.
  struct StreamCursor {
    ByteVec carry;
    std::uint64_t offset = 0;
    std::uint64_t next_seq = 0;
  };

  // Per-stream device-resident fingerprint state (kernel thread only):
  // the min/max cutter resolving final chunk ends and the running SHA-256
  // of the open chunk. Defined in pipeline.cc.
  struct FingerprintSession;

  FingerprintSession& fp_session(std::uint32_t stream_id);
  void fingerprint_batch(StagedItem& item, BoundaryBatch& batch);
  void finish_fingerprint(std::uint32_t stream_id, std::uint64_t total,
                          BoundaryBatch& batch);

  void fail();
  void kernel_loop();

  PipelineEngineConfig config_;
  gpu::Device& device_;
  const rabin::RabinTables& tables_;
  const chunking::ChunkerConfig& chunker_;
  const BatchConsumer consumer_;
  // Metric handles resolved once at construction (null when no registry):
  // submit() and the kernel thread touch them lock-free on the hot path.
  obs::Counter* m_buffers_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;
  obs::Timing* m_reader_s_ = nullptr;
  obs::Timing* m_h2d_s_ = nullptr;
  obs::Timing* m_kernel_s_ = nullptr;
  obs::Timing* m_fingerprint_s_ = nullptr;
  KernelParams kparams_;
  gpu::HostMemKind host_kind_;
  double init_seconds_ = 0;

  // The staging ring + free-slot accounting, in every mode. Declared before
  // the queue and the thread, so every lease an item still holds returns to
  // it before it dies.
  std::unique_ptr<detail::SlotPool> pool_;

  // Staging state of every stream that has submitted data and not yet its
  // eos, keyed by stream id.
  Mutex cursors_mutex_;
  std::unordered_map<std::uint32_t, StreamCursor> cursors_
      GUARDED_BY(cursors_mutex_);

  BoundedQueue<StagedItem> to_kernel_;

  // Kernel-thread-only: one fingerprint session per live stream.
  std::unordered_map<std::uint32_t, std::unique_ptr<FingerprintSession>>
      fp_sessions_;

  // Set by stop(): the kernel thread drops what is still queued.
  std::atomic<bool> stopped_{false};
  // The first failure: written by the kernel thread, read by drain() after
  // the join.
  std::exception_ptr error_;
  std::thread kernel_thread_;
};

// One stream's Store stage (paper §4.2, Figure 8), the single consumer of a
// stream's BoundaryBatches for both frontends: Shredder::run's one stream
// and each service::ChunkingService tenant. Fed every batch of the stream in
// stream order, ending with its eos batch, it
//  * resolves final chunks: the host MinMaxFilter over raw boundaries, or
//    the engine's (chunk_ends, digests) pairs when the engine fingerprints;
//  * keeps the stream's chunks and digests;
//  * delivers one ChunkBatchView per batch that finalized chunks plus
//    exactly one eos view;
//  * prices the batch's D2H readback.
// Virtual-time composition and reporting stay with the frontend.
class StreamStore {
 public:
  // Reads `engine`'s configuration and borrows its device spec (the device
  // must outlive the store) and `sink` (may be null: chunks are only
  // collected).
  StreamStore(const PipelineEngine& engine, std::uint32_t stream_id,
              ChunkSink* sink);

  StreamStore(const StreamStore&) = delete;
  StreamStore& operator=(const StreamStore&) = delete;

  // Consumes the stream's next batch and returns the store-stage seconds it
  // charges, also written to batch.stages.store: the boundary (and digest)
  // readback for a data batch; at eos, the trailing digest's D2H (0 when
  // there is none). Aborts on a batch after eos, and when a fingerprinted
  // stream ends short of its total.
  double consume(BoundaryBatch& batch);

  const std::vector<chunking::Chunk>& chunks() const noexcept {
    return chunks_;
  }
  // Hand the stream's results over once it has ended.
  std::vector<chunking::Chunk> take_chunks() noexcept {
    return std::move(chunks_);
  }
  std::vector<dedup::ChunkDigest> take_digests() noexcept {
    return std::move(digests_);
  }

 private:
  void emit_fingerprinted(const BoundaryBatch& batch);
  void deliver(std::size_t first, bool eos);

  const gpu::DeviceSpec& spec_;
  const bool pinned_;
  const std::uint32_t stream_id_;
  ChunkSink* const sink_;
  // Host-side chunk resolution; absent when the engine fingerprints.
  std::optional<chunking::MinMaxFilter> filter_;
  std::uint64_t last_end_ = 0;
  std::vector<chunking::Chunk> chunks_;
  std::vector<dedup::ChunkDigest> digests_;  // fingerprint mode, 1:1 chunks
  std::uint64_t batch_seq_ = 0;  // delivered-batch ordinal
  bool ended_ = false;
};

}  // namespace shredder::core
