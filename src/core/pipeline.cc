#include "core/pipeline.h"

#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "gpusim/dma.h"

namespace shredder::core {

double store_stage_seconds(const gpu::DeviceSpec& spec,
                           std::size_t n_boundaries, bool pinned,
                           std::size_t digest_bytes) noexcept {
  const gpu::HostMemKind kind =
      pinned ? gpu::HostMemKind::kPinned : gpu::HostMemKind::kPageable;
  // Boundary and digest arrays ride back in ONE D2H DMA descriptor: the
  // fingerprint kernel writes its digests into the tail of the boundary
  // result region, so the readback is a single contiguous transfer and the
  // per-transfer setup cost is paid once per buffer instead of twice.
  return gpu::dma_seconds(
             spec, static_cast<std::uint64_t>(n_boundaries) * 8 + digest_bytes,
             gpu::Direction::kDeviceToHost, kind) +
         static_cast<double>(n_boundaries) * 2e-9;
}

// Device-side chunk resolution for the fingerprint stage. The cutter is a
// MinMaxFilter fed the buffer's raw boundaries plus a drain_forced() at each
// buffer end, which makes every chunk end at or before the buffer's last
// payload byte final while the bytes are still resident — the emitted
// sequence is provably identical to the plain store-side filter's (see
// drain_forced in chunking/minmax.h). `ctx` accumulates the open chunk's
// hash across buffers so chunks larger than a buffer never need evicted
// bytes re-read.
struct PipelineEngine::FingerprintSession {
  std::vector<std::uint64_t> pending;  // cuts resolved for the current buffer
  chunking::MinMaxFilter cutter;
  dedup::ChunkHasher ctx;

  FingerprintSession(std::uint64_t min_size, std::uint64_t max_size)
      : cutter(min_size, max_size,
               [this](std::uint64_t end) { pending.push_back(end); }) {}
};

void PipelineEngineConfig::validate() const {
  if (slot_bytes == 0) {
    throw std::invalid_argument("PipelineEngineConfig: slot_bytes must be > 0");
  }
  if (ring_slots == 0) {
    throw std::invalid_argument(
        "PipelineEngineConfig: ring_slots must be >= 1");
  }
  if (kernel.blocks <= 0 || kernel.threads_per_block <= 0) {
    throw std::invalid_argument("PipelineEngineConfig: bad kernel geometry");
  }
}

PipelineEngine::PipelineEngine(const PipelineEngineConfig& config,
                               gpu::Device& device,
                               const rabin::RabinTables& tables,
                               const chunking::ChunkerConfig& chunker,
                               BatchConsumer consumer)
    : config_(config),
      device_(device),
      tables_(tables),
      chunker_(chunker),
      consumer_(std::move(consumer)),
      kparams_(config.kernel),
      host_kind_(config.mode != GpuMode::kBasic ? gpu::HostMemKind::kPinned
                                                : gpu::HostMemKind::kPageable),
      to_kernel_(config.ring_slots) {
  config_.validate();
  // The engine's device buffers, two in the pipelined modes (double
  // buffering, §4.1.1) and one in basic, must fit the device's global
  // memory. Checked before the ring is built, so a refused configuration
  // allocates nothing.
  if ((pipelined() ? 2 : 1) * static_cast<std::uint64_t>(config_.slot_bytes) >
      device_.spec().global_mem_bytes) {
    throw std::invalid_argument(
        "PipelineEngine: buffers exceed the device's global memory");
  }
  kparams_.coalesced = config_.mode == GpuMode::kStreamsCoalesced;
  if (config_.registry != nullptr) {
    obs::Registry& reg = *config_.registry;
    m_buffers_ = &reg.counter("pipeline.buffers_total");
    m_bytes_ = &reg.counter("pipeline.bytes_total");
    m_reader_s_ = &reg.timing("pipeline.stage_seconds", {{"stage", "reader"}});
    m_h2d_s_ = &reg.timing("pipeline.stage_seconds", {{"stage", "h2d"}});
    m_kernel_s_ = &reg.timing("pipeline.stage_seconds", {{"stage", "kernel"}});
    m_fingerprint_s_ =
        &reg.timing("pipeline.stage_seconds", {{"stage", "fingerprint"}});
  }
  // Basic mode stages through the same ring but models pageable memory: no
  // pinned-ring construction cost, pageable DMA pricing.
  pool_ = std::make_unique<detail::SlotPool>(
      device_.spec(), config_.ring_slots, config_.slot_bytes,
      config_.registry != nullptr
          ? &config_.registry->gauge("pipeline.slots_leased")
          : nullptr);
  if (pipelined()) init_seconds_ = pool_->construction_cost_seconds();
  kernel_thread_ = std::thread([this] { kernel_loop(); });
}

PipelineEngine::~PipelineEngine() { stop(); }

void PipelineEngine::stop() {
  stopped_.store(true);
  pool_->stop();
  to_kernel_.close();
  if (kernel_thread_.joinable()) kernel_thread_.join();
}

void PipelineEngine::drain() {
  to_kernel_.close();
  if (kernel_thread_.joinable()) kernel_thread_.join();
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

std::size_t PipelineEngine::slots_leased() const { return pool_->leased(); }

// Called from the kernel thread's catch block: keep the exception for
// drain(), unblock every producer waiting on a slot lease or the full input
// queue, drop the queued buffers (their slots return to the ring) and tell
// the consumer.
void PipelineEngine::fail() {
  error_ = std::current_exception();
  pool_->stop();
  to_kernel_.close();
  while (to_kernel_.try_pop().has_value()) {
  }
  if (consumer_.on_failure) consumer_.on_failure(error_);
}

bool PipelineEngine::submit(const StreamBuffer& buf) {
  SHREDDER_CHECK_MSG(!buf.eos || buf.payload.empty(),
                     "PipelineEngine: eos buffers must carry no data");
  StagedItem item;
  item.stream_id = buf.stream_id;
  item.eos = buf.eos;
  item.reader_seconds = buf.reader_seconds;
  item.sched_credit = buf.sched_credit;
  item.queue_depth = buf.queue_depth;
  if (buf.eos) {
    // A stream that never staged a byte has no cursor: seq 0, total 0.
    MutexLock lock(cursors_mutex_);
    const auto it = cursors_.find(buf.stream_id);
    if (it != cursors_.end()) {
      item.seq = it->second.next_seq;
      item.base_offset = it->second.offset;
      cursors_.erase(it);
    }
  } else {
    if (m_buffers_ != nullptr) {
      m_buffers_->add(1);
      m_bytes_->add(buf.payload.size());  // payload only; carry repeats
    }
    // Lease the slot before taking the cursor lock: acquire() blocks on
    // backpressure, and other streams' submitters must not wait behind it.
    const std::optional<std::size_t> slot = pool_->acquire();
    if (!slot.has_value()) return false;
    MutableByteSpan staged;
    {
      MutexLock lock(cursors_mutex_);
      StreamCursor& c = cursors_[buf.stream_id];
      item.seq = c.next_seq++;
      item.carry = c.carry.size();
      item.base_offset = c.offset - item.carry;
      const std::size_t len = item.carry + buf.payload.size();
      SHREDDER_CHECK_MSG(len <= config_.slot_bytes,
                         "PipelineEngine: buffer exceeds the staging slot");
      staged = pool_->slot_span(*slot).first(len);
      if (item.carry > 0) {
        std::memcpy(staged.data(), c.carry.data(), item.carry);
      }
      c.offset += buf.payload.size();
      // The next buffer's window context: the last w-1 bytes staged so far.
      const std::size_t cap = chunker_.window - 1;
      if (buf.payload.size() >= cap) {
        c.carry.assign(buf.payload.end() - static_cast<std::ptrdiff_t>(cap),
                       buf.payload.end());
      } else {
        c.carry.insert(c.carry.end(), buf.payload.begin(), buf.payload.end());
        if (c.carry.size() > cap) {
          c.carry.erase(c.carry.begin(),
                        c.carry.end() - static_cast<std::ptrdiff_t>(cap));
        }
      }
    }
    if (!buf.payload.empty()) {
      std::memcpy(staged.data() + item.carry, buf.payload.data(),
                  buf.payload.size());
    }
    // The staged bytes are the engine's only host copy; the lease travels
    // with the item until the consumer is done with its batch.
    item.lease = SlotLease::from_slot(*pool_, *slot, staged.size());
  }
  // On push failure the moved-from item is destroyed inside push(); its
  // lease drops and the slot recycles automatically.
  return to_kernel_.push(std::move(item));
}

PipelineEngine::FingerprintSession& PipelineEngine::fp_session(
    std::uint32_t stream_id) {
  auto it = fp_sessions_.find(stream_id);
  if (it == fp_sessions_.end()) {
    it = fp_sessions_
             .emplace(stream_id, std::make_unique<FingerprintSession>(
                                     chunker_.min_size, chunker_.max_size))
             .first;
  }
  return *it->second;
}

// Runs the fingerprint kernel for one chunked buffer: resolve the chunk ends
// this buffer makes final, hash them over the staged slot the chunking
// kernel read, and attach (ends, digests, stage seconds) to the batch.
void PipelineEngine::fingerprint_batch(StagedItem& item, BoundaryBatch& batch) {
  FingerprintSession& s = fp_session(item.stream_id);
  s.pending.clear();
  for (const std::uint64_t b : batch.boundaries) s.cutter.push(b);
  s.cutter.drain_forced(batch.payload_end);
  GpuFingerprintResult fr = fingerprint_on_gpu(
      device_, item.lease.bytes(), item.carry, item.base_offset, s.pending,
      s.ctx, kparams_);
  batch.stages.fingerprint = fr.stats.virtual_seconds;
  batch.fingerprint_stats = fr.stats;
  batch.chunk_ends = std::move(s.pending);
  batch.digests = std::move(fr.digests);
  s.pending = {};
}

// eos: closes the stream's trailing chunk. All payload bytes have already
// been absorbed into the carried hash context, so the final digest needs no
// device work beyond the finalize round.
void PipelineEngine::finish_fingerprint(std::uint32_t stream_id,
                                        std::uint64_t total,
                                        BoundaryBatch& batch) {
  const auto it = fp_sessions_.find(stream_id);
  if (it == fp_sessions_.end()) return;  // empty stream: nothing to close
  FingerprintSession& s = *it->second;
  s.pending.clear();
  s.cutter.finish(total);
  SHREDDER_CHECK_MSG(s.pending.size() <= 1,
                     "fingerprint eos resolved more than the trailing chunk");
  if (!s.pending.empty()) {
    batch.chunk_ends = std::move(s.pending);
    batch.digests.push_back(s.ctx.finish());
  }
  fp_sessions_.erase(it);
}

void PipelineEngine::kernel_loop() {
  try {
    while (auto item = to_kernel_.pop()) {
      if (stopped_.load()) continue;  // stop() drops what is still queued
      BoundaryBatch batch;
      batch.stream_id = item->stream_id;
      batch.seq = item->seq;
      if (item->eos) {
        batch.eos = true;
        // For eos markers base_offset carries the stream's total byte count
        // so the consumer can finalize without extra synchronization.
        batch.payload_end = item->base_offset;
        if (config_.fingerprint) {
          finish_fingerprint(batch.stream_id, batch.payload_end, batch);
        }
        consumer_.on_batch(batch);
        continue;
      }
      // The kernels read the leased slot in place; the H2D DMA that would
      // have carried it to the device is priced, not performed.
      GpuChunkResult kr = chunk_on_gpu(
          device_, item->lease.bytes(), item->carry, item->base_offset,
          tables_, chunker_, kparams_);
      batch.stages.reader = item->reader_seconds;
      batch.stages.transfer =
          gpu::dma_seconds(device_.spec(), item->lease.size(),
                           gpu::Direction::kHostToDevice, host_kind_);
      batch.stages.kernel = kr.stats.virtual_seconds;
      batch.kernel_stats = kr.stats;
      batch.boundaries = std::move(kr.boundaries);
      batch.payload_end = item->base_offset + item->lease.size();
      batch.sched_credit = item->sched_credit;
      batch.queue_depth = item->queue_depth;
      if (m_reader_s_ != nullptr) {
        m_reader_s_->observe(batch.stages.reader);
        m_h2d_s_->observe(batch.stages.transfer);
        m_kernel_s_->observe(batch.stages.kernel);
      }
      if (config_.fingerprint) {
        // The hash kernel reads the same slot, still leased by the item.
        fingerprint_batch(*item, batch);
        if (m_fingerprint_s_ != nullptr) {
          m_fingerprint_s_->observe(batch.stages.fingerprint);
        }
      }
      // The Store stage. The item, and with it the slot's lease, ends after
      // it returns, so a stalled consumer holds the slot.
      consumer_.on_batch(batch);
    }
  } catch (...) {
    fail();
  }
}

StreamStore::StreamStore(const PipelineEngine& engine, std::uint32_t stream_id,
                         ChunkSink* sink)
    : spec_(engine.device_spec()),
      pinned_(engine.pipelined()),
      stream_id_(stream_id),
      sink_(sink) {
  // In fingerprint mode the engine is the sole chunk-emission mechanism, so
  // the host filter is not even constructed.
  if (!engine.fingerprints()) {
    filter_.emplace(engine.chunker().min_size, engine.chunker().max_size,
                    [this](std::uint64_t end) {
                      chunks_.push_back({last_end_, end - last_end_});
                      last_end_ = end;
                    });
  }
}

double StreamStore::consume(BoundaryBatch& batch) {
  SHREDDER_CHECK_MSG(!ended_, "StreamStore: batch after end of stream");
  const std::size_t first = chunks_.size();
  const std::size_t digest_bytes =
      batch.digests.size() * sizeof(dedup::ChunkDigest);
  if (batch.eos) {
    ended_ = true;
    // The trailing chunk's digest still crosses the bus although the eos
    // batch carries no boundaries.
    if (digest_bytes > 0) {
      batch.stages.store = store_stage_seconds(spec_, 0, pinned_, digest_bytes);
    }
    // For eos batches payload_end is the stream's total byte count.
    if (filter_.has_value()) {
      filter_->finish(batch.payload_end);
    } else {
      emit_fingerprinted(batch);
      SHREDDER_CHECK_MSG(last_end_ == batch.payload_end,
                         "fingerprint stream ended short of the stream total");
    }
    deliver(first, /*eos=*/true);
    return batch.stages.store;
  }
  // Copy boundaries (and digests) back device -> host, then resolve chunks.
  batch.stages.store = store_stage_seconds(spec_, batch.boundaries.size(),
                                           pinned_, digest_bytes);
  if (filter_.has_value()) {
    for (const std::uint64_t b : batch.boundaries) filter_->push(b);
  } else {
    emit_fingerprinted(batch);
  }
  deliver(first, /*eos=*/false);
  return batch.stages.store;
}

// Pairs the engine's resolved chunk ends with their digests, rebuilding
// each chunk from the stream's previous end offset.
void StreamStore::emit_fingerprinted(const BoundaryBatch& batch) {
  for (std::size_t i = 0; i < batch.chunk_ends.size(); ++i) {
    chunks_.push_back({last_end_, batch.chunk_ends[i] - last_end_});
    digests_.push_back(batch.digests[i]);
    last_end_ = batch.chunk_ends[i];
  }
}

// One ChunkBatchView over the chunks appended since `first`: skipped for
// chunkless data batches, always sent at eos so sinks have a flush point.
void StreamStore::deliver(std::size_t first, bool eos) {
  if (sink_ == nullptr || (!eos && chunks_.size() == first)) return;
  ChunkBatchView view;
  view.stream_id = stream_id_;
  view.stream_seq = batch_seq_++;
  view.eos = eos;
  view.chunks = std::span<const chunking::Chunk>(chunks_).subspan(first);
  if (!filter_.has_value()) {
    view.digests = std::span<const dedup::ChunkDigest>(digests_).subspan(first);
  }
  sink_->on_batch(view);
}

}  // namespace shredder::core
