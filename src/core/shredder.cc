#include "core/shredder.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "chunking/minmax.h"
#include "chunking/parallel.h"
#include "common/check.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "gpusim/dma.h"
#include "gpusim/timeline.h"

namespace shredder::core {

void ShredderConfig::validate() const {
  chunker.validate();
  if (buffer_bytes < chunker.window * 2) {
    throw std::invalid_argument("ShredderConfig: buffer_bytes too small");
  }
  if (ring_slots == 0) {
    throw std::invalid_argument("ShredderConfig: ring_slots must be >= 1");
  }
  if (kernel.blocks <= 0 || kernel.threads_per_block <= 0) {
    throw std::invalid_argument("ShredderConfig: bad kernel geometry");
  }
}

Shredder::Shredder(ShredderConfig config)
    : config_(std::move(config)),
      tables_(config_.chunker.window) {
  config_.validate();
  device_ = std::make_unique<gpu::Device>(config_.device, config_.sim_threads);
}

ShredderResult Shredder::run_impl(DataSource& source, ChunkSink* sink,
                                  ByteSpan whole) {
  const Stopwatch wall;
  ShredderResult result;
  const std::size_t carry_bytes = config_.chunker.window - 1;
  const bool pipelined = config_.mode != GpuMode::kBasic;
  const bool fingerprint = config_.fingerprint_on_device;
  // Streaming sources only retain payload leases when the sink asks; an
  // in-memory `whole` span provides views for free.
  const bool rolling =
      whole.empty() && sink != nullptr && sink->wants_payload();

  PipelineEngineConfig engine_cfg;
  engine_cfg.mode = config_.mode;
  engine_cfg.slot_bytes = config_.buffer_bytes + carry_bytes;
  engine_cfg.ring_slots = config_.ring_slots;
  engine_cfg.kernel = config_.kernel;
  engine_cfg.fingerprint = fingerprint;
  engine_cfg.registry = config_.registry;
  PipelineEngine engine(engine_cfg, *device_, tables_, config_.chunker);
  result.init_seconds = engine.init_seconds();
  obs::Timing* m_store_s =
      config_.registry != nullptr
          ? &config_.registry->timing("core.store_seconds")
          : nullptr;

  // Store-side state: min/max filter resolving final chunks. In fingerprint
  // mode the chunk ends arrive already resolved (the engine runs the min/max
  // cut on the device side), paired with their digests.
  std::uint64_t last_end = 0;
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;
  // Only the non-fingerprint path resolves chunks host-side; in fingerprint
  // mode the engine is the sole chunk-emission mechanism, so don't even
  // construct the filter.
  std::optional<chunking::MinMaxFilter> filter;
  if (!fingerprint) {
    filter.emplace(config_.chunker.min_size, config_.chunker.max_size,
                   [&](std::uint64_t end) {
                     chunks.push_back({last_end, end - last_end});
                     last_end = end;
                   });
  }

  // Batch delivery to the sink: one ChunkBatchView per buffer that finalized
  // chunks (spans over the tails of `chunks`/`digests`), plus one eos batch.
  PayloadTail tail;             // rolling lease window (streaming sinks)
  // Single consumer draining the engine directly: park up to the
  // recommended number of slots in the tail for zero-copy views while
  // always leaving the pipeline a slot to circulate.
  tail.set_slot_cap(PayloadTail::recommended_slot_cap(config_.ring_slots));
  std::uint64_t batch_seq = 0;
  const auto deliver = [&](std::size_t first, bool eos) {
    if (sink == nullptr) return;
    if (!eos && chunks.size() == first) return;
    ChunkBatchView view;
    view.stream_id = 0;
    view.stream_seq = batch_seq++;
    view.eos = eos;
    view.chunks = std::span<const chunking::Chunk>(chunks).subspan(first);
    if (fingerprint) {
      view.digests =
          std::span<const dedup::ChunkDigest>(digests).subspan(first);
    }
    if (!whole.empty()) {
      view.payload = whole;
      view.payload_base = 0;
    } else if (rolling) {
      view.payload = tail.window();
      view.payload_base = tail.window_base();
      view.tail = &tail;
    }
    sink->on_batch(view);
  };

  // --- The pipeline ---
  // Reader runs inside AsyncReader's thread; a feeder thread stages its
  // buffers into the engine (transfer + kernel threads live inside it);
  // the Store stage runs on this thread, matching Figure 8's four stages.
  std::vector<StageSeconds> stage_log;
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;

  std::exception_ptr feed_error;
  std::thread feeder([&] {
    try {
      AsyncReader reader(source, config_.buffer_bytes, carry_bytes,
                         /*queue_depth=*/pipelined ? config_.ring_slots : 1);
      std::uint64_t submitted_end = 0;
      std::uint64_t next_seq = 0;
      while (auto buf = reader.next()) {
        StreamBuffer sb;
        sb.stream_id = 0;
        sb.seq = buf->index;
        sb.carry = buf->carry;
        sb.base_offset = buf->stream_offset - buf->carry;
        sb.reader_seconds = buf->read_seconds;
        sb.data = std::move(buf->data);
        submitted_end = sb.base_offset + sb.data.size();
        next_seq = sb.seq + 1;
        if (!engine.submit(std::move(sb))) return;
      }
      if (fingerprint) {
        // The trailing chunk only closes at end of stream; tell the engine.
        StreamBuffer eos;
        eos.stream_id = 0;
        eos.seq = next_seq;
        eos.eos = true;
        eos.base_offset = submitted_end;
        if (!engine.submit(std::move(eos))) return;
      }
      engine.close();
    } catch (...) {
      feed_error = std::current_exception();
      engine.close();
    }
  });

  // Store stage runs on this thread. A pipeline-stage failure surfaces as a
  // rethrow from next_batch(); capture it so the feeder thread can be
  // unblocked and joined before the exception propagates.
  std::exception_ptr store_error;
  // Emits the batch's finalized chunks with their device digests.
  const auto emit_fingerprinted = [&](const BoundaryBatch& batch) {
    for_each_fingerprinted_chunk(
        batch, last_end, [&](const chunking::Chunk& c,
                             const dedup::ChunkDigest& d) {
          chunks.push_back(c);
          digests.push_back(d);
        });
  };
  try {
  while (auto batch = engine.next_batch()) {
    total_bytes = batch->payload_end;
    const std::size_t batch_first = chunks.size();
    if (batch->eos) {
      // Fingerprint mode: the stream's trailing chunk closes here. Its
      // digest still crosses the bus, so account the D2H even though the
      // eos batch carries no boundaries.
      if (!batch->digests.empty()) {
        batch->stages.store = store_stage_seconds(
            config_.device, 0, pipelined,
            batch->digests.size() * sizeof(dedup::ChunkDigest));
        stage_log.push_back(batch->stages);
      }
      emit_fingerprinted(*batch);
      deliver(batch_first, /*eos=*/true);
      continue;
    }
    if (rolling && !batch->payload.empty()) {
      // Zero-copy retention: the batch's lease moves into the tail, keeping
      // the pinned slot (or basic-mode vector) alive for payload views.
      tail.append(std::move(batch->payload), batch->payload_carry);
    }
    // Copy boundaries (and digests) back device -> host, then resolve
    // chunks: min/max filter here, or the engine's pre-cut chunk ends.
    batch->stages.store = store_stage_seconds(
        config_.device, batch->boundaries.size(), pipelined,
        batch->digests.size() * sizeof(dedup::ChunkDigest));
    if (m_store_s != nullptr) m_store_s->observe(batch->stages.store);
    if (fingerprint) {
      emit_fingerprinted(*batch);
    } else {
      for (std::uint64_t b : batch->boundaries) filter->push(b);
    }
    deliver(batch_first, /*eos=*/false);
    if (rolling) tail.trim(last_end);
    result.raw_boundaries += batch->boundaries.size();
    ++n_buffers;
    stage_log.push_back(batch->stages);
    // Aggregate kernel statistics across buffers.
    result.kernel_totals += batch->kernel_stats;
    if (fingerprint) {
      result.fingerprint_totals += batch->fingerprint_stats;
    }
  }
  } catch (...) {
    store_error = std::current_exception();
    engine.stop();  // wakes a feeder blocked on a slot lease
  }
  feeder.join();
  if (store_error) std::rethrow_exception(store_error);
  if (feed_error) std::rethrow_exception(feed_error);

  if (!fingerprint) {
    const std::size_t batch_first = chunks.size();
    filter->finish(total_bytes);
    deliver(batch_first, /*eos=*/true);
  }

  // --- Reporting ---
  result.chunks = std::move(chunks);
  result.digests = std::move(digests);
  result.total_bytes = total_bytes;
  result.n_buffers = n_buffers;
  StageSeconds mean;
  for (const auto& s : stage_log) {
    mean.reader += s.reader;
    mean.transfer += s.transfer;
    mean.kernel += s.kernel;
    mean.fingerprint += s.fingerprint;
    mean.store += s.store;
    result.serialized_seconds += s.sum();
  }
  if (n_buffers > 0) {
    const auto n = static_cast<double>(n_buffers);
    mean.reader /= n;
    mean.transfer /= n;
    mean.kernel /= n;
    mean.fingerprint /= n;
    mean.store /= n;
  }
  result.mean_stage_seconds = mean;
  if (pipelined) {
    // Chunk and hash kernels share the one compute engine, so they form a
    // single pipeline stage: buffer i+1's chunk kernel cannot start while
    // buffer i's hash kernel holds the engine.
    result.virtual_seconds = gpu::pipeline_makespan(
        {mean.reader, mean.transfer, mean.kernel + mean.fingerprint,
         mean.store},
        n_buffers, config_.ring_slots);
  } else {
    result.virtual_seconds = result.serialized_seconds;
  }
  result.virtual_throughput_bps =
      result.virtual_seconds > 0
          ? static_cast<double>(total_bytes) / result.virtual_seconds
          : 0.0;
  result.wall_seconds = wall.elapsed_seconds();
  return result;
}

ShredderResult Shredder::run(DataSource& source, ChunkSink& sink) {
  return run_impl(source, &sink, {});
}

ShredderResult Shredder::run(ByteSpan data, ChunkSink& sink) {
  MemorySource source(data, config_.host.reader_bw);
  return run_impl(source, &sink, data);
}

ShredderResult Shredder::run(DataSource& source) {
  return run_impl(source, nullptr, {});
}

ShredderResult Shredder::run(ByteSpan data) {
  MemorySource source(data, config_.host.reader_bw);
  return run_impl(source, nullptr, data);
}

HostChunkResult chunk_on_host(ByteSpan data,
                              const chunking::ChunkerConfig& chunker,
                              const gpu::HostSpec& host, bool use_arena,
                              std::size_t threads) {
  HostChunkResult result;
  const Stopwatch wall;
  rabin::RabinTables tables(chunker.window);
  chunking::ParallelChunker parallel(
      tables, chunker, threads == 0 ? static_cast<std::size_t>(host.cores) : threads,
      use_arena ? chunking::AllocMode::kThreadArena
                : chunking::AllocMode::kSharedLockedHeap);
  result.chunks = parallel.chunk(data);
  result.total_bytes = data.size();
  result.wall_seconds = wall.elapsed_seconds();
  result.wall_throughput_bps =
      result.wall_seconds > 0
          ? static_cast<double>(data.size()) / result.wall_seconds
          : 0.0;
  const double chunk_bw = use_arena ? host.pthreads_chunking_bw_hoard
                                    : host.pthreads_chunking_bw_malloc;
  // Reader and chunking overlap (both are pipelined on the host); the
  // calibrated X5650 is chunking-bound either way.
  const double reader_s = static_cast<double>(data.size()) / host.reader_bw;
  const double chunk_s = static_cast<double>(data.size()) / chunk_bw;
  result.virtual_seconds = std::max(reader_s, chunk_s);
  result.virtual_throughput_bps =
      result.virtual_seconds > 0
          ? static_cast<double>(data.size()) / result.virtual_seconds
          : 0.0;
  return result;
}

}  // namespace shredder::core
