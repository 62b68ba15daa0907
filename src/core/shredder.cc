#include "core/shredder.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

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

ShredderResult Shredder::run_impl(DataSource& source, ChunkSink* sink) {
  const Stopwatch wall;
  ShredderResult result;
  const bool pipelined = config_.mode != GpuMode::kBasic;
  const bool fingerprint = config_.fingerprint_on_device;

  PipelineEngineConfig engine_cfg;
  engine_cfg.mode = config_.mode;
  engine_cfg.slot_bytes = config_.buffer_bytes + config_.chunker.window - 1;
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
  StreamStore store(engine, /*stream_id=*/0, sink);

  // --- The pipeline ---
  // The Reader stage runs on one thread: it takes each buffer from the
  // source as a view and submits it, and submit() copies it into the
  // pinned ring. The kernel thread, which also prices each buffer's H2D,
  // lives inside the engine; the Store stage runs on this thread, matching
  // Figure 8's four stages.
  std::vector<StageSeconds> stage_log;
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;

  std::exception_ptr read_error;
  std::thread reader([&] {
    try {
      StreamBuffer sb;
      for (;;) {
        const ByteSpan got = source.next(config_.buffer_bytes);
        if (got.empty()) break;
        sb.payload = got;
        sb.reader_seconds = source.read_seconds(got.size());
        if (!engine.submit(sb)) return;
      }
      // The stream ends on an eos marker, which closes its trailing chunk.
      StreamBuffer eos;
      eos.eos = true;
      if (!engine.submit(eos)) return;
      engine.close();
    } catch (...) {
      read_error = std::current_exception();
      engine.close();
    }
  });

  // Store stage runs on this thread. A pipeline-stage failure surfaces as a
  // rethrow from next_batch(); capture it so the reader thread can be
  // unblocked and joined before the exception propagates.
  std::exception_ptr store_error;
  try {
    while (auto batch = engine.next_batch()) {
      total_bytes = batch->payload_end;
      const double store_seconds = store.consume(*batch);
      if (batch->eos) {
        // Only a trailing digest's D2H makes the eos batch a stage entry.
        if (!batch->digests.empty()) stage_log.push_back(batch->stages);
        continue;
      }
      if (m_store_s != nullptr) m_store_s->observe(store_seconds);
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
    engine.stop();  // wakes a reader blocked on a slot lease
  }
  reader.join();
  if (store_error) std::rethrow_exception(store_error);
  if (read_error) std::rethrow_exception(read_error);

  // --- Reporting ---
  result.chunks = store.take_chunks();
  result.digests = store.take_digests();
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
  return run_impl(source, &sink);
}

ShredderResult Shredder::run(ByteSpan data, ChunkSink& sink) {
  MemorySource source(data, config_.host.reader_bw);
  return run_impl(source, &sink);
}

ShredderResult Shredder::run(DataSource& source) {
  return run_impl(source, nullptr);
}

ShredderResult Shredder::run(ByteSpan data) {
  MemorySource source(data, config_.host.reader_bw);
  return run_impl(source, nullptr);
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
