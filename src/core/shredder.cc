#include "core/shredder.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

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
  const bool fingerprint = config_.fingerprint_on_device;

  // The Store stage, run by the engine's kernel thread after each buffer's
  // kernels. It touches only what is declared before the engine, so the
  // engine's destructor joins the kernel thread before any of it dies, on
  // every exit path.
  std::optional<StreamStore> store;
  obs::Timing* m_store_s = nullptr;
  StageSeconds stage_sums;  // over every stage entry, in delivery order
  const auto log_stages = [&](const StageSeconds& s) {
    stage_sums += s;
    result.serialized_seconds += s.sum();
  };
  PipelineEngineConfig engine_cfg;
  engine_cfg.mode = config_.mode;
  engine_cfg.slot_bytes = config_.buffer_bytes + config_.chunker.window - 1;
  engine_cfg.ring_slots = config_.ring_slots;
  engine_cfg.kernel = config_.kernel;
  engine_cfg.fingerprint = fingerprint;
  engine_cfg.registry = config_.registry;
  PipelineEngine engine(
      engine_cfg, *device_, tables_, config_.chunker,
      {.on_batch = [&](BoundaryBatch& batch) {
        result.total_bytes = batch.payload_end;
        const double store_seconds = store->consume(batch);
        if (batch.eos) {
          // Only a trailing digest's D2H makes the eos batch a stage entry.
          if (!batch.digests.empty()) log_stages(batch.stages);
          return;
        }
        if (m_store_s != nullptr) m_store_s->observe(store_seconds);
        result.raw_boundaries += batch.boundaries.size();
        ++result.n_buffers;
        log_stages(batch.stages);
        result.kernel_totals += batch.kernel_stats;
        if (fingerprint) result.fingerprint_totals += batch.fingerprint_stats;
      }});
  // Built after the engine, which refuses a bad configuration first.
  store.emplace(engine, /*stream_id=*/0, sink);
  if (config_.registry != nullptr) {
    m_store_s = &config_.registry->timing("core.store_seconds");
  }
  result.init_seconds = engine.init_seconds();

  // --- The pipeline ---
  // This thread is the Reader stage: it takes each buffer from the source
  // as a view and submits it, and submit() copies it into the ring. The
  // kernel thread prices each buffer's H2D, runs the kernels and then the
  // Store stage above: Figure 8's four stages on two host threads, their
  // overlap priced by the makespan below. A failed engine refuses the next
  // submit, and drain() rethrows its failure.
  StreamBuffer sb;
  for (;;) {
    const ByteSpan got = source.next(config_.buffer_bytes);
    if (got.empty()) break;
    sb.payload = got;
    sb.reader_seconds = source.read_seconds(got.size());
    if (!engine.submit(sb)) break;
  }
  // The stream ends on an eos marker, which closes its trailing chunk.
  StreamBuffer eos;
  eos.eos = true;
  engine.submit(eos);
  engine.drain();

  // --- Reporting ---
  result.chunks = store->take_chunks();
  result.digests = store->take_digests();
  StageSeconds mean = stage_sums;
  if (result.n_buffers > 0) {
    const auto n = static_cast<double>(result.n_buffers);
    mean.reader /= n;
    mean.transfer /= n;
    mean.kernel /= n;
    mean.fingerprint /= n;
    mean.store /= n;
  }
  result.mean_stage_seconds = mean;
  if (config_.mode != GpuMode::kBasic) {
    // Chunk and hash kernels share the one compute engine, so they form a
    // single pipeline stage: buffer i+1's chunk kernel cannot start while
    // buffer i's hash kernel holds the engine.
    result.virtual_seconds = gpu::pipeline_makespan(
        {mean.reader, mean.transfer, mean.kernel + mean.fingerprint,
         mean.store},
        result.n_buffers, config_.ring_slots);
  } else {
    result.virtual_seconds = result.serialized_seconds;
  }
  result.virtual_throughput_bps =
      result.virtual_seconds > 0
          ? static_cast<double>(result.total_bytes) / result.virtual_seconds
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
