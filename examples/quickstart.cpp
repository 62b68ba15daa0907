// Quickstart: chunk a stream with Shredder and inspect the results.
//
// Builds a Shredder instance with the paper's default configuration
// (48-byte Rabin window, 13-bit marker => ~8 KB expected chunks), runs it
// over 64 MB of synthetic data, and prints the chunks' statistics plus the
// pipeline's virtual-time breakdown under the calibrated C2050 model.
//
//   ./quickstart [megabytes]
#include <cstdio>
#include <cstdlib>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/shredder.h"

int main(int argc, char** argv) {
  using namespace shredder;
  const std::uint64_t megabytes =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;

  // 1. Configure. ShredderConfig::chunker controls boundary selection;
  //    mode selects the optimization level (kStreamsCoalesced = the full
  //    paper system: pinned ring + double buffering + coalesced kernel).
  core::ShredderConfig config;
  config.chunker.window = 48;
  config.chunker.mask_bits = 13;
  config.chunker.min_size = 2 * 1024;
  config.chunker.max_size = 64 * 1024;
  config.buffer_bytes = 16ull << 20;
  config.mode = core::GpuMode::kStreamsCoalesced;
  core::Shredder shredder(config);

  // 2. Run over a data source. Chunks stream out through a ChunkSink: one
  //    batch per drained pipeline buffer, spans over everything the buffer
  //    finalized — no per-chunk dispatch. (Callers that only want the final
  //    chunk list use the sink-less shredder.run(data) and read the result.)
  struct StatsSink final : shredder::ChunkSink {
    Summary sizes;
    std::uint64_t batches = 0;
    void on_batch(const shredder::ChunkBatchView& batch) override {
      ++batches;
      for (const auto& c : batch.chunks) {
        sizes.add(static_cast<double>(c.size));
      }
      // A chunk's bytes are data[c.offset, c.offset + c.size): the batch
      // carries chunks (and digests) only, and the bytes stay with us.
    }
  } sink;
  const auto data = random_bytes(megabytes << 20, /*seed=*/1);
  const auto result = shredder.run(as_bytes(data), sink);
  Summary& sizes = sink.sizes;

  // 3. Inspect.
  std::printf("chunked %s into %zu chunks (%llu sink batches)\n",
              human_bytes(result.total_bytes).c_str(), result.chunks.size(),
              static_cast<unsigned long long>(sink.batches));
  std::printf("chunk sizes: mean %.0f B, min %.0f, max %.0f (bounds: %llu..%llu)\n",
              sizes.mean(), sizes.min(), sizes.max(),
              static_cast<unsigned long long>(config.chunker.min_size),
              static_cast<unsigned long long>(config.chunker.max_size));
  std::printf("\nvirtual pipeline (calibrated Tesla C2050 + X5650 host):\n");
  const auto& s = result.mean_stage_seconds;
  std::printf("  per %s buffer: reader %.2f ms | transfer %.2f ms | kernel "
              "%.2f ms | store %.3f ms\n",
              human_bytes(config.buffer_bytes).c_str(), s.reader * 1e3,
              s.transfer * 1e3, s.kernel * 1e3, s.store * 1e3);
  std::printf("  end-to-end: %.1f ms pipelined (%.1f ms serialized) -> %s\n",
              result.virtual_seconds * 1e3, result.serialized_seconds * 1e3,
              human_rate(result.virtual_throughput_bps).c_str());
  std::printf("  kernel breakdown: compute %.1f ms, memory %.1f ms "
              "(row-switch fraction %.3f)\n",
              result.kernel_totals.compute_seconds * 1e3,
              result.kernel_totals.memory_seconds * 1e3,
              result.kernel_totals.row_switch_fraction);
  std::printf("  host wall time for this simulated run: %.0f ms\n",
              result.wall_seconds * 1e3);
  return 0;
}
