// Ablation benches for the design choices DESIGN.md calls out — not a paper
// figure, but the sweeps a reviewer would ask for:
//   (a) pinned-ring depth: how many in-flight buffers the pipeline needs,
//   (b) pipeline buffer size: startup cost vs DMA efficiency,
//   (c) expected chunk size: dedup ratio vs chunking/index cost trade-off.
#include <cstdio>
#include <utility>

#include "bench_util.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/shredder.h"
#include "chunking/cdc.h"
#include "dedup/digest.h"
#include "dedup/index.h"
#include "gpusim/timeline.h"

using namespace shredder;
using namespace shredder::core;

namespace {

void ring_depth_ablation() {
  bench::print_header("A1", "Ablation: pinned-ring depth (in-flight buffers)",
                      "throughput saturates once the bottleneck stage stays "
                      "busy; deeper rings only add pinned memory");
  ShredderConfig cfg;
  cfg.buffer_bytes = 32ull << 20;
  Shredder shredder(cfg);
  SyntheticSource source(256ull << 20, 3, cfg.host.reader_bw);
  const auto result = shredder.run(source);
  const auto& m = result.mean_stage_seconds;
  const std::vector<double> stages = {m.reader, m.transfer, m.kernel, m.store};
  TablePrinter t({"RingSlots", "Throughput", "PinnedMem"}, 14);
  for (std::size_t slots = 1; slots <= 6; ++slots) {
    const double makespan = gpu::pipeline_makespan(stages, 32, slots);
    const double bps = 32.0 * static_cast<double>(cfg.buffer_bytes) / makespan;
    t.add_row({std::to_string(slots),
               TablePrinter::fmt(bps / 1e9, 2) + " GB/s",
               human_bytes(slots * cfg.buffer_bytes)});
  }
  t.print();
}

void buffer_size_ablation() {
  bench::print_header("A2", "Ablation: pipeline buffer size",
                      "small buffers pay per-transfer overhead and launch "
                      "cost; large buffers pay pipeline fill on finite "
                      "streams");
  TablePrinter t({"BufferSize", "Throughput", "Kernel(ms)", "Transfer(ms)"},
                 14);
  for (const std::uint64_t buffer :
       {1ull << 20, 4ull << 20, 16ull << 20, 64ull << 20, 256ull << 20}) {
    ShredderConfig cfg;
    cfg.buffer_bytes = buffer;
    Shredder shredder(cfg);
    SyntheticSource source(std::max<std::uint64_t>(4 * buffer, 64ull << 20),
                           4, cfg.host.reader_bw);
    const auto r = shredder.run(source);
    t.add_row({bench::mb_label(buffer),
               TablePrinter::fmt(r.virtual_throughput_bps / 1e9, 2) + " GB/s",
               TablePrinter::fmt(r.mean_stage_seconds.kernel * 1e3, 2),
               TablePrinter::fmt(r.mean_stage_seconds.transfer * 1e3, 2)});
  }
  t.print();
}

void chunk_size_ablation() {
  bench::print_header("A3", "Ablation: expected chunk size vs dedup ratio",
                      "smaller chunks find more duplicates but multiply "
                      "index/metadata work — the trade-off behind the "
                      "paper's 4 KB default and SampleByte's weakness at "
                      "large chunks");
  const auto v1 = random_bytes(64ull << 20, 5);
  const auto v2 = mutate_bytes(as_bytes(v1), 0.05, 6);
  TablePrinter t({"MaskBits", "ExpectedSize", "DedupRatio", "Chunks",
                  "IndexCost(ms)"},
                 14);
  for (unsigned bits = 10; bits <= 16; bits += 2) {
    chunking::ChunkerConfig cc;
    cc.mask_bits = bits;
    const rabin::RabinTables tables(cc.window);
    // One index takes v1, then v2; each chunk is hashed and matched against
    // it (paper §2.1). Returns a version's duplicate bytes and chunk count.
    dedup::ChunkIndex index;
    const auto ingest = [&](const ByteVec& version) {
      const ByteSpan data = as_bytes(version);
      const auto chunks = chunking::chunk_serial(tables, cc, data);
      std::uint64_t duplicate_bytes = 0;
      for (const auto& c : chunks) {
        const auto digest = dedup::ChunkHasher::hash(
            data.subspan(static_cast<std::size_t>(c.offset),
                         static_cast<std::size_t>(c.size)));
        if (index.lookup_or_insert(digest, {0, c.size})) {
          duplicate_bytes += c.size;
        }
      }
      return std::pair{duplicate_bytes, chunks.size()};
    };
    ingest(v1);
    const auto [duplicate_bytes, chunks] = ingest(v2);
    const double dedup_ratio = static_cast<double>(duplicate_bytes) /
                               static_cast<double>(v2.size());
    t.add_row({std::to_string(bits), human_bytes(cc.expected_chunk_size()),
               TablePrinter::fmt(100 * dedup_ratio, 1) + "%",
               std::to_string(chunks),
               TablePrinter::fmt(index.virtual_seconds() * 1e3, 1)});
  }
  t.print();
}

}  // namespace

int main() {
  ring_depth_ablation();
  std::printf("\n");
  buffer_size_ablation();
  std::printf("\n");
  chunk_size_ablation();
  return 0;
}
