// Figure 12 — end-to-end content-based chunking throughput: the host-only
// pthreads implementation (with and without the Hoard-like arena allocator)
// against the GPU versions (Basic, Streams, Streams + Memory coalescing).
//
// Every configuration chunks the same 1 GiB stream and must produce
// identical chunks (asserted); throughputs are reported on stdout under the
// calibrated 2012 testbed model (X5650 host + C2050 GPU), and this machine's
// real wall-clock throughputs on stderr, so stdout repeats byte for byte
// (tests/golden/ pins it).
#include <cstdio>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/shredder.h"

int main() {
  using namespace shredder;
  using namespace shredder::core;
  bench::print_header(
      "F12", "Figure 12: CPU vs GPU chunking throughput",
      "CPU+Hoard ~0.4 GB/s modestly above CPU-Hoard; GPU Basic ~2x CPU; "
      "GPU Streams in between; GPU Streams+Memory >5x CPU "
      "(reader-capped ~2 GB/s)");

  const std::uint64_t total = 1024ull << 20;
  const auto data = random_bytes(total, 2012);
  const ByteSpan span = as_bytes(data);
  chunking::ChunkerConfig chunker;  // 48-byte window, 13 bits, as in §3.1

  TablePrinter t({"Configuration", "Calibrated", "Chunks"}, 22);
  TablePrinter host({"Configuration", "ThisHost"}, 22);
  std::vector<chunking::Chunk> reference;

  auto add_cpu = [&](bool hoard) {
    const auto r = chunk_on_host(span, chunker, gpu::HostSpec{}, hoard);
    if (reference.empty()) {
      reference = r.chunks;
    } else {
      SHREDDER_CHECK_MSG(r.chunks == reference, "CPU chunks diverged");
    }
    const char* label = hoard ? "CPU w/ Hoard" : "CPU w/o Hoard";
    t.add_row({label,
               TablePrinter::fmt(r.virtual_throughput_bps / 1e9, 2) + " GB/s",
               std::to_string(r.chunks.size())});
    host.add_row(
        {label, TablePrinter::fmt(r.wall_throughput_bps / 1e9, 2) + " GB/s"});
  };
  add_cpu(false);
  add_cpu(true);

  auto add_gpu = [&](GpuMode mode, const char* label) {
    ShredderConfig cfg;
    cfg.chunker = chunker;
    cfg.buffer_bytes = 32ull << 20;
    cfg.mode = mode;
    Shredder shredder(cfg);
    const auto r = shredder.run(span);
    SHREDDER_CHECK_MSG(r.chunks == reference, "GPU chunks diverged");
    t.add_row({label,
               TablePrinter::fmt(r.virtual_throughput_bps / 1e9, 2) + " GB/s",
               std::to_string(r.chunks.size())});
    host.add_row({label, TablePrinter::fmt(static_cast<double>(total) /
                                               r.wall_seconds / 1e9,
                                           2) +
                             " GB/s (sim)"});
    return r.virtual_throughput_bps;
  };
  add_gpu(GpuMode::kBasic, "GPU Basic");
  add_gpu(GpuMode::kStreams, "GPU Streams");
  const double full = add_gpu(GpuMode::kStreamsCoalesced, "GPU Streams+Memory");

  t.print();
  std::fputs(host.to_string().c_str(), stderr);
  const auto hoard = chunk_on_host(span, chunker, gpu::HostSpec{}, true);
  std::printf("\nheadline: GPU Streams+Memory is %.1fx the optimized host-only "
              "implementation (paper: >5x)\n",
              full / hoard.virtual_throughput_bps);
  std::printf("(all five configurations produced bit-identical chunk "
              "boundaries)\n");
  return 0;
}
