// Tests for the Shredder core: sources, GPU kernels (functional equivalence
// with the serial reference), and the end-to-end pipeline in all modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "chunking/cdc.h"
#include "core/kernels.h"
#include "core/pipeline.h"
#include "core/shredder.h"
#include "core/source.h"
#include "common/rng.h"
#include "dedup/digest.h"
#include "gpusim/dma.h"

namespace shredder::core {
namespace {

chunking::ChunkerConfig small_chunker() {
  chunking::ChunkerConfig c;
  c.window = 16;
  c.mask_bits = 8;
  c.marker = 0x42;
  return c;
}

ShredderConfig small_config() {
  ShredderConfig cfg;
  cfg.chunker = small_chunker();
  cfg.buffer_bytes = 64 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  return cfg;
}

// --- Sources ---

TEST(MemorySource, ReadsAll) {
  // Views of the caller's bytes, in order, at most max_bytes each.
  const auto data = random_bytes(10000, 1);
  MemorySource src(as_bytes(data), 2e9);
  std::size_t total = 0;
  for (;;) {
    const ByteSpan view = src.next(3000);
    if (view.empty()) break;
    EXPECT_EQ(view.size(), std::min<std::size_t>(3000, data.size() - total));
    EXPECT_EQ(view.data(), data.data() + total);  // a view, not a copy
    total += view.size();
  }
  EXPECT_EQ(total, data.size());
  EXPECT_TRUE(src.next(10).empty());
}

TEST(MemorySource, ReadSecondsMatchesBandwidth) {
  const auto data = random_bytes(100, 1);
  MemorySource src(as_bytes(data), 2e9);
  EXPECT_DOUBLE_EQ(src.read_seconds(2e9), 1.0);
}

// Drains `src`, which holds `total` bytes, in pieces of the given sizes
// (cycled). Every view must be exactly min(request, bytes still to come)
// long; each is copied out before the next call invalidates it.
ByteVec drain(DataSource& src, std::size_t total,
              const std::vector<std::size_t>& sizes) {
  ByteVec out;
  for (std::size_t i = 0; out.size() <= total; ++i) {
    const std::size_t request = sizes[i % sizes.size()];
    const ByteSpan view = src.next(request);
    EXPECT_EQ(view.size(), std::min(request, total - out.size()));
    if (view.empty()) break;
    out.insert(out.end(), view.begin(), view.end());
  }
  return out;
}

TEST(SyntheticSource, DeterministicAcrossGranularities) {
  SyntheticSource a(10000, 7, 2e9);
  SyntheticSource b(10000, 7, 2e9);
  // Read a in one go, b in ragged pieces.
  const ByteVec va = drain(a, 10000, {10000});
  std::vector<std::size_t> ragged;
  SplitMix64 rng(3);
  for (int i = 0; i < 64; ++i) ragged.push_back(1 + rng.next_below(977));
  const ByteVec vb = drain(b, 10000, ragged);
  EXPECT_EQ(va.size(), 10000u);
  EXPECT_EQ(va, vb);
}

TEST(SyntheticSource, DifferentSeedsDiffer) {
  SyntheticSource a(1000, 1, 2e9), b(1000, 2, 2e9);
  EXPECT_NE(drain(a, 1000, {1000}), drain(b, 1000, {1000}));
}

// --- GPU kernels: functional equivalence with serial scan ---

class KernelEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(KernelEquivalence, MatchesSerialRawBoundaries) {
  const bool coalesced = GetParam();
  auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  const auto data = random_bytes(300000, 9);

  gpu::Device device(gpu::DeviceSpec{}, 4);

  KernelParams params;
  params.blocks = 12;
  params.threads_per_block = 32;
  params.coalesced = coalesced;
  // The 2-bit mask puts a raw boundary every ~4 bytes, so almost every
  // block's and thread's first w-1 bytes end one: a range scanned without
  // its warm-up would miss them.
  for (const unsigned mask_bits : {8u, 2u}) {
    SCOPED_TRACE("mask bits " + std::to_string(mask_bits));
    config.mask_bits = mask_bits;
    config.marker = mask_bits == 8u ? 0x42 : 1;
    const auto result = chunk_on_gpu(device, as_bytes(data), 0, 0, tables,
                                     config, params);
    EXPECT_EQ(result.boundaries,
              chunking::find_raw_boundaries(tables, config, as_bytes(data)));
    EXPECT_EQ(result.stats.bytes_processed >= data.size(), true);
  }
}

INSTANTIATE_TEST_SUITE_P(BasicAndCoalesced, KernelEquivalence,
                         ::testing::Values(false, true));

TEST(Kernels, CarryContextSuppressesAndWarms) {
  // Chunking buffer 2 with the last w-1 bytes of buffer 1 as carry must
  // reproduce exactly the serial boundaries of the concatenation that fall
  // in buffer 2.
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  const auto data = random_bytes(200000, 10);
  const std::size_t cut = 100000;
  const auto whole = chunking::find_raw_boundaries(tables, config, as_bytes(data));

  gpu::Device device(gpu::DeviceSpec{}, 4);
  const std::size_t carry = config.window - 1;
  // Buffer 2 = carry + second half.
  ByteVec buf2(data.begin() + static_cast<std::ptrdiff_t>(cut - carry),
               data.end());
  KernelParams params;
  params.blocks = 4;
  params.threads_per_block = 16;
  const auto result =
      chunk_on_gpu(device, as_bytes(buf2), carry,
                   /*base_offset=*/cut - carry, tables, config, params);
  std::vector<std::uint64_t> expected;
  for (auto b : whole) {
    if (b > cut) expected.push_back(b);
  }
  EXPECT_EQ(result.boundaries, expected);
}

TEST(Kernels, CoalescedReportsSharedStagingAndFewerConflicts) {
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  const auto data = random_bytes(1 << 20, 11);
  gpu::Device device(gpu::DeviceSpec{}, 4);

  KernelParams basic;
  basic.blocks = 14;
  basic.threads_per_block = 64;
  basic.coalesced = false;
  KernelParams coal = basic;
  coal.coalesced = true;

  const auto rb = chunk_on_gpu(device, as_bytes(data), 0, 0, tables, config,
                               basic);
  const auto rc = chunk_on_gpu(device, as_bytes(data), 0, 0, tables, config,
                               coal);
  EXPECT_EQ(rb.boundaries, rc.boundaries);
  EXPECT_EQ(rb.stats.shared_staged_bytes, 0u);
  EXPECT_GT(rc.stats.shared_staged_bytes, 0u);
  EXPECT_GT(rb.stats.row_switch_fraction, rc.stats.row_switch_fraction);
  // Fewer, larger transactions when coalesced.
  EXPECT_GT(rb.stats.transactions, rc.stats.transactions * 4);
  // And the virtual kernel time improves substantially (Fig 11).
  EXPECT_GT(rb.stats.virtual_seconds, rc.stats.virtual_seconds * 3);
}

TEST(Kernels, ValidatesArguments) {
  const auto config = small_chunker();
  const rabin::RabinTables tables(config.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);
  const ByteVec data(500);
  KernelParams params;
  EXPECT_THROW(chunk_on_gpu(device, ByteSpan(data), 600, 0, tables, config,
                            params),
               std::invalid_argument);
}

// --- Kernel launch accounting ---

// Every KernelRunStats field but wall_seconds, compared exactly.
void expect_same_stats(const gpu::KernelRunStats& got,
                       const gpu::KernelRunStats& want) {
  EXPECT_EQ(got.virtual_seconds, want.virtual_seconds);
  EXPECT_EQ(got.launch_seconds, want.launch_seconds);
  EXPECT_EQ(got.compute_seconds, want.compute_seconds);
  EXPECT_EQ(got.memory_seconds, want.memory_seconds);
  EXPECT_EQ(got.row_switch_fraction, want.row_switch_fraction);
  EXPECT_EQ(got.transactions, want.transactions);
  EXPECT_EQ(got.bytes_processed, want.bytes_processed);
  EXPECT_EQ(got.bytes_fetched, want.bytes_fetched);
  EXPECT_EQ(got.shared_staged_bytes, want.shared_staged_bytes);
}

// Launch-accounting cases: both chunking kernels and the fingerprint kernel
// (basic and coalesced txns) over three geometries, exact DRAM off and on.
std::vector<gpu::KernelRunStats> run_accounting_cases() {
  chunking::ChunkerConfig chunker;
  chunker.window = 48;
  chunker.mask_bits = 11;
  chunker.marker = 0x2a;
  const rabin::RabinTables tables(chunker.window);
  const std::size_t carry = 47;
  const std::uint64_t base_offset = (3u << 20) + 12345;
  const ByteVec data = random_bytes((1u << 20) + 4093, 2501);  // odd tail

  struct Geometry {
    int blocks;
    int threads_per_block;
    std::uint64_t shared_mem_per_sm;  // 0 = the default spec's
  };
  // The last slice is 100 bytes: a tile of 47 halo + 64 payload overflows
  // it and is scanned from global memory; a short final tile still fits.
  const Geometry geometries[] = {{28, 128, 0}, {14, 64, 0}, {14, 64, 6400}};
  std::vector<gpu::KernelRunStats> out;
  for (const Geometry& g : geometries) {
    gpu::DeviceSpec spec;
    if (g.shared_mem_per_sm != 0) spec.shared_mem_per_sm = g.shared_mem_per_sm;
    gpu::Device device(spec, 2);
    for (const bool exact : {false, true}) {
      for (const bool coalesced : {false, true}) {
        KernelParams params;
        params.blocks = g.blocks;
        params.threads_per_block = g.threads_per_block;
        params.coalesced = coalesced;
        params.exact_dram = exact;
        const GpuChunkResult chunked = chunk_on_gpu(
            device, ByteSpan(data), carry, base_offset, tables, chunker,
            params);
        dedup::ChunkHasher ctx;
        const GpuFingerprintResult hashed = fingerprint_on_gpu(
            device, ByteSpan(data), carry, base_offset, chunked.boundaries,
            ctx, params);
        out.push_back(chunked.stats);
        out.push_back(hashed.stats);
      }
    }
  }
  return out;
}

// The launch statistics the cost model reads, pinned exactly: any change to
// how the kernels count processed bytes (halos included), transactions,
// staged tiles or exact DRAM traces moves one of these. Order per geometry:
// exact_dram off then on; basic then coalesced; chunk then fingerprint
// launch. Fields: virtual, launch, compute, memory seconds, row-switch
// fraction, transactions, bytes processed, fetched and staged.
TEST(KernelAccounting, EveryLaunchStatIsPinned) {
  const gpu::KernelRunStats kPinned[] = {
    {0x1.0b2001c98887dp-10, 0x1.f75104d551d69p-16, 0x1.f0fc81ace6702p-14, 0x1.0342bdb633407p-10, 0x1p+0, 78770u, 1220929u, 10082560u, 0u},
    {0x1.c2905821a464cp-11, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.b2d5cffaf9d61p-11, 0x1p+0, 66057u, 1052622u, 8455296u, 0u},
    {0x1.376861711d72ep-13, 0x1.f75104d551d69p-16, 0x1.f0fc81ace6702p-14, 0x1.0f3ca8b9ffe71p-15, 0x1.745ad3e268ac7p-3, 10742u, 1220929u, 1374976u, 1220929u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.adb4f09d04907p-16, 0x1.745ad3e268ac7p-3, 8509u, 1052622u, 1089152u, 0u},
    {0x1.376861711d72ep-13, 0x1.f75104d551d69p-16, 0x1.f0fc81ace6702p-14, 0x1.39593ed6debcbp-14, 0x1.4e7c6829e18cdp-8, 78770u, 1220929u, 10082560u, 0u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.b375b556f376p-14, 0x1.df7318cd8edaap-5, 66057u, 1052622u, 8455296u, 0u},
    {0x1.376861711d72ep-13, 0x1.f75104d551d69p-16, 0x1.f0fc81ace6702p-14, 0x1.9860cb63e6ee5p-17, 0x1.56ce78c526f5bp-6, 10742u, 1220929u, 1374976u, 1220929u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.bea7666da641bp-17, 0x1.da4fce1c49ee3p-5, 8509u, 1052622u, 1089152u, 0u},
    {0x1.d5c6af9f3441fp-11, 0x1.f75104d551d69p-16, 0x1.bd9e30f166ed6p-14, 0x1.c60c277889b34p-11, 0x1.fff4ef31b5c77p-1, 68981u, 1094734u, 8829568u, 0u},
    {0x1.c2879c9776a7ap-11, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.b2cd1470cc18fp-11, 0x1.fff4ef31b5c77p-1, 66057u, 1052622u, 8455296u, 0u},
    {0x1.264b641a5676p-13, 0x1.f75104d551d69p-16, 0x1.cec286ff58766p-14, 0x1.c46e922c3243fp-16, 0x1.745ad3e268ac7p-3, 8959u, 1136846u, 1146752u, 1136846u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.adb4f09d04907p-16, 0x1.745ad3e268ac7p-3, 8509u, 1052622u, 1089152u, 0u},
    {0x1.1db939135db18p-13, 0x1.f75104d551d69p-16, 0x1.bd9e30f166ed6p-14, 0x1.141a03d76c878p-14, 0x1.6f5f53e68723fp-8, 68981u, 1094734u, 8829568u, 0u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.1ab2c41a2b33dp-14, 0x1.7133ab0e8c1f7p-7, 66057u, 1052622u, 8455296u, 0u},
    {0x1.264b641a5676p-13, 0x1.f75104d551d69p-16, 0x1.cec286ff58766p-14, 0x1.6019f46d391d4p-17, 0x1.8c9094b637c45p-6, 8959u, 1136846u, 1146752u, 1136846u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.81808fbd20f47p-17, 0x1.43eb930096644p-5, 8509u, 1052622u, 1089152u, 0u},
    {0x1.d5c6af9f3441fp-11, 0x1.f75104d551d69p-16, 0x1.bd9e30f166ed6p-14, 0x1.c60c277889b34p-11, 0x1.fff4ef31b5c77p-1, 68981u, 1094734u, 8829568u, 0u},
    {0x1.c2879c9776a7ap-11, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.b2cd1470cc18fp-11, 0x1.fff4ef31b5c77p-1, 66057u, 1052622u, 8455296u, 0u},
    {0x1.b7f8e6d9b0f63p-13, 0x1.f75104d551d69p-16, 0x1.790ec63f06bb6p-13, 0x1.adc854fdebf85p-15, 0x1.745ad3e268ac7p-3, 17021u, 1852609u, 2178688u, 62734u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.adb4f09d04907p-16, 0x1.745ad3e268ac7p-3, 8509u, 1052622u, 1089152u, 0u},
    {0x1.1db939135db18p-13, 0x1.f75104d551d69p-16, 0x1.bd9e30f166ed6p-14, 0x1.141a03d76c878p-14, 0x1.6f5f53e68723fp-8, 68981u, 1094734u, 8829568u, 0u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.1ab2c41a2b33dp-14, 0x1.7133ab0e8c1f7p-7, 66057u, 1052622u, 8455296u, 0u},
    {0x1.b7f8e6d9b0f63p-13, 0x1.f75104d551d69p-16, 0x1.790ec63f06bb6p-13, 0x1.2847ab9434d28p-16, 0x1.a176b3e0903a5p-7, 17021u, 1852609u, 2178688u, 62734u},
    {0x1.a62badae5643fp-12, 0x1.f75104d551d69p-16, 0x1.86b69d6101268p-12, 0x1.81808fbd20f47p-17, 0x1.43eb930096644p-5, 8509u, 1052622u, 1089152u, 0u},
  };
  const std::vector<gpu::KernelRunStats> got = run_accounting_cases();
  ASSERT_EQ(got.size(), std::size(kPinned));
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("launch " + std::to_string(i));
    expect_same_stats(got[i], kPinned[i]);
  }
}

// --- Shredder end-to-end ---

class ShredderModes : public ::testing::TestWithParam<GpuMode> {};

TEST_P(ShredderModes, MatchesSerialChunking) {
  ShredderConfig cfg = small_config();
  cfg.mode = GetParam();
  Shredder shredder(cfg);
  const auto data = random_bytes(500000, 13);
  const auto result = shredder.run(as_bytes(data));
  const auto expected =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
  EXPECT_EQ(result.chunks, expected);
  EXPECT_EQ(result.total_bytes, data.size());
  EXPECT_GT(result.n_buffers, 1u);
  EXPECT_GT(result.virtual_seconds, 0.0);
  EXPECT_GT(result.virtual_throughput_bps, 0.0);
}

// Serves `data` like a MemorySource but throws on its third read.
class FailingSource final : public DataSource {
 public:
  explicit FailingSource(ByteSpan data) : inner_(data, 2e9) {}

  ByteSpan next(std::size_t max_bytes) override {
    if (++reads_ == 3) throw std::runtime_error("source read failed");
    return inner_.next(max_bytes);
  }
  double read_seconds(std::uint64_t bytes) const override {
    return inner_.read_seconds(bytes);
  }

 private:
  MemorySource inner_;
  int reads_ = 0;
};

TEST_P(ShredderModes, SourceReadErrorSurfacesFromRun) {
  ShredderConfig cfg = small_config();
  cfg.mode = GetParam();
  Shredder shredder(cfg);
  const auto data = random_bytes(5 * cfg.buffer_bytes, 17);
  FailingSource source(as_bytes(data));
  try {
    shredder.run(source);
    ADD_FAILURE() << "run returned despite the failing read";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "source read failed");
  }
  // Every thread of the failed run was joined; the Shredder runs again.
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

TEST_P(ShredderModes, PricesItsHostMemoryKind) {
  // Every mode stages through the engine's ring; basic mode prices it as
  // pageable memory, with no pinned-ring construction cost.
  ShredderConfig cfg = small_config();
  cfg.mode = GetParam();
  Shredder shredder(cfg);
  const auto data = random_bytes(cfg.buffer_bytes / 2, 21);  // one buffer
  const auto result = shredder.run(as_bytes(data));
  const bool basic = GetParam() == GpuMode::kBasic;
  ASSERT_EQ(result.n_buffers, 1u);
  EXPECT_EQ(result.mean_stage_seconds.transfer,
            gpu::dma_seconds(cfg.device, data.size(),
                             gpu::Direction::kHostToDevice,
                             basic ? gpu::HostMemKind::kPageable
                                   : gpu::HostMemKind::kPinned));
  if (basic) {
    EXPECT_EQ(result.init_seconds, 0.0);
  } else {
    EXPECT_GT(result.init_seconds, 0.0);
  }
}

// Collects every batch and throws on the second, from the Store stage.
class ThrowingSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView&) override {
    if (++batches_ == 2) throw std::runtime_error("sink failed");
  }

 private:
  int batches_ = 0;
};

TEST_P(ShredderModes, SinkErrorSurfacesFromRun) {
  ShredderConfig cfg = small_config();
  cfg.mode = GetParam();
  obs::Registry registry;
  cfg.registry = &registry;
  Shredder shredder(cfg);
  const auto data = random_bytes(5 * cfg.buffer_bytes, 19);
  ThrowingSink sink;
  try {
    shredder.run(as_bytes(data), sink);
    ADD_FAILURE() << "run returned despite the failing sink";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink failed");
  }
  EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 0.0);
  // The failed run's kernel thread was joined; the Shredder runs again.
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

INSTANTIATE_TEST_SUITE_P(AllModes, ShredderModes,
                         ::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                           GpuMode::kStreamsCoalesced));

TEST(Shredder, MinMaxEndToEnd) {
  ShredderConfig cfg = small_config();
  cfg.chunker.min_size = 128;
  cfg.chunker.max_size = 1024;
  Shredder shredder(cfg);
  const auto data = random_bytes(300000, 14);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
  for (std::size_t i = 0; i + 1 < result.chunks.size(); ++i) {
    EXPECT_GE(result.chunks[i].size, 128u);
    EXPECT_LE(result.chunks[i].size, 1024u);
  }
}

TEST(Shredder, UpcallsStreamInOrder) {
  // Collects the chunks of every delivered batch, in delivery order.
  struct StreamedChunks final : ChunkSink {
    std::vector<chunking::Chunk> chunks;
    void on_batch(const ChunkBatchView& batch) override {
      chunks.insert(chunks.end(), batch.chunks.begin(), batch.chunks.end());
    }
  };
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto data = random_bytes(200000, 15);
  StreamedChunks sink;
  const auto result = shredder.run(as_bytes(data), sink);
  EXPECT_EQ(sink.chunks, result.chunks);
}

TEST(Shredder, BoundarySpanningBuffersIsFound) {
  // Force a tiny buffer so chunks regularly straddle buffer seams.
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 4096;
  Shredder shredder(cfg);
  const auto data = random_bytes(100000, 16);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

TEST(Shredder, StreamsModesFasterThanBasicVirtually) {
  const auto data = random_bytes(2 << 20, 17);
  auto run_mode = [&](GpuMode mode) {
    ShredderConfig cfg = small_config();
    cfg.buffer_bytes = 256 * 1024;
    cfg.mode = mode;
    Shredder shredder(cfg);
    return shredder.run(as_bytes(data)).virtual_throughput_bps;
  };
  const double basic = run_mode(GpuMode::kBasic);
  const double streams = run_mode(GpuMode::kStreams);
  const double full = run_mode(GpuMode::kStreamsCoalesced);
  EXPECT_GT(streams, basic);
  EXPECT_GT(full, streams);
}

TEST(Shredder, ReportsStageBreakdown) {
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto data = random_bytes(400000, 18);
  const auto result = shredder.run(as_bytes(data));
  const auto& s = result.mean_stage_seconds;
  EXPECT_GT(s.reader, 0.0);
  EXPECT_GT(s.transfer, 0.0);
  EXPECT_GT(s.kernel, 0.0);
  EXPECT_GT(s.store, 0.0);
  EXPECT_NEAR(result.serialized_seconds,
              s.sum() * static_cast<double>(result.n_buffers),
              result.serialized_seconds * 0.2);
  EXPECT_LE(result.virtual_seconds, result.serialized_seconds + 1e-9);
}

TEST(Shredder, EmptyInputYieldsNoChunks) {
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto result = shredder.run(ByteSpan{});
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_EQ(result.total_bytes, 0u);
}

TEST(Shredder, ConfigValidation) {
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 4;
  EXPECT_THROW(Shredder{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.ring_slots = 0;
  EXPECT_THROW(Shredder{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.kernel.blocks = 0;
  EXPECT_THROW(Shredder{cfg}, std::invalid_argument);
}

TEST(Shredder, RefusesBuffersBeyondDeviceMemory) {
  // A run's engine holds one device buffer in basic mode and two (double
  // buffering) in the pipelined modes, each buffer_bytes + w-1 bytes, and
  // they must fit the device's global memory. A refused run builds no ring
  // and registers no metric.
  const auto data = random_bytes(200000, 31);
  for (const GpuMode mode : {GpuMode::kBasic, GpuMode::kStreams}) {
    SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode));
    ShredderConfig cfg = small_config();
    cfg.mode = mode;
    const std::uint64_t need = (mode == GpuMode::kBasic ? 1u : 2u) *
                               (cfg.buffer_bytes + cfg.chunker.window - 1);
    obs::Registry reg;
    cfg.registry = &reg;
    cfg.device.global_mem_bytes = need - 1;
    Shredder refused(cfg);
    EXPECT_THROW(refused.run(as_bytes(data)), std::invalid_argument);
    EXPECT_TRUE(reg.snapshot().empty());
    cfg.device.global_mem_bytes = need;
    Shredder fits(cfg);
    EXPECT_EQ(fits.run(as_bytes(data)).total_bytes, data.size());
  }
}

// --- Host chunker comparison path ---

TEST(HostChunker, MatchesSerial) {
  const auto chunker = small_chunker();
  const auto data = random_bytes(300000, 19);
  const rabin::RabinTables tables(chunker.window);
  const auto expected = chunking::chunk_serial(tables, chunker, as_bytes(data));
  for (bool arena : {false, true}) {
    const auto result =
        chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, arena, 4);
    EXPECT_EQ(result.chunks, expected);
    EXPECT_GT(result.virtual_throughput_bps, 0.0);
    EXPECT_GT(result.wall_throughput_bps, 0.0);
  }
}

TEST(HostChunker, HoardCalibrationFasterThanMalloc) {
  const auto chunker = small_chunker();
  const auto data = random_bytes(100000, 20);
  const auto with =
      chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, true, 4);
  const auto without =
      chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, false, 4);
  EXPECT_GT(with.virtual_throughput_bps, without.virtual_throughput_bps);
}

// The library's central invariant, swept across the configuration grid:
// every (mode, buffer size, window, min/max) combination must produce chunks
// bit-identical to the serial reference scanner.
struct GridCase {
  GpuMode mode;
  std::size_t buffer_bytes;
  std::size_t window;
  std::uint64_t min_size;
  std::uint64_t max_size;
};

class ShredderConfigGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(ShredderConfigGrid, MatchesSerialReference) {
  const auto p = GetParam();
  ShredderConfig cfg;
  cfg.chunker.window = p.window;
  cfg.chunker.mask_bits = 9;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = p.min_size;
  cfg.chunker.max_size = p.max_size;
  cfg.buffer_bytes = p.buffer_bytes;
  cfg.mode = p.mode;
  cfg.kernel.blocks = 6;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  Shredder shredder(cfg);
  const auto data = random_bytes(200000, 77 + p.window);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

std::vector<GridCase> shredder_grid() {
  std::vector<GridCase> cases;
  for (const GpuMode mode :
       {GpuMode::kBasic, GpuMode::kStreams, GpuMode::kStreamsCoalesced}) {
    for (const std::size_t buffer : {8192uL, 65536uL}) {
      for (const std::size_t window : {8uL, 48uL}) {
        for (const auto& [mn, mx] :
             {std::pair<std::uint64_t, std::uint64_t>{0, 0},
              std::pair<std::uint64_t, std::uint64_t>{256, 2048}}) {
          cases.push_back({mode, buffer, window, mn, mx});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(FullGrid, ShredderConfigGrid,
                         ::testing::ValuesIn(shredder_grid()));

TEST(Shredder, VirtualThroughputBeatsCalibratedHost) {
  // The headline: full Shredder > 5x the calibrated host throughput
  // (reader-capped at 2 GB/s vs 0.4 GB/s chunk-bound host).
  const auto data = random_bytes(16 << 20, 21);
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 1 << 20;
  cfg.mode = GpuMode::kStreamsCoalesced;
  cfg.kernel.blocks = 28;
  cfg.kernel.threads_per_block = 128;
  Shredder shredder(cfg);
  const auto gpu_result = shredder.run(as_bytes(data));
  const auto host_result =
      chunk_on_host(as_bytes(data), cfg.chunker, gpu::HostSpec{}, true, 4);
  EXPECT_GT(gpu_result.virtual_throughput_bps,
            4.0 * host_result.virtual_throughput_bps);
}

// --- Store-stage D2H batching ---
// Boundary and digest arrays ride back in ONE DMA descriptor per buffer
// (ROADMAP item: batch the fingerprint digests into the Store D2H).

TEST(Pipeline, StoreStageIsOneDescriptorPerBuffer) {
  const gpu::DeviceSpec spec;
  const std::size_t digest_bytes = 512 * sizeof(dedup::ChunkDigest);
  for (const bool pinned : {false, true}) {
    const gpu::HostMemKind kind =
        pinned ? gpu::HostMemKind::kPinned : gpu::HostMemKind::kPageable;
    for (const std::size_t n : {std::size_t{1}, std::size_t{1000}}) {
      const double batched = store_stage_seconds(spec, n, pinned, digest_bytes);
      // Exactly one combined transfer plus per-boundary handling...
      EXPECT_NEAR(batched,
                  gpu::dma_seconds(spec, n * 8 + digest_bytes,
                                   gpu::Direction::kDeviceToHost, kind) +
                      static_cast<double>(n) * 2e-9,
                  1e-15);
      // ...strictly cheaper than shipping the two arrays separately (the
      // per-transfer setup cost is paid once, not twice).
      const double split =
          gpu::dma_seconds(spec, n * 8, gpu::Direction::kDeviceToHost, kind) +
          gpu::dma_seconds(spec, digest_bytes, gpu::Direction::kDeviceToHost,
                           kind) +
          static_cast<double>(n) * 2e-9;
      EXPECT_LT(batched, split);
    }
    // An eos batch carrying only the trailing digest is a single digest DMA.
    EXPECT_NEAR(store_stage_seconds(spec, 0, pinned, digest_bytes),
                gpu::dma_seconds(spec, digest_bytes,
                                 gpu::Direction::kDeviceToHost, kind),
                1e-15);
  }
}

TEST(Pipeline, BatchedDigestReadbackLeavesDigestsUnchanged) {
  // End-to-end guard for the descriptor change: a fingerprinting run's
  // digests stay bit-identical to host SHA-256 over the same chunks.
  ShredderConfig cfg = small_config();
  cfg.fingerprint_on_device = true;
  Shredder shredder(cfg);
  const auto data = random_bytes(300000, 77);
  const auto result = shredder.run(as_bytes(data));
  ASSERT_EQ(result.digests.size(), result.chunks.size());
  ASSERT_GT(result.chunks.size(), 1u);
  for (std::size_t i = 0; i < result.chunks.size(); ++i) {
    const auto& c = result.chunks[i];
    EXPECT_EQ(result.digests[i],
              dedup::ChunkHasher::hash(as_bytes(data).subspan(
                  static_cast<std::size_t>(c.offset),
                  static_cast<std::size_t>(c.size))))
        << "chunk " << i;
  }
  EXPECT_GT(result.mean_stage_seconds.store, 0.0);
}

// --- Pinned-slot leases ---

TEST(SlotLease, MoveOnlyLeaseReturnsSlotAtDestructionAndMoveAssignment) {
  static_assert(!std::is_copy_constructible_v<SlotLease>);
  static_assert(!std::is_copy_assignable_v<SlotLease>);
  detail::SlotPool pool(gpu::DeviceSpec{}, /*slots=*/2, /*slot_size=*/64);
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  std::memset(pool.slot_span(*a).data(), 7, 64);
  {
    SlotLease lease = SlotLease::from_slot(pool, *a, 16);
    EXPECT_EQ(lease.size(), 16u);
    SlotLease moved = std::move(lease);
    EXPECT_TRUE(lease.empty());  // moved-from holds no stale view
    EXPECT_EQ(moved.bytes()[0], 7);
    EXPECT_EQ(pool.leased(), 2u);  // a move hands the slot over, no release
    moved = SlotLease::from_slot(pool, *b, 8);
    EXPECT_EQ(pool.leased(), 1u);  // move-assignment returned slot a
    EXPECT_EQ(moved.size(), 8u);
  }
  EXPECT_EQ(pool.leased(), 0u);  // destruction returned slot b
  ASSERT_TRUE(pool.acquire().has_value());  // both acquirable again
  ASSERT_TRUE(pool.acquire().has_value());
}

TEST(SlotPool, StopWakesWaitersAndRefusesNewLeases) {
  detail::SlotPool pool(gpu::DeviceSpec{}, 1, 64);
  const auto slot = pool.acquire();
  ASSERT_TRUE(slot.has_value());
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    EXPECT_FALSE(pool.acquire().has_value());  // blocked, then stopped
    woke.store(true);
  });
  pool.stop();
  waiter.join();
  EXPECT_TRUE(woke.load());
  pool.release(*slot);                       // outstanding slots still return
  EXPECT_FALSE(pool.acquire().has_value());  // but nothing new is handed out
}

// The engine owns every stream's window carry, offset and sequence: it
// stages each buffer behind min(w-1, bytes before it) bytes of its own
// stream, whatever the payload sizes (including ones shorter than the
// carry) and however streams interleave. Batches carry no staged bytes, so
// staging is observed through what the engine computes from it. The mask
// is dense enough that raw boundaries end within a few bytes of almost
// every seam: each stream's boundaries must equal StreamScanner's over the
// stream, and with the fingerprint stage on, its chunks and digests must
// equal chunk_serial's chunks hashed on the host.
class PipelineCarry : public ::testing::TestWithParam<GpuMode> {};

TEST_P(PipelineCarry, EngineStagesEachStreamBehindItsOwnCarry) {
  chunking::ChunkerConfig chunker;
  chunker.window = 48;
  chunker.mask_bits = 2;  // a raw boundary every ~4 bytes
  chunker.marker = 1;
  chunker.min_size = 32;
  chunker.max_size = 256;
  const rabin::RabinTables tables(chunker.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);

  for (const bool fingerprint : {false, true}) {
    SCOPED_TRACE(fingerprint ? "fingerprint on" : "fingerprint off");
    PipelineEngineConfig cfg;
    cfg.mode = GetParam();
    cfg.slot_bytes = 4096 + chunker.window - 1;
    cfg.ring_slots = 3;
    cfg.kernel.blocks = 4;
    cfg.kernel.threads_per_block = 16;
    cfg.fingerprint = fingerprint;

    // Stream 1 has two payloads shorter than the carry, stream 2 is empty,
    // and streams 3 and 4 are submitted concurrently from two threads.
    struct Stream {
      std::vector<std::size_t> sizes;
      std::vector<std::uint64_t> starts;  // stream offset of each payload
      ByteVec bytes;
      // What the engine computed, concatenated in arrival order.
      std::vector<std::uint64_t> boundaries;
      std::vector<std::uint64_t> chunk_ends;
      std::vector<dedup::ChunkDigest> digests;
      std::uint64_t next_seq = 0;
      bool ended = false;
    };
    std::map<std::uint32_t, Stream> streams;
    streams[1].sizes = {5, 30, 4096, 4096, 1};
    streams[2].sizes = {};
    streams[3].sizes = {4096, 12, 4096, 47, 3000};
    streams[4].sizes = {46, 4096, 4096, 1, 2500};
    for (auto& [id, st] : streams) {
      std::uint64_t total = 0;
      for (const std::size_t n : st.sizes) {
        st.starts.push_back(total);
        total += n;
      }
      st.bytes = random_bytes(total, 100 + id);
    }

    // The consumer records what the engine computed, batch by batch.
    std::size_t batches = 0;
    PipelineEngine engine(
        cfg, device, tables, chunker,
        {.on_batch = [&](BoundaryBatch& batch) {
          ++batches;
          Stream& st = streams.at(batch.stream_id);
          EXPECT_FALSE(st.ended) << "batch after eos on stream "
                                 << batch.stream_id;
          EXPECT_EQ(batch.seq, st.next_seq);
          const std::uint64_t seq = st.next_seq++;
          st.boundaries.insert(st.boundaries.end(), batch.boundaries.begin(),
                               batch.boundaries.end());
          st.chunk_ends.insert(st.chunk_ends.end(), batch.chunk_ends.begin(),
                               batch.chunk_ends.end());
          st.digests.insert(st.digests.end(), batch.digests.begin(),
                            batch.digests.end());
          if (batch.eos) {
            st.ended = true;
            EXPECT_EQ(seq, st.sizes.size());
            EXPECT_EQ(batch.payload_end, st.bytes.size());
          } else if (seq < st.sizes.size()) {
            EXPECT_EQ(batch.payload_end, st.starts[seq] + st.sizes[seq]);
          }
        }});

    const auto submit_stream = [&engine](std::uint32_t id, const Stream& st,
                                         const auto& before) {
      for (std::size_t i = 0; i < st.sizes.size(); ++i) {
        before();
        StreamBuffer buf;
        buf.stream_id = id;
        buf.payload = ByteSpan(st.bytes).subspan(st.starts[i], st.sizes[i]);
        EXPECT_TRUE(engine.submit(buf));
      }
      StreamBuffer eos;
      eos.stream_id = id;
      eos.eos = true;
      EXPECT_TRUE(engine.submit(eos));
    };
    // Streams 3 and 4 take turns entering submit(), buffer by buffer; a
    // turn passes on as soon as it is taken, so the two submits overlap.
    std::mutex turn_mu;
    std::condition_variable turn_cv;
    std::size_t turn = 0;
    const auto take_turn = [&](std::size_t parity) {
      return [&, parity] {
        std::unique_lock<std::mutex> lock(turn_mu);
        turn_cv.wait(lock, [&] { return turn % 2 == parity; });
        ++turn;
        turn_cv.notify_all();
      };
    };
    submit_stream(1, streams.at(1), [] {});
    submit_stream(2, streams.at(2), [] {});
    std::thread other([&] { submit_stream(4, streams.at(4), take_turn(1)); });
    submit_stream(3, streams.at(3), take_turn(0));
    other.join();
    engine.drain();
    EXPECT_EQ(batches, 6u + 1u + 6u + 6u);
    for (const auto& [id, st] : streams) {
      EXPECT_TRUE(st.ended) << "stream " << id;
      std::vector<std::uint64_t> raw;
      chunking::StreamScanner scanner(tables, chunker);
      scanner.feed(st.bytes, [&raw](std::uint64_t end, std::uint64_t) {
        raw.push_back(end);
      });
      EXPECT_EQ(st.boundaries, raw) << "stream " << id;
      if (!fingerprint) {
        EXPECT_TRUE(st.chunk_ends.empty()) << "stream " << id;
        continue;
      }
      const auto chunks = chunking::chunk_serial(tables, chunker, st.bytes);
      std::vector<std::uint64_t> ends;
      std::vector<dedup::ChunkDigest> digests;
      for (const auto& c : chunks) {
        ends.push_back(c.offset + c.size);
        digests.push_back(dedup::ChunkHasher::hash(ByteSpan(st.bytes).subspan(
            static_cast<std::size_t>(c.offset),
            static_cast<std::size_t>(c.size))));
      }
      EXPECT_EQ(st.chunk_ends, ends) << "stream " << id;
      EXPECT_TRUE(st.digests == digests)
          << "stream " << id << ": digests differ from host SHA-256";
    }
    EXPECT_EQ(engine.slots_leased(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, PipelineCarry,
                         ::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                           GpuMode::kStreamsCoalesced));

// Batches carry no staged bytes, so a consumer that keeps every batch holds
// no slot: an 8-buffer stream passes a 2-slot ring while every batch stays
// held, and the ring is empty after the drain.
TEST(Pipeline, HeldBatchesHoldNoSlots) {
  const auto chunker = small_chunker();
  const rabin::RabinTables tables(chunker.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);
  PipelineEngineConfig cfg;
  cfg.mode = GpuMode::kStreams;
  cfg.slot_bytes = 4096;
  cfg.ring_slots = 2;
  cfg.kernel.blocks = 4;
  cfg.kernel.threads_per_block = 16;
  std::vector<BoundaryBatch> held;
  PipelineEngine engine(cfg, device, tables, chunker,
                        {.on_batch = [&held](BoundaryBatch& batch) {
                          held.push_back(std::move(batch));
                        }});

  // If held batches kept their slots, submit() would stall after ring_slots
  // buffers; the watchdog then stops the engine, so the case fails instead
  // of hanging.
  std::promise<void> submitted;
  std::thread watchdog([&engine, done = submitted.get_future()] {
    if (done.wait_for(std::chrono::seconds(10)) ==
        std::future_status::timeout) {
      engine.stop();
    }
  });
  const std::size_t kBuffers = 8;
  const auto data = random_bytes(kBuffers * 2048, 95);
  bool all_submitted = true;
  for (std::size_t i = 0; i < kBuffers && all_submitted; ++i) {
    StreamBuffer buf;
    buf.payload = ByteSpan(data).subspan(i * 2048, 2048);
    all_submitted = engine.submit(buf);
  }
  StreamBuffer eos;
  eos.eos = true;
  all_submitted = all_submitted && engine.submit(eos);
  submitted.set_value();
  watchdog.join();
  engine.drain();

  EXPECT_TRUE(all_submitted);
  ASSERT_EQ(held.size(), kBuffers + 1);
  for (std::size_t i = 0; i < held.size(); ++i) EXPECT_EQ(held[i].seq, i);
  EXPECT_TRUE(held.back().eos);
  EXPECT_EQ(held.back().payload_end, data.size());
  EXPECT_EQ(engine.slots_leased(), 0u);  // with every batch still held
}

TEST(Pipeline, StalledConsumerBackpressuresInsideTheEngineWithoutLeaking) {
  // A consumer blocked in on_batch holds its item's slot, so with a 1-slot
  // ring the producer stalls after exactly 1 submit. The slots_leased gauge
  // tracks the slot in flight and returns to 0 once the consumer is
  // released and the engine drained.
  const auto chunker = small_chunker();
  const rabin::RabinTables tables(chunker.window);
  gpu::Device device(gpu::DeviceSpec{}, 2);
  obs::Registry registry;
  PipelineEngineConfig cfg;
  cfg.mode = GpuMode::kStreams;
  cfg.slot_bytes = 4096;
  cfg.ring_slots = 1;
  cfg.kernel.blocks = 4;
  cfg.kernel.threads_per_block = 16;
  cfg.registry = &registry;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool released = false;
  std::size_t batches = 0;
  PipelineEngine engine(cfg, device, tables, chunker,
                        {.on_batch = [&](BoundaryBatch&) {
                          std::unique_lock<std::mutex> lock(gate_mu);
                          gate_cv.wait(lock, [&] { return released; });
                          ++batches;
                        }});

  const std::size_t kBuffers = 6;
  const auto data = random_bytes(kBuffers * 2048, 93);
  std::atomic<std::size_t> submitted{0};
  std::thread producer([&] {
    for (std::size_t i = 0; i < kBuffers; ++i) {
      StreamBuffer buf;
      buf.payload = ByteSpan(data).subspan(i * 2048, 2048);
      if (!engine.submit(buf)) break;
      submitted.fetch_add(1);
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (submitted.load() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Time enough to run past the stall point if backpressure leaked.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(submitted.load(), 1u);
  EXPECT_EQ(engine.slots_leased(), 1u);
  EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 1.0);

  {
    std::lock_guard<std::mutex> lock(gate_mu);
    released = true;
  }
  gate_cv.notify_all();
  producer.join();
  engine.drain();
  EXPECT_EQ(batches, kBuffers);
  EXPECT_EQ(submitted.load(), kBuffers);
  EXPECT_EQ(engine.slots_leased(), 0u);
  EXPECT_EQ(registry.gauge("pipeline.slots_leased").value(), 0.0);
}

// --- Store stage ---

TEST(StreamStoreDeathTest, RejectsBatchesPastTheStreamEnd) {
  const auto chunker = small_chunker();
  const rabin::RabinTables tables(chunker.window);
  gpu::Device device(gpu::DeviceSpec{}, 1);
  for (const bool fingerprint : {false, true}) {
    PipelineEngineConfig cfg;
    cfg.mode = GpuMode::kBasic;
    cfg.slot_bytes = 4096;
    cfg.kernel.blocks = 4;
    cfg.kernel.threads_per_block = 16;
    cfg.fingerprint = fingerprint;
    // The batches below are hand-made: the engine only configures the store.
    PipelineEngine engine(cfg, device, tables, chunker, {});
    engine.stop();
    StreamStore store(engine, /*stream_id=*/0, /*sink=*/nullptr);
    BoundaryBatch eos;
    eos.eos = true;
    if (fingerprint) {
      // The engine's cutter closed no chunk, yet the stream claims bytes.
      eos.payload_end = 100;
      EXPECT_DEATH(store.consume(eos), "ended short of the stream total");
    } else {
      EXPECT_EQ(store.consume(eos), 0.0);  // no digest, no D2H
      EXPECT_DEATH(store.consume(eos), "batch after end of stream");
    }
  }
}

}  // namespace
}  // namespace shredder::core
