// Cross-backend equivalence suite for the on-device fingerprint stage:
// device-computed chunk digests must be bit-identical to the host
// dedup::Sha256 over the same chunks, for every backend (Shredder in all
// GPU modes, the multi-tenant service) and every chunk shape (min/max
// forced boundaries, chunks spanning buffers, empty streams, trailing
// chunks), and the precomputed-digest path through BackupServer must agree
// with its host-hashing twin. The end-to-end case holds the >= 1.3x
// device-over-host backup bar and pins its outputs.
#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "backup/backup_server.h"
#include "chunking/cdc.h"
#include "common/rng.h"
#include "core/shredder.h"
#include "dedup/digest.h"
#include "printed.h"
#include "service/service.h"

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
  cfg.fingerprint_on_device = true;
  return cfg;
}

// Host reference: the serial chunking plus one host SHA-256 per chunk.
std::vector<dedup::ChunkDigest> host_digests(
    ByteSpan data, const std::vector<chunking::Chunk>& chunks) {
  std::vector<dedup::ChunkDigest> out;
  out.reserve(chunks.size());
  for (const auto& c : chunks) {
    out.push_back(dedup::ChunkHasher::hash(
        data.subspan(static_cast<std::size_t>(c.offset),
                     static_cast<std::size_t>(c.size))));
  }
  return out;
}

// Collects every delivered chunk and device digest, in stream order.
class CollectingSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView& batch) override {
    chunks.insert(chunks.end(), batch.chunks.begin(), batch.chunks.end());
    digests.insert(digests.end(), batch.digests.begin(), batch.digests.end());
  }
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;
};

// --- Shredder: every GPU mode must match the host reference ---

class FingerprintModes : public ::testing::TestWithParam<GpuMode> {};

TEST_P(FingerprintModes, DigestsMatchHostSha256) {
  ShredderConfig cfg = small_config();
  cfg.mode = GetParam();
  Shredder shredder(cfg);
  const auto data = random_bytes(500000, 23);
  const auto result = shredder.run(as_bytes(data));
  const auto expected =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
  EXPECT_EQ(result.chunks, expected);
  ASSERT_EQ(result.digests.size(), result.chunks.size());
  EXPECT_EQ(result.digests, host_digests(as_bytes(data), expected));
  EXPECT_GT(result.fingerprint_totals.virtual_seconds, 0.0);
  EXPECT_GE(result.fingerprint_totals.bytes_processed, data.size());
  EXPECT_GT(result.mean_stage_seconds.fingerprint, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllModes, FingerprintModes,
                         ::testing::Values(GpuMode::kBasic, GpuMode::kStreams,
                                           GpuMode::kStreamsCoalesced));

TEST(Fingerprint, MinMaxForcedBoundariesHashCorrectly) {
  // Sparse raw boundaries + tight max_size: most chunk ends are forced by
  // the max-size rule, including at buffer seams — the drain_forced path.
  ShredderConfig cfg = small_config();
  cfg.chunker.mask_bits = 14;  // raw boundary every ~16 KB
  cfg.chunker.min_size = 256;
  cfg.chunker.max_size = 1024;
  cfg.buffer_bytes = 4096;
  Shredder shredder(cfg);
  const auto data = random_bytes(100000, 31);
  const auto result = shredder.run(as_bytes(data));
  const auto expected =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
  EXPECT_EQ(result.chunks, expected);
  EXPECT_EQ(result.digests, host_digests(as_bytes(data), expected));
}

TEST(Fingerprint, ChunkSpanningManyBuffersHashesIncrementally) {
  // No max size and a mask that (almost) never fires: chunks span many
  // buffers, so the carried SHA-256 context does the heavy lifting.
  ShredderConfig cfg = small_config();
  cfg.chunker.mask_bits = 22;
  cfg.buffer_bytes = 8192;
  Shredder shredder(cfg);
  const auto data = random_bytes(200000, 37);
  const auto result = shredder.run(as_bytes(data));
  const auto expected =
      chunking::chunk_serial(shredder.tables(), cfg.chunker, as_bytes(data));
  ASSERT_FALSE(result.chunks.empty());
  EXPECT_EQ(result.chunks, expected);
  EXPECT_EQ(result.digests, host_digests(as_bytes(data), expected));
}

TEST(Fingerprint, EmptyInputYieldsNoDigests) {
  Shredder shredder(small_config());
  const auto result = shredder.run(ByteSpan{});
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_TRUE(result.digests.empty());
}

TEST(Fingerprint, TinyInputSingleTrailingChunk) {
  // Smaller than one buffer and than min_size: exactly one chunk, closed by
  // the eos path.
  ShredderConfig cfg = small_config();
  cfg.chunker.min_size = 4096;
  cfg.chunker.max_size = 0;
  Shredder shredder(cfg);
  const auto data = random_bytes(100, 41);
  const auto result = shredder.run(as_bytes(data));
  ASSERT_EQ(result.chunks.size(), 1u);
  EXPECT_EQ(result.chunks[0].size, 100u);
  ASSERT_EQ(result.digests.size(), 1u);
  EXPECT_EQ(result.digests[0], dedup::ChunkHasher::hash(as_bytes(data)));
}

TEST(Fingerprint, SinkDigestsStreamInChunkOrder) {
  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto data = random_bytes(300000, 43);
  CollectingSink sink;
  const auto result = shredder.run(as_bytes(data), sink);
  EXPECT_EQ(sink.chunks, result.chunks);
  EXPECT_EQ(sink.digests, result.digests);
}

TEST(Fingerprint, OffByDefaultLeavesResultUnchanged) {
  ShredderConfig cfg = small_config();
  cfg.fingerprint_on_device = false;
  Shredder shredder(cfg);
  const auto data = random_bytes(200000, 47);
  const auto result = shredder.run(as_bytes(data));
  EXPECT_TRUE(result.digests.empty());
  EXPECT_DOUBLE_EQ(result.mean_stage_seconds.fingerprint, 0.0);
  EXPECT_EQ(result.chunks, chunking::chunk_serial(shredder.tables(),
                                                  cfg.chunker, as_bytes(data)));
}

// --- Host backends agree with the device digests ---

TEST(Fingerprint, SerialAndParallelHostBackendsAgree) {
  const auto chunker = small_chunker();
  const rabin::RabinTables tables(chunker.window);
  const auto data = random_bytes(300000, 53);

  ShredderConfig cfg = small_config();
  Shredder shredder(cfg);
  const auto device = shredder.run(as_bytes(data));

  // Serial backend.
  const auto serial = chunking::chunk_serial(tables, chunker, as_bytes(data));
  EXPECT_EQ(device.chunks, serial);
  EXPECT_EQ(device.digests, host_digests(as_bytes(data), serial));
  // Parallel host backend.
  const auto parallel =
      chunk_on_host(as_bytes(data), chunker, gpu::HostSpec{}, true, 4);
  EXPECT_EQ(device.chunks, parallel.chunks);
  EXPECT_EQ(device.digests, host_digests(as_bytes(data), parallel.chunks));
}

// --- Multi-tenant service ---

TEST(Fingerprint, ServiceTenantsMatchHostSha256) {
  service::ServiceConfig cfg;
  cfg.chunker = small_chunker();
  cfg.chunker.min_size = 128;
  cfg.chunker.max_size = 2048;
  cfg.buffer_bytes = 32 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  cfg.fingerprint_on_device = true;

  const std::size_t n_streams = 3;
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < n_streams; ++k) {
    payloads.push_back(random_bytes(120000 + 41017 * k, 500 + k));
  }

  service::ChunkingService svc(cfg);
  std::vector<service::ChunkingService::StreamId> ids;
  std::vector<CollectingSink> sinks(n_streams);
  for (std::size_t k = 0; k < n_streams; ++k) {
    service::TenantOptions opts;
    opts.sink = &sinks[k];
    ids.push_back(svc.open(std::move(opts)));
  }
  std::vector<std::thread> producers;
  for (std::size_t k = 0; k < n_streams; ++k) {
    producers.emplace_back([&, k] {
      svc.submit(ids[k], as_bytes(payloads[k]));
      svc.finish(ids[k]);
    });
  }
  for (auto& t : producers) t.join();

  const rabin::RabinTables tables(cfg.chunker.window);
  for (std::size_t k = 0; k < n_streams; ++k) {
    const auto result = svc.wait(ids[k]);
    const auto expected =
        chunking::chunk_serial(tables, cfg.chunker, as_bytes(payloads[k]));
    EXPECT_EQ(result.chunks, expected) << "stream " << k;
    EXPECT_EQ(result.digests, host_digests(as_bytes(payloads[k]), expected))
        << "stream " << k;
    EXPECT_EQ(sinks[k].digests, result.digests) << "stream " << k;
    EXPECT_GT(result.report.stage_totals.fingerprint, 0.0);
  }
  svc.shutdown();
}

// --- Precomputed digests through the backup server ---

TEST(Fingerprint, BackupServerDeviceHashMatchesHostHash) {
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 77;
  backup::ImageRepository repo(repo_cfg);

  auto server_cfg = [&](bool device_hash) {
    backup::BackupServerConfig c;
    c.backend = backup::ChunkerBackend::kShredderGpu;
    c.chunker = small_chunker();
    c.chunker.min_size = 512;
    c.chunker.max_size = 8 * 1024;
    c.shredder.buffer_bytes = 512 * 1024;
    c.shredder.sim_threads = 4;
    c.fingerprint_on_device = device_hash;
    return c;
  };
  backup::BackupServer host_server(server_cfg(false));
  backup::BackupServer device_server(server_cfg(true));
  backup::BackupAgent host_agent, device_agent;

  for (int step = 0; step < 2; ++step) {
    const auto snap = repo.snapshot(step * 0.1, step + 1);
    const std::string id = "vm" + std::to_string(step);
    const auto hs = host_server.backup_image(id, as_bytes(snap), repo,
                                             host_agent);
    const auto ds = device_server.backup_image(id, as_bytes(snap), repo,
                                               device_agent);
    EXPECT_TRUE(hs.verified);
    EXPECT_TRUE(ds.verified);
    EXPECT_TRUE(ds.device_fingerprint);
    EXPECT_FALSE(hs.device_fingerprint);
    // Same chunks, same digests => identical dedup outcome.
    EXPECT_EQ(ds.chunks, hs.chunks);
    EXPECT_EQ(ds.duplicate_chunks, hs.duplicate_chunks);
    EXPECT_EQ(ds.unique_bytes, hs.unique_bytes);
    // The host hash stage disappears from the device path...
    EXPECT_DOUBLE_EQ(ds.hashing_seconds, 0.0);
    EXPECT_GT(hs.hashing_seconds, 0.0);
    // ...so steady-state backup bandwidth can only improve.
    EXPECT_GE(ds.backup_bandwidth_gbps, hs.backup_bandwidth_gbps);
  }
  EXPECT_EQ(host_agent.unique_bytes(), device_agent.unique_bytes());
}

TEST(Fingerprint, SharedServiceBackendCarriesDeviceDigests) {
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  backup::ImageRepository repo(repo_cfg);

  service::ServiceConfig svc_cfg;
  svc_cfg.chunker = small_chunker();
  svc_cfg.chunker.min_size = 512;
  svc_cfg.chunker.max_size = 8 * 1024;
  svc_cfg.buffer_bytes = 256 * 1024;
  svc_cfg.sim_threads = 4;
  svc_cfg.fingerprint_on_device = true;

  backup::BackupServerConfig cfg;
  cfg.backend = backup::ChunkerBackend::kSharedService;
  cfg.chunker = svc_cfg.chunker;
  cfg.fingerprint_on_device = true;
  cfg.service = std::make_shared<service::ChunkingService>(svc_cfg);

  backup::BackupServer server(cfg);
  backup::BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  std::vector<backup::BackupServer::SnapshotJob> jobs;
  jobs.push_back({"vm1", as_bytes(base)});
  jobs.push_back({"vm2", as_bytes(base)});  // identical: fully deduplicated
  const auto stats = server.backup_images(jobs, repo, agent);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_TRUE(stats[0].verified);
  EXPECT_TRUE(stats[1].verified);
  EXPECT_TRUE(stats[0].device_fingerprint);
  EXPECT_EQ(stats[1].duplicate_chunks, stats[1].chunks);
  EXPECT_EQ(stats[1].unique_bytes, 0u);
}

TEST(Fingerprint, SharedServiceFingerprintMismatchRejected) {
  service::ServiceConfig svc_cfg;
  svc_cfg.chunker = small_chunker();
  svc_cfg.buffer_bytes = 256 * 1024;
  svc_cfg.sim_threads = 2;
  svc_cfg.fingerprint_on_device = false;

  backup::BackupServerConfig cfg;
  cfg.backend = backup::ChunkerBackend::kSharedService;
  cfg.chunker = svc_cfg.chunker;
  cfg.fingerprint_on_device = true;  // differs from the service
  cfg.service = std::make_shared<service::ChunkingService>(svc_cfg);
  EXPECT_THROW(backup::BackupServer{cfg}, std::invalid_argument);
}

// --- Overlap: the hash kernel must not serialize the pipeline ---

TEST(Fingerprint, PipelinedFingerprintOverlapsStages) {
  ShredderConfig cfg = small_config();
  cfg.buffer_bytes = 256 * 1024;
  Shredder shredder(cfg);
  const auto data = random_bytes(4 << 20, 61);
  const auto result = shredder.run(as_bytes(data));
  // With the hash kernel overlapping the next buffer's H2D, the pipeline
  // makespan stays well below the serialized stage sum.
  EXPECT_LT(result.virtual_seconds, result.serialized_seconds * 0.75);
  EXPECT_GT(result.mean_stage_seconds.fingerprint, 0.0);
}

// --- The end-to-end bar: device hashing backs up >= 1.3x faster ---

// Backs an 8 MiB snapshot pair up twice, hashing on the host store thread
// and then on the device, and runs the device-hashing pipeline over the
// successor alone. Every output is pinned (docs/fingerprint.md).
TEST(Fingerprint, DeviceHashBacksUpFasterThanHostHash) {
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 8ull << 20;
  repo_cfg.segment_bytes = 1ull << 20;
  repo_cfg.seed = 1234;
  backup::ImageRepository repo(repo_cfg);

  // Paper-scale backup chunker, tuned so the index stage stays off the
  // critical path (~8 KB chunks): the host-hash run is hash-bound, the
  // device-hash run is generation-bound.
  const auto server_config = [](bool device_hash) {
    backup::BackupServerConfig cfg;
    cfg.backend = backup::ChunkerBackend::kShredderGpu;
    cfg.chunker.window = 48;
    cfg.chunker.mask_bits = 13;
    cfg.chunker.marker = 0x78;
    cfg.chunker.min_size = 4 * 1024;
    cfg.chunker.max_size = 32 * 1024;
    cfg.shredder.buffer_bytes = 1ull << 20;
    cfg.fingerprint_on_device = device_hash;
    return cfg;
  };

  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.10, 2);
  backup::BackupRunStats host, device;
  for (const bool device_hash : {false, true}) {
    backup::BackupServer server(server_config(device_hash));
    backup::BackupAgent agent;
    server.backup_image("base", as_bytes(base), repo, agent);
    const auto stats = server.backup_image("snap", as_bytes(snap), repo, agent);
    ASSERT_TRUE(stats.verified) << "device_hash=" << device_hash;
    (device_hash ? device : host) = stats;
  }
  const double speedup =
      device.backup_bandwidth_gbps / host.backup_bandwidth_gbps;
  EXPECT_GE(speedup, 1.3);
  EXPECT_EQ(printed(host.backup_bandwidth_gbps, 3), "7.200");
  EXPECT_EQ(printed(device.backup_bandwidth_gbps, 3), "10.000");
  EXPECT_EQ(printed(speedup, 3), "1.389");
  EXPECT_EQ(printed(host.hashing_seconds, 6), "0.009321");
  EXPECT_EQ(printed(device.hashing_seconds, 6), "0.000000");

  // The hash kernel of buffer i overlaps the H2D of buffer i+1, so the
  // makespan stays well under the serialized stage sum.
  ShredderConfig pipe_cfg = server_config(true).shredder;
  pipe_cfg.chunker = server_config(true).chunker;
  pipe_cfg.fingerprint_on_device = true;
  Shredder shredder(pipe_cfg);
  const auto pipe = shredder.run(as_bytes(snap));
  const auto& m = pipe.mean_stage_seconds;
  EXPECT_EQ(printed(m.reader, 6), "0.000524");
  EXPECT_EQ(printed(m.transfer, 6), "0.000206");
  EXPECT_EQ(printed(m.kernel, 6), "0.000148");
  EXPECT_EQ(printed(m.fingerprint, 6), "0.000260");
  EXPECT_EQ(printed(m.store, 6), "0.000015");
  EXPECT_EQ(printed(pipe.virtual_seconds, 6), "0.004823");
  EXPECT_EQ(printed(pipe.serialized_seconds, 6), "0.009226");
  EXPECT_EQ(printed(pipe.serialized_seconds / pipe.virtual_seconds, 3),
            "1.913");
}

}  // namespace
}  // namespace shredder::core
