// Batch consumer API suite (core/sink.h, docs/backup_wire.md):
//
//  * sink equivalence — the batches a ChunkSink receives concatenate to
//    exactly the collected result (chunks, digests, one eos batch) across
//    Shredder's two source shapes and the service;
//  * extent-coalesced wire protocol — every chunk ships once, random
//    duplicate-run layouts recreate bit-exactly, malformed batches are
//    rejected, and the 2 KB small-chunk point stays batched (one wire
//    message per drained buffer, never one per chunk).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "backup/backup_server.h"
#include "common/rng.h"
#include "core/shredder.h"
#include "service/service.h"

namespace shredder {
namespace {

// Records every delivered batch: concatenated chunks/digests, batch bounds
// and eos bookkeeping.
class RecordingSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView& batch) override {
    EXPECT_EQ(batch.stream_seq, n_batches_);
    ++n_batches_;
    if (batch.eos) ++eos_batches_;
    EXPECT_TRUE(batch.digests.empty() ||
                batch.digests.size() == batch.chunks.size());
    batch_ends_.push_back(chunks_.size() + batch.chunks.size());
    for (std::size_t i = 0; i < batch.chunks.size(); ++i) {
      chunks_.push_back(batch.chunks[i]);
      if (!batch.digests.empty()) digests_.push_back(batch.digests[i]);
    }
  }

  const std::vector<chunking::Chunk>& chunks() const { return chunks_; }
  const std::vector<dedup::ChunkDigest>& digests() const { return digests_; }
  const std::vector<std::size_t>& batch_ends() const { return batch_ends_; }
  std::uint64_t eos_batches() const { return eos_batches_; }

 private:
  std::vector<chunking::Chunk> chunks_;
  std::vector<dedup::ChunkDigest> digests_;
  std::vector<std::size_t> batch_ends_;
  std::uint64_t n_batches_ = 0;
  std::uint64_t eos_batches_ = 0;
};

core::ShredderConfig small_shredder_config(bool fingerprint) {
  core::ShredderConfig cfg;
  cfg.chunker.window = 16;
  cfg.chunker.mask_bits = 8;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 64;
  cfg.chunker.max_size = 2048;
  cfg.buffer_bytes = 64 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  cfg.fingerprint_on_device = fingerprint;
  return cfg;
}

// --- Shredder: sink equivalence -------------------------------------------

class ShredderSinkModes : public ::testing::TestWithParam<bool> {};

TEST_P(ShredderSinkModes, SinkMatchesResult) {
  const bool fingerprint = GetParam();
  const auto data = random_bytes(300000, 7);

  core::Shredder shredder(small_shredder_config(fingerprint));
  RecordingSink sink;
  const auto batch_result = shredder.run(as_bytes(data), sink);

  // The delivered batches concatenate to exactly the collected result.
  EXPECT_EQ(sink.chunks(), batch_result.chunks);
  EXPECT_EQ(sink.eos_batches(), 1u);
  if (fingerprint) {
    ASSERT_EQ(sink.digests().size(), batch_result.chunks.size());
    for (std::size_t i = 0; i < sink.digests().size(); ++i) {
      EXPECT_EQ(sink.digests()[i], batch_result.digests[i]);
    }
  } else {
    EXPECT_TRUE(sink.digests().empty());
  }
}

INSTANTIATE_TEST_SUITE_P(FingerprintModes, ShredderSinkModes,
                         ::testing::Bool());

TEST_P(ShredderSinkModes, DataSourceAndByteSpanRunsDeliverIdenticalBatches) {
  // run(ByteSpan, sink) reads its span through a MemorySource, so both
  // source shapes take one code path: the same stream must arrive as the
  // same batches, chunks, digests and one eos batch.
  const bool fingerprint = GetParam();
  const auto data = random_bytes(300000, 11);
  core::Shredder shredder(small_shredder_config(fingerprint));
  core::MemorySource source(as_bytes(data),
                            shredder.config().host.reader_bw);
  RecordingSink stream_sink;
  const auto stream_result = shredder.run(source, stream_sink);
  RecordingSink span_sink;
  const auto span_result = shredder.run(as_bytes(data), span_sink);

  EXPECT_EQ(stream_result.total_bytes, data.size());
  EXPECT_EQ(stream_result.chunks, span_result.chunks);
  EXPECT_EQ(stream_sink.chunks(), span_sink.chunks());
  EXPECT_EQ(stream_sink.chunks(), stream_result.chunks);
  EXPECT_EQ(stream_sink.digests(), span_sink.digests());
  EXPECT_EQ(stream_sink.digests().empty(), !fingerprint);
  EXPECT_EQ(stream_sink.batch_ends(), span_sink.batch_ends());
  EXPECT_GT(stream_sink.batch_ends().size(), 2u);
  EXPECT_EQ(stream_sink.eos_batches(), 1u);
  EXPECT_EQ(span_sink.eos_batches(), 1u);
}

TEST(ShredderSink, EmptyStreamDeliversOneEosBatch) {
  core::Shredder shredder(small_shredder_config(/*fingerprint=*/false));
  RecordingSink sink;
  const auto result = shredder.run(ByteSpan{}, sink);
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_TRUE(sink.chunks().empty());
  EXPECT_EQ(sink.eos_batches(), 1u);
}

// --- Service: sink equivalence ---------------------------------------------

service::ServiceConfig small_service_config(bool fingerprint) {
  service::ServiceConfig cfg;
  cfg.chunker.window = 16;
  cfg.chunker.mask_bits = 8;
  cfg.chunker.marker = 0x42;
  cfg.buffer_bytes = 64 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  cfg.fingerprint_on_device = fingerprint;
  return cfg;
}

TEST(ServiceSink, SinkMatchesResult) {
  for (const bool fingerprint : {false, true}) {
    service::ChunkingService svc(small_service_config(fingerprint));
    const auto data = random_bytes(200000, 21);

    RecordingSink sink;
    service::TenantOptions opts;
    opts.sink = &sink;
    const auto id = svc.open(std::move(opts));
    svc.submit(id, as_bytes(data));
    svc.finish(id);
    const auto res = svc.wait(id);
    svc.shutdown();

    EXPECT_EQ(sink.chunks(), res.chunks);
    EXPECT_EQ(sink.eos_batches(), 1u);
    EXPECT_FALSE(sink.batch_ends().empty());
    EXPECT_EQ(sink.batch_ends().back(), res.chunks.size());
    if (fingerprint) {
      EXPECT_EQ(sink.digests(), res.digests);
    } else {
      EXPECT_TRUE(sink.digests().empty());
    }
  }
}

// --- Both frontends: one store stage ---------------------------------------

// The same stream through Shredder::run(DataSource&, sink) and a one-tenant
// ChunkingService with the same chunker and buffer size. Both frontends run
// each stream through one core::StreamStore, so the delivered batches must
// match exactly: chunks, batch bounds (the backup wire ships one batch per
// delivered batch) and digests, with one eos batch each.
class FrontendBatches
    : public ::testing::TestWithParam<
          std::tuple<bool, core::GpuMode, std::uint64_t>> {};

TEST_P(FrontendBatches, ShredderAndServiceDeliverIdenticalBatches) {
  const auto [fingerprint, mode, max_size] = GetParam();
  core::ShredderConfig cfg = small_shredder_config(fingerprint);
  cfg.mode = mode;
  cfg.chunker.max_size = max_size;
  // A zero run has no content boundary, so across the 64 KiB buffer seams
  // it forces max-size cuts; at 96 KiB its chunks span buffers and finalize
  // a buffer late.
  ByteVec data = random_bytes(300000, 61);
  std::fill(data.begin() + 60000, data.begin() + 190000, std::uint8_t{0});

  core::Shredder shredder(cfg);
  core::MemorySource shredder_source(as_bytes(data),
                                     shredder.config().host.reader_bw);
  RecordingSink shredder_sink;
  const auto shredder_result = shredder.run(shredder_source, shredder_sink);

  service::ServiceConfig svc_cfg;
  svc_cfg.chunker = cfg.chunker;
  svc_cfg.buffer_bytes = cfg.buffer_bytes;
  svc_cfg.mode = cfg.mode;
  svc_cfg.kernel = cfg.kernel;
  svc_cfg.ring_slots = cfg.ring_slots;
  svc_cfg.sim_threads = cfg.sim_threads;
  svc_cfg.fingerprint_on_device = fingerprint;
  service::ChunkingService svc(svc_cfg);
  core::MemorySource service_source(as_bytes(data), svc_cfg.host.reader_bw);
  RecordingSink service_sink;
  service::TenantOptions opts;
  opts.sink = &service_sink;
  const auto service_result = svc.chunk_stream(service_source, std::move(opts));
  svc.shutdown();

  EXPECT_EQ(shredder_result.chunks, service_result.chunks);
  EXPECT_EQ(shredder_sink.chunks(), shredder_result.chunks);
  EXPECT_EQ(service_sink.chunks(), service_result.chunks);
  EXPECT_EQ(shredder_sink.batch_ends(), service_sink.batch_ends());
  EXPECT_GT(shredder_sink.batch_ends().size(), 2u);
  EXPECT_EQ(shredder_sink.digests(), service_sink.digests());
  EXPECT_EQ(shredder_sink.digests().empty(), !fingerprint);
  EXPECT_EQ(shredder_sink.eos_batches(), 1u);
  EXPECT_EQ(service_sink.eos_batches(), 1u);
  // Only the 96 KiB cap lets the zero run form chunks wider than a buffer.
  std::uint64_t widest = 0;
  for (const auto& c : shredder_result.chunks) {
    widest = std::max(widest, c.size);
  }
  EXPECT_EQ(widest > cfg.buffer_bytes, max_size > cfg.buffer_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    StoreStage, FrontendBatches,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(core::GpuMode::kBasic,
                                         core::GpuMode::kStreams,
                                         core::GpuMode::kStreamsCoalesced),
                       ::testing::Values(std::uint64_t{2 * 1024},
                                         std::uint64_t{96 * 1024})));

// --- Backup: extent-coalesced wire batches ---------------------------------

backup::BackupServerConfig small_server_config() {
  backup::BackupServerConfig cfg;
  cfg.chunker.window = 32;
  cfg.chunker.mask_bits = 11;  // ~2 KB chunks: the small-chunk operating point
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 512;
  cfg.chunker.max_size = 8 * 1024;
  cfg.shredder.buffer_bytes = 512 * 1024;
  cfg.shredder.sim_threads = 4;
  return cfg;
}

TEST(BackupWire, EveryChunkShipsOnceInCoalescedBatches) {
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4 * 1024 * 1024;
  repo_cfg.segment_bytes = 128 * 1024;
  repo_cfg.seed = 5;
  backup::ImageRepository repo(repo_cfg);
  backup::BackupServer server(small_server_config());
  backup::BackupAgent agent;
  for (int step = 0; step < 3; ++step) {
    const auto snap = repo.snapshot(0.2 * step, step + 1);
    const std::string id = "vm" + std::to_string(step);
    const auto stats = server.backup_image(id, as_bytes(snap), repo, agent);
    ASSERT_TRUE(stats.verified);
    EXPECT_EQ(agent.recreate(id), snap);
    if (step > 0) {
      EXPECT_GT(stats.duplicate_chunks, 0u);
    }
    // Every chunk rides the logical stream exactly once, every unique byte
    // ships exactly once as payload, and the stream is batched: one message
    // per drained buffer (+ begin/end), with duplicate runs as extents.
    EXPECT_EQ(stats.transport.link.chunks, stats.chunks);
    EXPECT_EQ(stats.transport.link.payload_bytes, stats.unique_bytes);
    EXPECT_LT(stats.transport.link.messages, stats.chunks / 4);
    EXPECT_GT(stats.transport.link.extents, 0u);
  }
}

TEST(BackupWire, ExtentCoalescingPropertyRandomDuplicateRuns) {
  // Random duplicate-run layouts: images stitched from a pool of segments
  // where run lengths of repeats and fresh data vary pseudo-randomly. The
  // extent path must recreate every image bit-exactly.
  SplitMix64 rng(99);
  const std::size_t kSeg = 64 * 1024;
  std::vector<ByteVec> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(random_bytes(kSeg, 1000 + i));

  backup::ImageRepoConfig repo_cfg;  // only used for generation_seconds
  repo_cfg.image_bytes = 1024 * 1024;
  repo_cfg.segment_bytes = 128 * 1024;
  backup::ImageRepository repo(repo_cfg);

  backup::BackupServer server(small_server_config());
  backup::BackupAgent agent;
  for (int image = 0; image < 4; ++image) {
    ByteVec bytes;
    std::size_t fresh = 0;
    for (int run = 0; run < 24; ++run) {
      const std::size_t len = 1 + rng.next_below(3);
      if (rng.next_below(2) == 0) {
        // Duplicate run: repeat pool segments back-to-back.
        const std::size_t seg = rng.next_below(pool.size());
        for (std::size_t k = 0; k < len; ++k) {
          bytes.insert(bytes.end(), pool[seg].begin(), pool[seg].end());
        }
      } else {
        // Fresh run: never-seen bytes.
        const auto blob = random_bytes(len * kSeg, 5000 + 100 * image + run);
        bytes.insert(bytes.end(), blob.begin(), blob.end());
        ++fresh;
      }
    }
    ASSERT_GT(fresh, 0u);
    const std::string id = "layout" + std::to_string(image);
    const auto stats = server.backup_image(id, as_bytes(bytes), repo, agent);
    EXPECT_TRUE(stats.verified) << id;
    EXPECT_EQ(agent.recreate(id), bytes) << id;
    if (image > 0) {
      EXPECT_GT(stats.duplicate_chunks, 0u) << id;
    }
  }
}

TEST(BackupWire, ReceiveBatchRejectsMalformedFrames) {
  const auto a = random_bytes(100, 1);
  const auto digest = dedup::ChunkHasher::hash(as_bytes(a));

  {
    // Extents that do not partition the digest array.
    backup::BackupAgent agent;
    agent.begin_image("img");
    backup::BackupAgent::ExtentBatch batch;
    batch.digests = {digest, digest};
    batch.extents = {{0, 1, true}};  // second digest uncovered
    batch.payload_sizes = {100};
    batch.payload = a;
    EXPECT_THROW(agent.receive_batch("img", batch), std::invalid_argument);
  }
  {
    // payload_sizes disagreeing with the unique-chunk count.
    backup::BackupAgent agent;
    agent.begin_image("img");
    backup::BackupAgent::ExtentBatch batch;
    batch.digests = {digest};
    batch.extents = {{0, 1, true}};
    batch.payload = a;  // but no sizes
    EXPECT_THROW(agent.receive_batch("img", batch), std::invalid_argument);
  }
  {
    // Payload bytes not matching the advertised sizes.
    backup::BackupAgent agent;
    agent.begin_image("img");
    backup::BackupAgent::ExtentBatch batch;
    batch.digests = {digest};
    batch.extents = {{0, 1, true}};
    batch.payload_sizes = {64};
    batch.payload = a;  // 100 bytes
    EXPECT_THROW(agent.receive_batch("img", batch), std::invalid_argument);
  }
  {
    // Pointer extent naming an unknown chunk.
    backup::BackupAgent agent;
    agent.begin_image("img");
    backup::BackupAgent::ExtentBatch batch;
    batch.digests = {digest};
    batch.extents = {{0, 1, false}};
    EXPECT_THROW(agent.receive_batch("img", batch), std::invalid_argument);
  }
  {
    // A well-formed mixed batch lands: unique run then a pointer to it.
    backup::BackupAgent agent;
    agent.begin_image("img");
    backup::BackupAgent::ExtentBatch batch;
    batch.digests = {digest, digest};
    batch.extents = {{0, 1, true}, {1, 1, false}};
    batch.payload_sizes = {100};
    batch.payload = a;
    agent.receive_batch("img", batch);
    ByteVec expect(a);
    expect.insert(expect.end(), a.begin(), a.end());
    EXPECT_EQ(agent.recreate("img"), expect);
    EXPECT_EQ(agent.unique_chunks(), 1u);
  }
}

TEST(BackupWire, SmallChunkLinkRegressionAt2KB) {
  // The fig18-style small-chunk operating point: ~2 KB chunks, duplicate-
  // heavy successor snapshot. This bound is what catches a slide back to
  // per-chunk framing, where the message count would track the chunk count.
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 17;
  backup::ImageRepository repo(repo_cfg);

  backup::BackupServer server(small_server_config());
  backup::BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  server.backup_image("base", as_bytes(base), repo, agent);
  const auto snap = repo.snapshot(0.05, 2);
  const auto stats = server.backup_image("snap", as_bytes(snap), repo, agent);
  ASSERT_TRUE(stats.verified);
  // One wire message per drained 512 KiB buffer, segmented by the transport
  // at 256 KiB of frame content (so a payload-heavy buffer can split into up
  // to three frames), plus the begin/end image control frames.
  EXPECT_LE(stats.transport.link.messages,
            3 * (repo_cfg.image_bytes / (512 * 1024)) + 2);
}

}  // namespace
}  // namespace shredder
