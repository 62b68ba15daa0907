// Batch consumer API suite (core/sink.h, docs/backup_wire.md):
//
//  * sink equivalence — the batches a ChunkSink receives concatenate to
//    exactly the collected result (chunks, digests, one eos batch) across
//    Shredder and the service;
//  * payload views — ChunkBatchView::chunk_bytes slices the real stream
//    bytes, for in-memory runs and for streaming runs with a rolling tail;
//  * extent-coalesced wire protocol — every chunk ships once, random
//    duplicate-run layouts recreate bit-exactly, malformed batches are
//    rejected, and the 2 KB small-chunk point stays batched (one wire
//    message per drained buffer, never one per chunk).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <tuple>
#include <vector>

#include "backup/backup_server.h"
#include "common/rng.h"
#include "core/lease.h"
#include "core/shredder.h"
#include "service/service.h"

namespace shredder {
namespace {

// Records every delivered batch: concatenated chunks/digests, batch bounds,
// payload-view copies, and eos bookkeeping.
class RecordingSink final : public ChunkSink {
 public:
  explicit RecordingSink(bool want_payload = false)
      : want_payload_(want_payload) {}

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
      const ByteSpan bytes = batch.chunk_bytes(i);
      if (want_payload_) {
        ASSERT_EQ(bytes.size(), batch.chunks[i].size);
        payloads_.emplace_back(bytes.begin(), bytes.end());
      }
    }
  }
  bool wants_payload() const noexcept override { return want_payload_; }

  const std::vector<chunking::Chunk>& chunks() const { return chunks_; }
  const std::vector<dedup::ChunkDigest>& digests() const { return digests_; }
  const std::vector<ByteVec>& payloads() const { return payloads_; }
  const std::vector<std::size_t>& batch_ends() const { return batch_ends_; }
  std::uint64_t eos_batches() const { return eos_batches_; }

 private:
  bool want_payload_;
  std::vector<chunking::Chunk> chunks_;
  std::vector<dedup::ChunkDigest> digests_;
  std::vector<ByteVec> payloads_;
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

// --- ChunkBatchView / PayloadTail units ------------------------------------

// An owned-vector segment holding a copy of `staged`, the lease a
// producer without a pinned ring (basic mode) hands the tail.
core::SlotLease owned_lease(ByteSpan staged) {
  return core::SlotLease::from_owned(ByteVec(staged.begin(), staged.end()));
}

TEST(ChunkBatchView, ChunkBytesSlicesAndBoundsChecks) {
  const ByteVec data = random_bytes(256, 1);
  ChunkBatchView view;
  const std::vector<chunking::Chunk> chunks = {
      {100, 50},   // fully inside the window
      {40, 80},    // starts before payload_base
      {280, 40},   // runs past the window's end
  };
  view.chunks = chunks;
  view.payload = ByteSpan{data.data(), data.size()}.subspan(0, 200);
  view.payload_base = 64;
  ASSERT_TRUE(view.has_payload());
  const ByteSpan inside = view.chunk_bytes(0);
  ASSERT_EQ(inside.size(), 50u);
  EXPECT_EQ(std::memcmp(inside.data(), data.data() + (100 - 64), 50), 0);
  EXPECT_TRUE(view.chunk_bytes(1).empty());
  EXPECT_TRUE(view.chunk_bytes(2).empty());
}

TEST(ChunkBatchView, ChunkBytesResolvesThroughTheTail) {
  // Two retained buffers overlapping by a 10-byte carry; the view's
  // contiguous payload is the newest one.
  const ByteVec data = random_bytes(300, 41);
  PayloadTail tail;
  tail.append(owned_lease({data.data(), 200}), 0);
  tail.append(owned_lease({data.data() + 190, 110}), 10);
  ChunkBatchView view;
  const std::vector<chunking::Chunk> chunks = {
      {190, 50},   // exactly flush with payload_base: direct subspan
      {150, 80},   // straddles the window start: spliced from both segments
      {100, 50},   // entirely in the older segment: aliased through the tail
      {280, 40},   // runs past the stream end
  };
  view.chunks = chunks;
  view.payload = tail.window();
  view.payload_base = tail.window_base();
  view.tail = &tail;
  EXPECT_EQ(view.payload_base, 190u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ByteSpan bytes = view.chunk_bytes(i);
    ASSERT_EQ(bytes.size(), chunks[i].size) << "chunk " << i;
    EXPECT_EQ(std::memcmp(bytes.data(),
                          data.data() + static_cast<std::size_t>(chunks[i].offset),
                          bytes.size()),
              0)
        << "chunk " << i;
  }
  EXPECT_TRUE(view.chunk_bytes(3).empty());
  // An empty final batch still resolves (to nothing) without a payload.
  ChunkBatchView eos;
  eos.eos = true;
  eos.tail = &tail;
  EXPECT_FALSE(eos.has_payload());
  EXPECT_TRUE(eos.chunks.empty());
}

TEST(PayloadTail, AppendAndTrimKeepTheWindowBoundedAndOrdered) {
  const ByteVec data = random_bytes(1000, 43);
  PayloadTail tail;
  EXPECT_TRUE(tail.empty());
  EXPECT_EQ(tail.base(), 0u);
  EXPECT_EQ(tail.end(), 0u);
  const std::size_t kBuf = 100, kCarry = 10;
  std::uint64_t prev_base = 0;
  for (std::size_t pos = 0; pos < data.size(); pos += kBuf) {
    const std::size_t carry = pos == 0 ? 0 : kCarry;
    tail.append(owned_lease({data.data() + pos - carry, carry + kBuf}), carry);
    // end tracks the stream; base never moves backwards.
    EXPECT_EQ(tail.end(), pos + kBuf);
    EXPECT_GE(tail.base(), prev_base);
    prev_base = tail.base();
    // The producer invariant: trim to the "open chunk" start, here one and
    // a half buffers back. Retention stays bounded by open chunk + buffer.
    const std::uint64_t keep =
        tail.end() > 150 ? tail.end() - 150 : 0;
    tail.trim(keep);
    EXPECT_LE(tail.base(), keep);
    EXPECT_LE(tail.end() - tail.base(), 150 + kBuf + kCarry);
    // Every retained byte still reads back exactly.
    const std::size_t len = static_cast<std::size_t>(tail.end() - keep);
    const ByteSpan bytes = tail.slice(keep, len);
    ASSERT_EQ(bytes.size(), len);
    EXPECT_EQ(std::memcmp(bytes.data(),
                          data.data() + static_cast<std::size_t>(keep), len),
              0);
    // Out-of-window requests answer empty, not garbage.
    EXPECT_TRUE(tail.slice(tail.end(), 1).empty());
    if (tail.base() > 0) {
      EXPECT_TRUE(tail.slice(tail.base() - 1, 2).empty());
    }
  }
  // Trimming to the stream end empties the window entirely.
  tail.trim(tail.end());
  EXPECT_TRUE(tail.empty());
  EXPECT_EQ(tail.base(), tail.end());
}

TEST(PayloadTail, SlotCapCompactionReleasesPinnedSlots) {
  // Slot-backed segments beyond the cap compact into owned copies at trim,
  // releasing their ring slots while preserving the retained bytes.
  auto pool = std::make_shared<core::detail::SlotPool>(gpu::DeviceSpec{},
                                                       /*slots=*/4,
                                                       /*slot_size=*/128);
  const ByteVec data = random_bytes(3 * 128, 47);
  PayloadTail tail;
  tail.set_slot_cap(1);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto slot = pool->acquire();
    ASSERT_TRUE(slot.has_value());
    auto span = pool->slot_span(*slot);
    std::memcpy(span.data(), data.data() + i * 128, 128);
    tail.append(core::SlotLease::from_slot(pool, *slot, 128), 0);
  }
  EXPECT_EQ(tail.slot_leases(), 3u);
  EXPECT_EQ(pool->leased(), 3u);
  tail.trim(/*keep_from=*/100);  // keeps all three segments alive
  // Compaction narrows the oldest segments to their retained suffix.
  EXPECT_EQ(tail.base(), 100u);
  EXPECT_LE(tail.slot_leases(), 1u);
  EXPECT_LE(pool->leased(), 1u);
  // Compaction must not change what the window reads as.
  const ByteSpan bytes = tail.slice(100, 3 * 128 - 100);
  ASSERT_EQ(bytes.size(), 3u * 128 - 100);
  EXPECT_EQ(std::memcmp(bytes.data(), data.data() + 100, bytes.size()), 0);
  tail.trim(tail.end());
  EXPECT_EQ(pool->leased(), 0u);
}

TEST(PayloadTailDeathTest, RejectsCarryBeyondTheStagedBuffer) {
  // Regression: append() used to compute staged.begin() + carry unchecked;
  // a carry past the staged size walked off the buffer.
  const ByteVec staged = random_bytes(16, 3);
  PayloadTail tail;
  EXPECT_DEATH(tail.append(owned_lease(as_bytes(staged)), staged.size() + 1),
               "carry exceeds the staged buffer");
  // A carry reaching before the stream start is equally out of protocol.
  EXPECT_DEATH(tail.append(owned_lease(as_bytes(staged)), 1),
               "carry reaches before the stream start");
}

// --- Shredder: sink equivalence + payload views ----------------------------

class ShredderSinkModes : public ::testing::TestWithParam<bool> {};

TEST_P(ShredderSinkModes, SinkMatchesResult) {
  const bool fingerprint = GetParam();
  const auto data = random_bytes(300000, 7);

  core::Shredder shredder(small_shredder_config(fingerprint));
  RecordingSink sink(/*want_payload=*/true);
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
  // In-memory runs always provide payload views into the caller's span.
  ASSERT_EQ(sink.payloads().size(), batch_result.chunks.size());
  for (std::size_t i = 0; i < batch_result.chunks.size(); ++i) {
    const auto& c = batch_result.chunks[i];
    EXPECT_EQ(std::memcmp(sink.payloads()[i].data(),
                          data.data() + static_cast<std::size_t>(c.offset),
                          static_cast<std::size_t>(c.size)),
              0)
        << "chunk " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(FingerprintModes, ShredderSinkModes,
                         ::testing::Bool());

TEST_P(ShredderSinkModes, StreamingRollingTailProvidesPayloadViews) {
  // A true DataSource run holds no whole-stream span: the engine returns
  // staged bytes and the store stage keeps a rolling tail for the sink.
  // Both chunk-resolution paths matter — the min/max filter can finalize a
  // chunk in a later batch than the buffer holding its bytes, and the
  // trailing chunks only land in the post-loop eos batch.
  const auto data = random_bytes(300000, 11);
  core::Shredder shredder(small_shredder_config(GetParam()));
  core::MemorySource source(as_bytes(data),
                            shredder.config().host.reader_bw);
  RecordingSink sink(/*want_payload=*/true);
  const auto result = shredder.run(source, sink);
  EXPECT_EQ(result.total_bytes, data.size());
  ASSERT_EQ(sink.payloads().size(), result.chunks.size());
  for (std::size_t i = 0; i < result.chunks.size(); ++i) {
    const auto& c = result.chunks[i];
    EXPECT_EQ(std::memcmp(sink.payloads()[i].data(),
                          data.data() + static_cast<std::size_t>(c.offset),
                          static_cast<std::size_t>(c.size)),
              0)
        << "chunk " << i;
  }
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

TEST(ServiceSink, PayloadWantingSinkGetsViewsWithoutStoreRetention) {
  // Retention is a per-session lease window now, not a service-wide engine
  // flag: a payload-slicing sink on a non-storing service gets real views,
  // including one opened mid-run while another stream is already in flight.
  service::ChunkingService svc(small_service_config(/*fingerprint=*/true));
  const auto data_a = random_bytes(200000, 31);
  const auto data_b = random_bytes(150000, 32);

  RecordingSink sink_a(/*want_payload=*/true);
  service::TenantOptions opts_a;
  opts_a.sink = &sink_a;
  const auto id_a = svc.open(std::move(opts_a));
  svc.submit(id_a, as_bytes(data_a));

  // Dynamically added stream: opened after the first tenant is submitted.
  RecordingSink sink_b(/*want_payload=*/true);
  service::TenantOptions opts_b;
  opts_b.sink = &sink_b;
  const auto id_b = svc.open(std::move(opts_b));
  svc.submit(id_b, as_bytes(data_b));

  svc.finish(id_a);
  svc.finish(id_b);
  const auto res_a = svc.wait(id_a);
  const auto res_b = svc.wait(id_b);
  svc.shutdown();

  const auto check = [](const RecordingSink& sink,
                        const service::TenantResult& res, const ByteVec& data) {
    ASSERT_EQ(sink.payloads().size(), res.chunks.size());
    for (std::size_t i = 0; i < res.chunks.size(); ++i) {
      const auto& c = res.chunks[i];
      EXPECT_EQ(std::memcmp(sink.payloads()[i].data(),
                            data.data() + static_cast<std::size_t>(c.offset),
                            static_cast<std::size_t>(c.size)),
                0)
          << "chunk " << i;
    }
  };
  check(sink_a, res_a, data_a);
  check(sink_b, res_b, data_b);
}

// --- Both frontends: one store stage ---------------------------------------

// The same stream through Shredder::run(DataSource&, sink) and a one-tenant
// ChunkingService with the same chunker and buffer size. Both frontends run
// each stream through one core::StreamStore, so the delivered batches must
// match exactly: chunks, batch bounds (the backup wire ships one batch per
// delivered batch), digests and payload bytes, with one eos batch each.
class FrontendBatches
    : public ::testing::TestWithParam<
          std::tuple<bool, core::GpuMode, std::uint64_t>> {};

TEST_P(FrontendBatches, ShredderAndServiceDeliverIdenticalBatches) {
  const auto [fingerprint, mode, max_size] = GetParam();
  core::ShredderConfig cfg = small_shredder_config(fingerprint);
  cfg.mode = mode;
  cfg.chunker.max_size = max_size;
  // A zero run has no content boundary, so across the 64 KiB buffer seams
  // it forces max-size cuts; at 96 KiB its chunks span buffers and resolve
  // through the payload tail.
  ByteVec data = random_bytes(300000, 61);
  std::fill(data.begin() + 60000, data.begin() + 190000, std::uint8_t{0});

  core::Shredder shredder(cfg);
  core::MemorySource shredder_source(as_bytes(data),
                                     shredder.config().host.reader_bw);
  RecordingSink shredder_sink(/*want_payload=*/true);
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
  RecordingSink service_sink(/*want_payload=*/true);
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
  EXPECT_EQ(shredder_sink.payloads(), service_sink.payloads());
  EXPECT_EQ(shredder_sink.eos_batches(), 1u);
  EXPECT_EQ(service_sink.eos_batches(), 1u);
  // Only the 96 KiB cap lets the zero run form chunks wider than a buffer.
  std::uint64_t widest = 0;
  for (const auto& c : shredder_result.chunks) {
    widest = std::max(widest, c.size);
  }
  EXPECT_EQ(widest > cfg.buffer_bytes, max_size > cfg.buffer_bytes);
  // The payload views are the stream's real bytes.
  ASSERT_EQ(shredder_sink.payloads().size(), shredder_result.chunks.size());
  for (std::size_t i = 0; i < shredder_result.chunks.size(); ++i) {
    const auto& c = shredder_result.chunks[i];
    EXPECT_EQ(std::memcmp(shredder_sink.payloads()[i].data(),
                          data.data() + static_cast<std::size_t>(c.offset),
                          static_cast<std::size_t>(c.size)),
              0)
        << "chunk " << i;
  }
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
