// Tests for the cloud-backup case study: image repository + similarity
// table, backup agent protocol, the end-to-end dedup backup server, and
// the sparse index's >= 3x probe-path bar on a snapshot pair's digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "chunking/cdc.h"
#include "common/rng.h"
#include "dedup/index.h"
#include "printed.h"
#include "rabin/rabin.h"
#include "service/service.h"

namespace shredder::backup {
namespace {

ImageRepoConfig small_repo_config() {
  ImageRepoConfig c;
  c.image_bytes = 4 * 1024 * 1024;
  c.segment_bytes = 256 * 1024;
  c.seed = 99;
  return c;
}

chunking::ChunkerConfig small_backup_chunker() {
  chunking::ChunkerConfig c;
  c.window = 32;
  c.mask_bits = 11;  // ~2 KB chunks for test density
  c.marker = 0x42;
  c.min_size = 512;
  c.max_size = 8 * 1024;
  return c;
}

std::shared_ptr<service::ChunkingService> make_shared_service() {
  service::ServiceConfig cfg;
  cfg.chunker = small_backup_chunker();
  cfg.buffer_bytes = 512 * 1024;
  cfg.sim_threads = 4;
  return std::make_shared<service::ChunkingService>(cfg);
}

BackupServerConfig small_server_config(ChunkerBackend backend) {
  BackupServerConfig c;
  c.backend = backend;
  c.chunker = small_backup_chunker();
  c.shredder.buffer_bytes = 512 * 1024;
  c.shredder.sim_threads = 4;
  c.cpu_threads = 4;
  if (backend == ChunkerBackend::kSharedService) {
    c.service = make_shared_service();
  }
  return c;
}

// --- ImageRepository ---

TEST(ImageRepository, SnapshotZeroProbabilityIsMaster) {
  ImageRepository repo(small_repo_config());
  const auto snap = repo.snapshot(0.0, 1);
  EXPECT_TRUE(std::equal(snap.begin(), snap.end(), repo.master().begin(),
                         repo.master().end()));
}

TEST(ImageRepository, SnapshotOneReplacesEverySegment) {
  ImageRepository repo(small_repo_config());
  const auto snap = repo.snapshot(1.0, 1);
  const auto master = repo.master();
  // Every segment must differ somewhere.
  const auto seg = small_repo_config().segment_bytes;
  for (std::uint64_t s = 0; s < repo.num_segments(); ++s) {
    const std::size_t begin = static_cast<std::size_t>(s * seg);
    const std::size_t end = std::min<std::size_t>(begin + seg, master.size());
    EXPECT_FALSE(std::equal(snap.begin() + begin, snap.begin() + end,
                            master.begin() + begin))
        << "segment " << s;
  }
}

TEST(ImageRepository, IntermediateProbabilityChangesRoughlyThatFraction) {
  ImageRepoConfig cfg = small_repo_config();
  cfg.image_bytes = 16 * 1024 * 1024;
  cfg.segment_bytes = 64 * 1024;  // 256 segments
  ImageRepository repo(cfg);
  const auto snap = repo.snapshot(0.25, 7);
  const auto master = repo.master();
  std::uint64_t changed = 0;
  for (std::uint64_t s = 0; s < repo.num_segments(); ++s) {
    const std::size_t begin = static_cast<std::size_t>(s * cfg.segment_bytes);
    const std::size_t end =
        std::min<std::size_t>(begin + cfg.segment_bytes, master.size());
    changed += !std::equal(snap.begin() + begin, snap.begin() + end,
                           master.begin() + begin);
  }
  const double frac =
      static_cast<double>(changed) / static_cast<double>(repo.num_segments());
  EXPECT_GT(frac, 0.15);
  EXPECT_LT(frac, 0.35);
}

TEST(ImageRepository, SnapshotsDeterministicPerId) {
  ImageRepository repo(small_repo_config());
  EXPECT_EQ(repo.snapshot(0.3, 5), repo.snapshot(0.3, 5));
  EXPECT_NE(repo.snapshot(0.3, 5), repo.snapshot(0.3, 6));
}

TEST(ImageRepository, GenerationRate) {
  ImageRepository repo(small_repo_config());
  // 10 Gb/s == 1.25 GB/s.
  EXPECT_NEAR(repo.generation_seconds(1250000000ull), 1.0, 1e-9);
}

TEST(ImageRepository, Validation) {
  ImageRepoConfig bad = small_repo_config();
  bad.segment_bytes = 0;
  EXPECT_THROW(ImageRepository{bad}, std::invalid_argument);
  bad = small_repo_config();
  bad.segment_bytes = bad.image_bytes * 2;
  EXPECT_THROW(ImageRepository{bad}, std::invalid_argument);
  ImageRepository repo(small_repo_config());
  EXPECT_THROW(repo.snapshot(-0.1, 0), std::invalid_argument);
}

// --- BackupAgent protocol ---

// One-chunk wire batch naming `bytes`: a unique extent carrying the payload,
// or — with `pointer` — a single duplicate pointer to an already-stored chunk.
BackupAgent::ExtentBatch one_chunk(const ByteVec& bytes, bool pointer = false) {
  BackupAgent::ExtentBatch batch;
  batch.digests = {dedup::ChunkHasher::hash(as_bytes(bytes))};
  batch.extents = {{0, 1, !pointer}};
  if (!pointer) {
    batch.payload_sizes = {static_cast<std::uint32_t>(bytes.size())};
    batch.payload = bytes;
  }
  return batch;
}

TEST(BackupAgent, StoresAndRecreates) {
  BackupAgent agent;
  agent.begin_image("img");
  const auto a = random_bytes(100, 1);
  const auto b = random_bytes(50, 2);
  agent.receive_batch("img", one_chunk(a));
  agent.receive_batch("img", one_chunk(b));
  // Duplicate chunk as pointer.
  agent.receive_batch("img", one_chunk(a, /*pointer=*/true));
  const auto out = agent.recreate("img");
  ByteVec expect(a);
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), a.begin(), a.end());
  EXPECT_EQ(out, expect);
  EXPECT_EQ(agent.unique_chunks(), 2u);
}

TEST(BackupAgent, RecreateEqualsConcatenatedStoreGets) {
  // recreate() copies each chunk straight out of the agent's store into an
  // output sized once. Its bytes must equal a get() per recipe digest,
  // concatenated — over unique runs, pointer runs and digests repeated
  // across batches.
  const std::vector<ByteVec> c = {random_bytes(700, 31), random_bytes(1200, 32),
                                  random_bytes(90, 33), random_bytes(2048, 34),
                                  random_bytes(5, 35)};
  struct Entry {
    std::size_t chunk;
    bool unique;
  };
  const std::vector<std::vector<Entry>> batches = {
      {{0, true}, {1, true}, {2, true}, {0, false}},
      {{1, false}, {2, false}, {3, true}, {4, true}, {0, false}},
      {{4, false}, {4, false}, {3, false}},
  };
  BackupAgent agent;
  dedup::ChunkStore reference;  // the same puts the agent's store receives
  std::vector<dedup::ChunkDigest> recipe;
  agent.begin_image("img");
  for (const auto& entries : batches) {
    BackupAgent::ExtentBatch batch;
    for (const auto& [chunk, unique] : entries) {
      const ByteVec& bytes = c[chunk];
      const auto digest = dedup::ChunkHasher::hash(as_bytes(bytes));
      const auto idx = static_cast<std::uint32_t>(batch.digests.size());
      batch.digests.push_back(digest);
      if (batch.extents.empty() || batch.extents.back().unique != unique) {
        batch.extents.push_back({idx, 1, unique});
      } else {
        ++batch.extents.back().count;
      }
      if (unique) {
        batch.payload_sizes.push_back(static_cast<std::uint32_t>(bytes.size()));
        batch.payload.insert(batch.payload.end(), bytes.begin(), bytes.end());
        reference.put(digest, as_bytes(bytes));
      }
      recipe.push_back(digest);
    }
    agent.receive_batch("img", batch);
  }
  agent.end_image("img", recipe.size());
  ByteVec expect;
  for (const auto& digest : recipe) {
    const auto bytes = reference.get(digest);
    ASSERT_TRUE(bytes.has_value());
    expect.insert(expect.end(), bytes->begin(), bytes->end());
  }
  EXPECT_EQ(agent.recreate("img"), expect);
  EXPECT_EQ(agent.unique_chunks(), c.size());
}

TEST(BackupAgent, PointerToUnknownChunkThrows) {
  BackupAgent agent;
  agent.begin_image("img");
  EXPECT_THROW(agent.receive_batch(
                   "img", one_chunk(random_bytes(8, 3), /*pointer=*/true)),
               std::invalid_argument);
}

TEST(BackupAgent, RefusedFrameAppliesNothing) {
  // A frame [unique A, pointer to unknown B] is refused before A is stored,
  // sent full and sent stripped: the agent's chunks, bytes, pending repairs
  // and recipe stay as they were. A pointer to a unique chunk earlier in the
  // same frame and a pointer to a repair-pending digest are accepted, so a
  // correct frame then lands and the image seals at the old count plus its
  // chunks.
  const auto kept = random_bytes(70, 41);
  const auto pending = random_bytes(60, 42);
  const auto a = random_bytes(100, 43);
  const auto b = random_bytes(80, 44);
  const auto hash = [](const ByteVec& bytes) {
    return dedup::ChunkHasher::hash(as_bytes(bytes));
  };
  for (const bool stripped : {false, true}) {
    SCOPED_TRACE(stripped ? "stripped" : "full");
    const auto receive = [stripped](BackupAgent& agent,
                                    BackupAgent::ExtentBatch batch) {
      if (stripped) {
        batch.payload.clear();
        agent.receive_stripped("img", batch);
      } else {
        agent.receive_batch("img", batch);
      }
    };
    BackupAgent agent;
    agent.begin_image("img");
    agent.receive_batch("img", one_chunk(kept));
    // A stripped unique chunk the store lacks becomes repair-pending.
    BackupAgent::ExtentBatch gap = one_chunk(pending);
    gap.payload.clear();
    ASSERT_EQ(agent.receive_stripped("img", gap).size(), 1u);
    const auto chunks = agent.unique_chunks();
    const auto bytes = agent.unique_bytes();
    ASSERT_EQ(agent.pending_repairs(), 1u);

    BackupAgent::ExtentBatch bad;
    bad.digests = {hash(a), hash(b)};
    bad.extents = {{0, 1, true}, {1, 1, false}};
    bad.payload_sizes = {static_cast<std::uint32_t>(a.size())};
    bad.payload = a;
    try {
      receive(agent, bad);
      ADD_FAILURE() << "expected ProtocolError";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.violation(), ProtocolViolation::kUnknownPointer);
    }
    EXPECT_EQ(agent.unique_chunks(), chunks);
    EXPECT_EQ(agent.unique_bytes(), bytes);
    EXPECT_EQ(agent.pending_repairs(), 1u);
    EXPECT_EQ(agent.missing_chunks("img"),
              std::vector<dedup::ChunkDigest>{hash(pending)});

    BackupAgent::ExtentBatch good;
    good.digests = {hash(a), hash(a), hash(pending)};
    good.extents = {{0, 1, true}, {1, 2, false}};
    good.payload_sizes = {static_cast<std::uint32_t>(a.size())};
    good.payload = a;
    receive(agent, good);
    agent.end_image("img", 2 + 3);
    EXPECT_TRUE(agent.receive_repair(hash(pending), as_bytes(pending)));
    if (stripped) {
      EXPECT_TRUE(agent.receive_repair(hash(a), as_bytes(a)));
    }
    ByteVec expect;
    for (const ByteVec* chunk : {&kept, &pending, &a, &a, &pending}) {
      expect.insert(expect.end(), chunk->begin(), chunk->end());
    }
    EXPECT_EQ(agent.recreate("img"), expect);
    EXPECT_EQ(agent.unique_chunks(), 3u);
  }
}

TEST(BackupAgent, UnknownImageThrows) {
  BackupAgent agent;
  EXPECT_THROW(agent.recreate("nope"), std::invalid_argument);
  const auto a = random_bytes(8, 4);
  EXPECT_THROW(agent.receive_batch("nope", one_chunk(a)),
               std::invalid_argument);
}

TEST(BackupAgent, BeginImageIdempotentWhileOpen) {
  // A retransmitted begin control frame must neither duplicate nor reset an
  // in-progress recipe; only re-opening a *sealed* image is a violation.
  BackupAgent agent;
  EXPECT_TRUE(agent.begin_image("img"));
  const auto a = random_bytes(100, 1);
  agent.receive_batch("img", one_chunk(a));
  EXPECT_FALSE(agent.begin_image("img"));  // no-op re-open
  agent.receive_batch("img", one_chunk(a, /*pointer=*/true));
  EXPECT_EQ(agent.recreate("img").size(), 200u);  // recipe survived intact
  agent.end_image("img", 2);
  EXPECT_TRUE(agent.image_sealed("img"));
  agent.end_image("img", 2);  // sealing twice is harmless
  try {
    agent.begin_image("img");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kDuplicateImage);
  }
}

TEST(BackupAgent, EndImageValidatesRecipeLength) {
  BackupAgent agent;
  agent.begin_image("img");
  const auto a = random_bytes(64, 9);
  agent.receive_batch("img", one_chunk(a));
  try {
    agent.end_image("img", 5);  // truncated stream: only 1 chunk arrived
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kRecipeLengthMismatch);
  }
  agent.end_image("img", 1);
  // Data after the seal is a violation too.
  try {
    agent.receive_batch("img", one_chunk(a, /*pointer=*/true));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kSealedImage);
  }
}

TEST(BackupAgent, DeleteReleasesRefsAndForgetsReclaimedChunks) {
  // delete_image is the backup site's retention walk: one released store
  // reference per recipe occurrence, so a chunk another image still names
  // survives and one only the deleted image named is reclaimed — after
  // which the store no longer answers for it and a pointer to it is a
  // protocol violation, exactly like a pointer to a never-shipped chunk.
  const auto violation = [](const auto& op) {
    try {
      op();
    } catch (const ProtocolError& e) {
      return e.violation();
    }
    ADD_FAILURE() << "expected ProtocolError";
    return ProtocolViolation::kUnknownImage;
  };
  BackupAgent agent;
  const auto shared = random_bytes(100, 1);
  const auto only_old = random_bytes(60, 2);
  agent.begin_image("old");
  agent.receive_batch("old", one_chunk(shared));
  agent.receive_batch("old", one_chunk(only_old));
  agent.receive_batch("old", one_chunk(shared, /*pointer=*/true));
  EXPECT_EQ(violation([&] { agent.delete_image("old"); }),
            ProtocolViolation::kImageInProgress);
  agent.end_image("old", 3);
  agent.begin_image("new");
  agent.receive_batch("new", one_chunk(shared, /*pointer=*/true));
  agent.end_image("new", 1);
  ASSERT_EQ(agent.unique_chunks(), 2u);

  EXPECT_EQ(agent.delete_image("old"), 3u);
  EXPECT_EQ(agent.unique_chunks(), 1u);  // only_old reclaimed, shared kept
  EXPECT_EQ(agent.unique_bytes(), shared.size());
  EXPECT_EQ(agent.recreate("new"), shared);
  EXPECT_EQ(violation([&] { agent.delete_image("old"); }),
            ProtocolViolation::kUnknownImage);
  EXPECT_EQ(violation([&] { agent.recreate("old"); }),
            ProtocolViolation::kUnknownImage);

  agent.begin_image("later");
  EXPECT_EQ(violation([&] {
              agent.receive_batch("later", one_chunk(only_old,
                                                     /*pointer=*/true));
            }),
            ProtocolViolation::kUnknownPointer);
  // The shared chunk is still referenceable.
  agent.receive_batch("later", one_chunk(shared, /*pointer=*/true));
  EXPECT_EQ(agent.recreate("later"), shared);
}

// --- BackupServer end-to-end ---

class BackupBackends : public ::testing::TestWithParam<ChunkerBackend> {};

TEST_P(BackupBackends, FirstBackupAllUniqueAndVerified) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(GetParam()));
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  const auto stats = server.backup_image("vm1", as_bytes(snap), repo, agent);
  EXPECT_TRUE(stats.verified);
  EXPECT_EQ(stats.duplicate_chunks, 0u);
  EXPECT_EQ(stats.unique_bytes, snap.size());
  EXPECT_GT(stats.backup_bandwidth_gbps, 0.0);
}

TEST_P(BackupBackends, SecondIdenticalSnapshotFullyDeduplicated) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(GetParam()));
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  server.backup_image("vm1", as_bytes(snap), repo, agent);
  const auto stats = server.backup_image("vm2", as_bytes(snap), repo, agent);
  EXPECT_TRUE(stats.verified);
  EXPECT_EQ(stats.duplicate_chunks, stats.chunks);
  EXPECT_EQ(stats.unique_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, BackupBackends,
                         ::testing::Values(ChunkerBackend::kShredderGpu,
                                           ChunkerBackend::kPthreadsCpu,
                                           ChunkerBackend::kSharedService));

// --- Shared-service backend ---

TEST(BackupServer, SharedServiceMatchesDedicatedGpu) {
  // Routing the chunker through the multi-tenant service must not change a
  // single byte of the backup stream: same chunk counts, same dedup result.
  ImageRepository repo(small_repo_config());
  BackupServer gpu_server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupServer svc_server(small_server_config(ChunkerBackend::kSharedService));
  BackupAgent agent_a, agent_b;
  for (int step = 0; step < 2; ++step) {
    const auto snap = repo.snapshot(step * 0.1, step + 1);
    std::string id = "vm";
    id += std::to_string(step);
    const auto ga = gpu_server.backup_image(id, as_bytes(snap), repo, agent_a);
    const auto gb = svc_server.backup_image(id, as_bytes(snap), repo, agent_b);
    EXPECT_TRUE(ga.verified);
    EXPECT_TRUE(gb.verified);
    EXPECT_EQ(ga.chunks, gb.chunks);
    EXPECT_EQ(ga.duplicate_chunks, gb.duplicate_chunks);
    EXPECT_EQ(ga.unique_bytes, gb.unique_bytes);
    EXPECT_GT(gb.chunking_seconds, 0.0);
  }
  EXPECT_EQ(agent_a.unique_bytes(), agent_b.unique_bytes());
}

TEST(BackupServer, ConcurrentSnapshotsThroughOneDevice) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(ChunkerBackend::kSharedService));
  BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  const auto similar = repo.snapshot(0.10, 2);
  std::vector<BackupServer::SnapshotJob> jobs;
  jobs.push_back({"vm1", as_bytes(base)});
  jobs.push_back({"vm2", as_bytes(similar)});
  jobs.push_back({"vm3", as_bytes(base)});  // identical to vm1
  const auto stats = server.backup_images(jobs, repo, agent);
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) EXPECT_TRUE(s.verified);
  EXPECT_EQ(stats[0].duplicate_chunks, 0u);
  // vm3 is byte-identical to vm1: everything deduplicates.
  EXPECT_EQ(stats[2].duplicate_chunks, stats[2].chunks);
  EXPECT_EQ(stats[2].unique_bytes, 0u);
  // vm2 shares most content with vm1.
  EXPECT_LT(stats[1].unique_bytes, stats[1].bytes / 2);
  // The shared service stays usable for the next batch.
  const auto again =
      server.backup_image("vm4", as_bytes(similar), repo, agent);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(again.duplicate_chunks, again.chunks);
}

TEST(BackupServer, SharedServiceConfigValidation) {
  auto cfg = small_server_config(ChunkerBackend::kSharedService);
  cfg.service = nullptr;
  EXPECT_THROW(BackupServer{cfg}, std::invalid_argument);
  cfg = small_server_config(ChunkerBackend::kSharedService);
  cfg.chunker.mask_bits = 9;  // diverges from the service's chunker
  EXPECT_THROW(BackupServer{cfg}, std::invalid_argument);
}

TEST(BackupServer, PooledHostHashMatchesSerialDigests) {
  // The CPU backend hashes its chunks on the chunker's worker pool. The
  // manifest must still list SHA-256 over the serial chunker's chunks, in
  // order, and the hash stage stays priced at the host hash bandwidth.
  ImageRepository repo(small_repo_config());
  const auto cfg = small_server_config(ChunkerBackend::kPthreadsCpu);
  ASSERT_EQ(cfg.cpu_threads, 4u);
  BackupServer server(cfg);
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  const ByteSpan image = as_bytes(snap);
  const auto stats = server.backup_image("vm1", image, repo, agent);
  ASSERT_TRUE(stats.verified);

  const rabin::RabinTables tables(cfg.chunker.window);
  const auto chunks = chunking::chunk_serial(tables, cfg.chunker, image);
  ASSERT_GE(chunks.size(), 1000u);
  std::vector<dedup::ChunkDigest> expect;
  for (const auto& c : chunks) {
    expect.push_back(dedup::ChunkHasher::hash(
        image.subspan(static_cast<std::size_t>(c.offset),
                      static_cast<std::size_t>(c.size))));
  }
  EXPECT_EQ(stats.chunks, chunks.size());
  EXPECT_EQ(server.retention().manifests().digests("", "vm1"), expect);
  // The agent sealed the root of that manifest: verified means these match.
  EXPECT_EQ(agent.image_root("vm1"), dedup::root_digest(expect));
  EXPECT_FALSE(stats.device_fingerprint);
  EXPECT_EQ(stats.hashing_seconds,
            static_cast<double>(stats.bytes) / cfg.costs.host_hash_bw);

  const auto again = server.backup_image("vm2", image, repo, agent);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(again.duplicate_chunks, again.chunks);
  EXPECT_EQ(again.unique_bytes, 0u);
}

TEST(BackupServer, MinMaxChunkSizesRespected) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupAgent agent;
  const auto snap = repo.snapshot(0.1, 1);
  server.backup_image("vm1", as_bytes(snap), repo, agent);
  // Recreate and re-chunk to check sizes; simpler: rely on config and check
  // chunk count bounds: chunks >= bytes/max and <= bytes/min + 1.
  const auto& cfg = server.config().chunker;
  const auto stats = server.backup_image("vm2", as_bytes(snap), repo, agent);
  EXPECT_GE(stats.chunks, snap.size() / cfg.max_size);
  EXPECT_LE(stats.chunks, snap.size() / cfg.min_size + 1);
}

TEST(BackupServer, SimilarSnapshotMostlyDeduplicated) {
  // 64 segments so a 10% change probability deterministically hits several.
  ImageRepoConfig repo_cfg = small_repo_config();
  repo_cfg.segment_bytes = 64 * 1024;
  ImageRepository repo(repo_cfg);
  BackupServer server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupAgent agent;
  server.backup_image("vm1", as_bytes(repo.snapshot(0.0, 1)), repo, agent);
  const auto snap2 = repo.snapshot(0.10, 2);
  const auto stats = server.backup_image("vm2", as_bytes(snap2), repo, agent);
  EXPECT_TRUE(stats.verified);
  const double unique_frac = static_cast<double>(stats.unique_bytes) /
                             static_cast<double>(stats.bytes);
  EXPECT_GT(unique_frac, 0.03);
  EXPECT_LT(unique_frac, 0.30);
}

TEST(BackupServer, GpuBeatsCpuBandwidth) {
  // The Figure 18 headline: Shredder raises backup bandwidth ~2.5x because
  // the CPU baseline is chunking-bound.
  ImageRepository repo(small_repo_config());
  BackupServer gpu_server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupServer cpu_server(small_server_config(ChunkerBackend::kPthreadsCpu));
  BackupAgent agent_a, agent_b;
  const auto base = repo.snapshot(0.0, 1);
  gpu_server.backup_image("vm1", as_bytes(base), repo, agent_a);
  cpu_server.backup_image("vm1", as_bytes(base), repo, agent_b);
  const auto snap = repo.snapshot(0.10, 2);
  const auto gpu_stats = gpu_server.backup_image("vm2", as_bytes(snap), repo, agent_a);
  const auto cpu_stats = cpu_server.backup_image("vm2", as_bytes(snap), repo, agent_b);
  // At this test scale (4 MB image, 2 KB chunks) the index stage is twice as
  // expensive per byte as the paper's 4 KB configuration and pipeline
  // startup penalizes the GPU path, so the margin is below the ~2.5x of
  // Fig 18 (the full-scale bench reproduces that number).
  EXPECT_GT(gpu_stats.backup_bandwidth_gbps,
            1.4 * cpu_stats.backup_bandwidth_gbps);
}

TEST(BackupServer, BandwidthDecreasesWithDissimilarity) {
  ImageRepository repo(small_repo_config());
  BackupServer server(small_server_config(ChunkerBackend::kShredderGpu));
  BackupAgent agent;
  server.backup_image("base", as_bytes(repo.snapshot(0.0, 1)), repo, agent);
  const auto low = server.backup_image(
      "low", as_bytes(repo.snapshot(0.05, 2)), repo, agent);
  const auto high = server.backup_image(
      "high", as_bytes(repo.snapshot(0.60, 3)), repo, agent);
  EXPECT_GT(low.backup_bandwidth_gbps, high.backup_bandwidth_gbps);
}

// --- Sparse fingerprint index (docs/dedup_index.md) ---

TEST(BackupServer, SparseIndexMatchesBaselineAcrossSimilarity) {
  // The low-similarity regression sweep: 0% / 50% / 100% duplicate
  // snapshots through two servers differing only in IndexKind. The sparse
  // index must (a) make bit-identical dedup decisions and (b) never back up
  // slower than the baseline at any similarity point.
  ImageRepoConfig repo_cfg = small_repo_config();
  repo_cfg.segment_bytes = 64 * 1024;  // enough segments for 50% to bite
  ImageRepository repo(repo_cfg);

  auto cfg_with = [&](dedup::IndexKind kind) {
    auto c = small_server_config(ChunkerBackend::kShredderGpu);
    c.index.kind = kind;
    return c;
  };
  BackupServer baseline(cfg_with(dedup::IndexKind::kPaperBaseline));
  BackupServer sparse(cfg_with(dedup::IndexKind::kSparse));
  BackupAgent agent_a, agent_b;

  const auto base = repo.snapshot(0.0, 1);
  // change_probability 1.0 / 0.5 / 0.0 => ~0% / ~50% / 100% duplicates.
  const double change_probs[] = {1.0, 0.5, 0.0};
  std::uint64_t step = 0;
  for (const double p : change_probs) {
    if (step == 0) {
      baseline.backup_image("base", as_bytes(base), repo, agent_a);
      sparse.backup_image("base", as_bytes(base), repo, agent_b);
    }
    const auto snap = repo.snapshot(p, 100 + step);
    std::string id = "snap" + std::to_string(step++);
    const auto sb = baseline.backup_image(id, as_bytes(snap), repo, agent_a);
    const auto ss = sparse.backup_image(id, as_bytes(snap), repo, agent_b);
    ASSERT_TRUE(sb.verified);
    ASSERT_TRUE(ss.verified);
    // Bit-identical dedup decisions.
    EXPECT_EQ(ss.chunks, sb.chunks) << "p=" << p;
    EXPECT_EQ(ss.duplicate_chunks, sb.duplicate_chunks) << "p=" << p;
    EXPECT_EQ(ss.unique_bytes, sb.unique_bytes) << "p=" << p;
    // The sparse probe path is never the slower one.
    EXPECT_GE(ss.backup_bandwidth_gbps, sb.backup_bandwidth_gbps) << "p=" << p;
    EXPECT_LE(ss.index_seconds, sb.index_seconds) << "p=" << p;
    EXPECT_EQ(ss.index_kind, dedup::IndexKind::kSparse);
    EXPECT_EQ(sb.index_kind, dedup::IndexKind::kPaperBaseline);
  }
  // Identical backup streams reached both agents.
  EXPECT_EQ(agent_a.unique_bytes(), agent_b.unique_bytes());
  EXPECT_EQ(agent_a.unique_chunks(), agent_b.unique_chunks());
  EXPECT_EQ(baseline.index().size(), sparse.index().size());
}

TEST(BackupServer, SparseIndexDuplicateRunsHitThePrefetchCache) {
  // A fully duplicate snapshot probes the index in the same order the base
  // snapshot inserted it, so the sparse backend should serve almost every
  // probe from a prefetched container instead of the modelled flash.
  ImageRepository repo(small_repo_config());
  auto cfg = small_server_config(ChunkerBackend::kShredderGpu);
  cfg.index.kind = dedup::IndexKind::kSparse;
  cfg.index.sparse.container_entries = 64;
  BackupServer server(cfg);
  BackupAgent agent;
  const auto snap = repo.snapshot(0.0, 1);
  server.backup_image("base", as_bytes(snap), repo, agent);
  const auto stats = server.backup_image("dup", as_bytes(snap), repo, agent);
  ASSERT_TRUE(stats.verified);
  EXPECT_EQ(stats.duplicate_chunks, stats.chunks);
  EXPECT_GT(stats.index_cache_hits, 0u);
  // One flash read per sealed container (plus alias noise), far fewer than
  // one per chunk.
  EXPECT_LT(stats.index_flash_reads,
            stats.chunks / 8 + cfg.index.sparse.container_entries);
}

TEST(SparseIndex, ProbePathBeatsBaselineThreefoldAtLowSimilarity) {
  // Replays the 4 KB digest stream of an 8 MiB snapshot pair (base, then a
  // successor) through both index backends at the backup server's §7.3
  // probe costs. Fixed-size chunks: this isolates the index, not the
  // chunker. Bars: identical dedup decisions, some duplicates, and the
  // sparse probe path >= 3x faster when three quarters of the segments
  // changed (docs/dedup_index.md). Every output is pinned.
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 8ull << 20;
  // Enough similarity segments that a 0.75 change probability reliably
  // leaves some unchanged (duplicate) runs.
  repo_cfg.segment_bytes = 256ull << 10;
  repo_cfg.seed = 77;
  ImageRepository repo(repo_cfg);
  constexpr std::size_t kChunk = 4096;
  const auto digests_of = [&](const ByteVec& image) {
    std::vector<dedup::ChunkDigest> out;
    const ByteSpan data = as_bytes(image);
    for (std::size_t off = 0; off < data.size(); off += kChunk) {
      out.push_back(dedup::ChunkHasher::hash(
          data.subspan(off, std::min(kChunk, data.size() - off))));
    }
    return out;
  };
  const auto base = digests_of(repo.snapshot(0.0, 1));

  struct Replay {
    double snapshot_seconds = 0;   // modelled index time of the successor
    std::uint64_t duplicates = 0;  // successor probes answered by the index
    dedup::IndexStats stats;
  };
  const auto replay = [&](dedup::IndexKind kind,
                          const std::vector<dedup::ChunkDigest>& snap) {
    dedup::IndexConfig cfg;
    cfg.kind = kind;
    const BackupCostModel backup_costs;
    cfg.costs.probe_s = backup_costs.index_probe_s;
    cfg.costs.insert_s = backup_costs.index_insert_s;
    auto index = dedup::make_index(cfg);
    std::uint64_t off = 0;
    for (const auto& d : base) {
      index->lookup_or_insert(d, {off, kChunk}, /*stream=*/0);
      off += kChunk;
    }
    const double before = index->virtual_seconds();
    Replay r;
    for (const auto& d : snap) {
      if (index->lookup_or_insert(d, {off, kChunk}, /*stream=*/1)) {
        ++r.duplicates;
      }
      off += kChunk;
    }
    r.stats = index->stats();
    r.snapshot_seconds = r.stats.virtual_seconds - before;
    return r;
  };

  const auto snap_low = digests_of(repo.snapshot(0.75, 2));
  const auto base_low = replay(dedup::IndexKind::kPaperBaseline, snap_low);
  const auto sparse_low = replay(dedup::IndexKind::kSparse, snap_low);
  ASSERT_EQ(snap_low.size(), 2048u);
  EXPECT_EQ(sparse_low.duplicates, base_low.duplicates);
  EXPECT_GT(base_low.duplicates, 0u);
  const double speedup_low =
      base_low.snapshot_seconds / sparse_low.snapshot_seconds;
  EXPECT_GE(speedup_low, 3.0);
  const double n_probes = static_cast<double>(snap_low.size());
  EXPECT_EQ(sparse_low.duplicates, 192u);
  EXPECT_EQ(printed(base_low.snapshot_seconds, 6), "0.018304");
  EXPECT_EQ(printed(sparse_low.snapshot_seconds, 6), "0.001168");
  EXPECT_EQ(printed(base_low.snapshot_seconds / n_probes * 1e6, 3), "8.938");
  EXPECT_EQ(printed(sparse_low.snapshot_seconds / n_probes * 1e6, 3),
            "0.570");
  EXPECT_EQ(sparse_low.stats.flash_reads, 2u);
  EXPECT_EQ(sparse_low.stats.cache_hits, 191u);
  EXPECT_EQ(printed(speedup_low, 3), "15.673");

  // High similarity: one segment in ten changed.
  const auto snap_high = digests_of(repo.snapshot(0.10, 3));
  const auto base_high = replay(dedup::IndexKind::kPaperBaseline, snap_high);
  const auto sparse_high = replay(dedup::IndexKind::kSparse, snap_high);
  EXPECT_EQ(sparse_high.duplicates, base_high.duplicates);
  EXPECT_EQ(sparse_high.duplicates, 1856u);
  EXPECT_EQ(printed(base_high.snapshot_seconds, 6), "0.008320");
  EXPECT_EQ(printed(sparse_high.snapshot_seconds, 6), "0.000915");
  EXPECT_EQ(
      printed(base_high.snapshot_seconds / sparse_high.snapshot_seconds, 3),
      "9.095");
}

}  // namespace
}  // namespace shredder::backup
