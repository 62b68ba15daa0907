// Fault-injection suite for the windowed, ack-clocked backup transport
// (backup/transport.h): differential schedules of loss, reordering,
// duplication, delay and agent stalls must never change a delivered byte,
// only the accounted recovery work. Also the typed-ProtocolError negative
// tests for malformed frames, the LinkStats closed-form accounting, and
// the loss sweep's ack-clocked goodput bar with its outputs pinned.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "backup/transport.h"
#include "common/rng.h"
#include "obs/registry.h"
#include "printed.h"
#include "service/service.h"

namespace shredder::backup {
namespace {

// A synthetic multi-batch backup stream with pseudo-random duplicate runs:
// the batches a server would ship, plus the bytes the agent must recreate.
struct Stream {
  std::vector<BackupAgent::ExtentBatch> batches;
  ByteVec image;
  std::unordered_map<dedup::ChunkDigest, ByteVec, dedup::ChunkDigestHash>
      chunks;  // every unique payload, keyed by digest (the repair source)
};

Stream make_stream(std::uint64_t seed, int n_batches, int chunks_per_batch) {
  SplitMix64 rng(seed);
  Stream s;
  std::vector<dedup::ChunkDigest> shipped;  // uniques in ship order
  for (int b = 0; b < n_batches; ++b) {
    BackupAgent::ExtentBatch batch;
    for (int c = 0; c < chunks_per_batch; ++c) {
      const bool dup = !shipped.empty() && rng.next_below(3) == 0;
      dedup::ChunkDigest digest;
      const ByteVec* payload = nullptr;
      bool unique = false;
      if (dup) {
        digest = shipped[rng.next_below(shipped.size())];
        payload = &s.chunks.at(digest);
      } else {
        ByteVec bytes = random_bytes(
            512 + rng.next_below(2048),
            seed * 7919 + static_cast<std::uint64_t>(b) * 131 + c);
        digest = dedup::ChunkHasher::hash(as_bytes(bytes));
        auto [it, inserted] = s.chunks.emplace(digest, std::move(bytes));
        if (inserted) shipped.push_back(digest);
        payload = &it->second;
        unique = inserted;
      }
      const auto idx = static_cast<std::uint32_t>(batch.digests.size());
      batch.digests.push_back(digest);
      if (batch.extents.empty() || batch.extents.back().unique != unique) {
        batch.extents.push_back({idx, 1, unique});
      } else {
        ++batch.extents.back().count;
      }
      if (unique) {
        batch.payload_sizes.push_back(
            static_cast<std::uint32_t>(payload->size()));
        batch.payload.insert(batch.payload.end(), payload->begin(),
                             payload->end());
      }
      s.image.insert(s.image.end(), payload->begin(), payload->end());
    }
    s.batches.push_back(std::move(batch));
  }
  return s;
}

RepairSource repair_from(const Stream& s) {
  return [&s](const dedup::ChunkDigest& digest) -> std::optional<ByteVec> {
    const auto it = s.chunks.find(digest);
    if (it == s.chunks.end()) return std::nullopt;
    return it->second;
  };
}

TransportStats ship(BackupAgent& agent, const Stream& s, TransportConfig cfg,
                    bool with_repair = true) {
  Transport t(agent, cfg, with_repair ? repair_from(s) : RepairSource{});
  t.begin_image("img");
  for (const auto& batch : s.batches) t.send_batch("img", batch);
  t.end_image("img");
  t.flush();
  return t.stats();
}

// frames_sent must decompose exactly into the logical stream plus the
// recovery traffic — nothing double-charged, nothing unaccounted.
void expect_accounting(const TransportStats& ts) {
  EXPECT_EQ(ts.frames_sent,
            ts.link.messages + ts.retransmits + ts.repair_frames + ts.probes);
  EXPECT_GT(ts.acks_sent, 0u);
  EXPECT_GT(ts.virtual_seconds, 0.0);
  EXPECT_GE(ts.virtual_seconds, ts.link.virtual_seconds);
}

// --- differential fault matrix --------------------------------------------

TEST(Transport, LosslessLinkStatsMatchClosedFormCostModel) {
  // A begin frame, one mixed unique/duplicate batch and an end frame over a
  // lossless wire: the logical link stats are exactly the LinkCostModel sum
  // over the three frames, and no recovery machinery fires.
  const TransportConfig cfg;
  const LinkCostModel& costs = cfg.link;
  BackupAgent agent;
  Transport t(agent, cfg);

  const auto a = random_bytes(1000, 1);
  const auto b = random_bytes(500, 2);
  const auto da = dedup::ChunkHasher::hash(as_bytes(a));
  const auto db = dedup::ChunkHasher::hash(as_bytes(b));

  std::uint64_t wire = 0;
  double seconds = 0;
  const auto msg = [&](std::size_t content) {
    wire += costs.msg_header_bytes + content;
    seconds += costs.msg_s +
               static_cast<double>(costs.msg_header_bytes + content) /
                   costs.bw;
  };

  t.begin_image("img");
  msg(3);  // "img"
  BackupAgent::ExtentBatch batch;
  batch.digests = {da, db, da, da};  // two uniques, then a two-pointer run
  batch.extents = {{0, 2, true}, {2, 2, false}};
  batch.payload_sizes = {static_cast<std::uint32_t>(a.size()),
                         static_cast<std::uint32_t>(b.size())};
  batch.payload = a;
  batch.payload.insert(batch.payload.end(), b.begin(), b.end());
  t.send_batch("img", batch);
  msg(4 * sizeof(dedup::ChunkDigest) + 2 * costs.extent_record_bytes +
      2 * sizeof(std::uint32_t) + a.size() + b.size());
  t.end_image("img");
  msg(3 + sizeof(std::uint64_t));  // "img" + expected chunk count
  t.flush();

  const TransportStats& ts = t.stats();
  EXPECT_EQ(ts.link.messages, 3u);
  EXPECT_EQ(ts.link.chunks, 4u);
  EXPECT_EQ(ts.link.extents, 2u);
  EXPECT_EQ(ts.link.wire_bytes, wire);
  EXPECT_EQ(ts.link.payload_bytes, a.size() + b.size());
  EXPECT_NEAR(ts.link.virtual_seconds, seconds, 1e-12);

  expect_accounting(ts);
  EXPECT_EQ(ts.retransmits, 0u);
  EXPECT_EQ(ts.rto_fires, 0u);
  EXPECT_EQ(ts.payloads_stripped, 0u);
  EXPECT_EQ(ts.repair_requests, 0u);
  EXPECT_EQ(ts.frames_dropped, 0u);
  EXPECT_FALSE(ts.degraded);
  // The makespan of the serialized simulation stays within the final ack
  // round trip of the logical serialized time.
  EXPECT_NEAR(ts.virtual_seconds, ts.link.virtual_seconds, 1e-3);

  EXPECT_TRUE(agent.image_sealed("img"));
  ByteVec expect(a);
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), a.begin(), a.end());
  expect.insert(expect.end(), a.begin(), a.end());
  EXPECT_EQ(agent.recreate("img"), expect);
}

TEST(Transport, FaultMatrixDeliversBitIdenticalImages) {
  const Stream s = make_stream(23, 8, 32);
  struct Schedule {
    const char* name;
    FaultModel faults;
  };
  std::vector<Schedule> schedules;
  {
    FaultModel f;
    f.drop = 0.05;
    schedules.push_back({"loss5", f});
  }
  {
    FaultModel f;
    f.drop = 0.20;
    schedules.push_back({"loss20", f});
  }
  {
    FaultModel f;
    f.reorder = 0.5;
    f.reorder_jitter_s = 500e-6;
    schedules.push_back({"reorder", f});
  }
  {
    FaultModel f;
    f.duplicate = 0.3;
    schedules.push_back({"duplicate", f});
  }
  {
    FaultModel f;
    f.delay = 0.1;
    schedules.push_back({"delay", f});
  }
  {
    FaultModel f;
    f.drop = 0.10;
    f.reorder = 0.25;
    f.duplicate = 0.10;
    f.delay = 0.05;
    f.stall = 0.10;
    schedules.push_back({"combined", f});
  }

  // Small frames force segmentation, so every schedule sees enough wire
  // messages (~100 data frames) for its fault rate to actually bite.
  TransportConfig base;
  base.max_frame_bytes = 4 * 1024;
  BackupAgent ref_agent;
  const TransportStats ref = ship(ref_agent, s, base);
  ASSERT_EQ(ref_agent.recreate("img"), s.image);

  for (const auto& schedule : schedules) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      TransportConfig cfg = base;
      cfg.faults = schedule.faults;
      cfg.faults.seed = seed;
      BackupAgent agent;
      const TransportStats ts = ship(agent, s, cfg);
      SCOPED_TRACE(std::string(schedule.name) + "/seed" +
                   std::to_string(seed));
      // The one invariant that matters: identical delivered bytes.
      EXPECT_EQ(agent.recreate("img"), s.image);
      EXPECT_TRUE(agent.image_sealed("img"));
      EXPECT_EQ(agent.pending_repairs(), 0u);
      expect_accounting(ts);
      // No double-charge: the logical stream accounting is byte-identical
      // to the lossless run no matter how much recovery traffic flowed.
      EXPECT_EQ(ts.link.messages, ref.link.messages);
      EXPECT_EQ(ts.link.extents, ref.link.extents);
      EXPECT_EQ(ts.link.chunks, ref.link.chunks);
      EXPECT_EQ(ts.link.wire_bytes, ref.link.wire_bytes);
      EXPECT_EQ(ts.link.payload_bytes, ref.link.payload_bytes);
      if (schedule.faults.drop > 0) {
        EXPECT_GT(ts.frames_dropped, 0u);
        EXPECT_GT(ts.retransmits, 0u);
        EXPECT_GT(ts.virtual_seconds, ref.virtual_seconds);
      }
      if (schedule.faults.duplicate > 0) {
        EXPECT_GT(ts.frames_duplicated, 0u);
        EXPECT_GT(ts.duplicate_frames, 0u);
      }
      if (schedule.faults.reorder > 0) {
        EXPECT_GT(ts.frames_reordered, 0u);
      }
    }
  }
}

TEST(Transport, DeterministicUnderSeed) {
  const Stream s = make_stream(31, 5, 20);
  TransportConfig cfg;
  cfg.faults.drop = 0.15;
  cfg.faults.reorder = 0.2;
  cfg.faults.seed = 77;
  BackupAgent a1, a2;
  const TransportStats t1 = ship(a1, s, cfg);
  const TransportStats t2 = ship(a2, s, cfg);
  EXPECT_EQ(t1.frames_sent, t2.frames_sent);
  EXPECT_EQ(t1.retransmits, t2.retransmits);
  EXPECT_EQ(t1.frames_dropped, t2.frames_dropped);
  EXPECT_EQ(t1.acks_sent, t2.acks_sent);
  EXPECT_DOUBLE_EQ(t1.virtual_seconds, t2.virtual_seconds);
}

TEST(Transport, SegmentsOnlyABatchPastTheFrameLimit) {
  // Batches whose content is half of, one byte under, exactly at and one
  // byte over max_frame_bytes: the first three ship as one data frame each,
  // the last as two, over a clean and a lossy link alike. The link charges
  // each original frame once, so its stats do not depend on the losses.
  TransportConfig base_cfg;
  base_cfg.max_frame_bytes = 16 * 1024;
  const std::size_t max = base_cfg.max_frame_bytes;
  // Each batch: unique chunks a and b, then a pointer back to a.
  const std::size_t framing = 3 * sizeof(dedup::ChunkDigest) +
                              2 * base_cfg.link.extent_record_bytes +
                              2 * sizeof(std::uint32_t);
  Stream s;
  std::uint64_t seed = 1;
  std::uint64_t payload_bytes = 0;
  for (const std::size_t content : {max / 2, max - 1, max, max + 1}) {
    const ByteVec a = random_bytes(4096, seed++);
    const ByteVec b = random_bytes(content - framing - a.size(), seed++);
    const auto da = dedup::ChunkHasher::hash(as_bytes(a));
    const auto db = dedup::ChunkHasher::hash(as_bytes(b));
    BackupAgent::ExtentBatch batch;
    batch.digests = {da, db, da};
    batch.extents = {{0, 2, true}, {2, 1, false}};
    batch.payload_sizes = {static_cast<std::uint32_t>(a.size()),
                           static_cast<std::uint32_t>(b.size())};
    batch.payload = a;
    batch.payload.insert(batch.payload.end(), b.begin(), b.end());
    payload_bytes += batch.payload.size();
    s.batches.push_back(std::move(batch));
    for (const ByteVec* chunk : {&a, &b, &a}) {
      s.image.insert(s.image.end(), chunk->begin(), chunk->end());
    }
    s.chunks.emplace(da, a);
    s.chunks.emplace(db, b);
  }

  TransportConfig lossy = base_cfg;
  lossy.max_payload_retx = 1;
  lossy.faults.drop = 0.25;
  lossy.faults.seed = 17;
  std::optional<LinkStats> clean_link;
  for (const TransportConfig& cfg : {base_cfg, lossy}) {
    SCOPED_TRACE(::testing::Message() << "drop " << cfg.faults.drop);
    BackupAgent agent;
    const TransportStats ts = ship(agent, s, cfg);
    // begin, one frame for each batch that fits, two for the one over,
    // end.
    EXPECT_EQ(ts.link.messages, 7u);
    expect_accounting(ts);
    // The over batch's unique run fills its first frame and its pointer
    // opens an extent in the second, so every batch ships two extents.
    EXPECT_EQ(ts.link.extents, 8u);
    EXPECT_EQ(ts.link.chunks, 12u);
    EXPECT_EQ(ts.link.payload_bytes, payload_bytes);
    // Splitting moves records between frames and adds none: the data frames
    // carry the four batches' content, begin carries the id and end the id
    // plus the chunk count.
    const std::size_t id = std::string("img").size();
    EXPECT_EQ(ts.link.wire_bytes, 7 * base_cfg.link.msg_header_bytes + id +
                                      (max / 2 + max - 1 + max + max + 1) +
                                      id + sizeof(std::uint64_t));
    if (!clean_link.has_value()) {
      clean_link = ts.link;
    } else {
      EXPECT_GT(ts.retransmits, 0u);
      EXPECT_EQ(ts.link.virtual_seconds, clean_link->virtual_seconds);
    }
    EXPECT_EQ(agent.recreate("img"), s.image);
  }
}

// --- flow control ----------------------------------------------------------

TEST(Transport, SlowAgentBackpressuresSender) {
  const Stream s = make_stream(41, 8, 24);
  TransportConfig cfg;
  cfg.recv_frames = 2;
  cfg.window_frames = 8;
  cfg.agent_apply_bw = 5e6;  // ~13 ms to apply a 64 KiB frame
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  // The sender spent most of the run blocked on the agent's window, and the
  // health heuristic flags the agent as degraded.
  EXPECT_GT(ts.window_stalls, 0u);
  EXPECT_GT(ts.window_stall_seconds, 0.5 * ts.virtual_seconds);
  EXPECT_TRUE(ts.degraded);
  // The makespan is apply-bound, far beyond the wire-limited time.
  EXPECT_GT(ts.virtual_seconds, 2.0 * ts.link.virtual_seconds);
}

TEST(Transport, ZeroWindowPersistProbes) {
  const Stream s = make_stream(43, 6, 16);
  TransportConfig cfg;
  cfg.recv_frames = 1;  // one receive buffer: window shuts after every frame
  cfg.agent_apply_bw = 2e6;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  EXPECT_GT(ts.probes, 0u);
  EXPECT_GT(ts.window_stall_seconds, 0.0);
}

TEST(Transport, BoundedReorderBufferDropsHonestly) {
  const Stream s = make_stream(47, 8, 24);
  TransportConfig cfg;
  cfg.reorder_slots = 2;
  cfg.faults.reorder = 0.8;
  cfg.faults.reorder_jitter_s = 3e-3;  // far beyond a frame service time
  cfg.faults.seed = 5;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  EXPECT_GT(ts.out_of_order_frames, 0u);
  // With two reassembly slots under heavy reordering some arrivals found no
  // buffer and were dropped — and recovered by retransmission.
  EXPECT_GT(ts.reassembly_drops, 0u);
  EXPECT_GT(ts.retransmits, 0u);
}

// --- repair protocol -------------------------------------------------------

TEST(Transport, StrippedPayloadsRecoverViaRepair) {
  const Stream s = make_stream(53, 8, 24);
  TransportConfig cfg;
  cfg.max_payload_retx = 0;  // first payload loss strips the frame
  cfg.faults.drop = 0.30;
  cfg.faults.seed = 9;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg);
  EXPECT_EQ(agent.recreate("img"), s.image);
  EXPECT_EQ(agent.pending_repairs(), 0u);
  expect_accounting(ts);
  EXPECT_GT(ts.payloads_stripped, 0u);
  EXPECT_GT(ts.repair_requests, 0u);
  EXPECT_GT(ts.repair_frames, 0u);
  EXPECT_GT(ts.repair_digests_requested, 0u);
  EXPECT_GT(ts.repair_payload_bytes, 0u);
}

TEST(Transport, NoRepairSourceNeverStrips) {
  const Stream s = make_stream(59, 6, 16);
  TransportConfig cfg;
  cfg.max_payload_retx = 0;
  cfg.faults.drop = 0.25;
  cfg.faults.seed = 3;
  BackupAgent agent;
  const TransportStats ts = ship(agent, s, cfg, /*with_repair=*/false);
  // Without a repair source the payload must keep retransmitting — stripping
  // would lose bytes for good.
  EXPECT_EQ(agent.recreate("img"), s.image);
  expect_accounting(ts);
  EXPECT_EQ(ts.payloads_stripped, 0u);
  EXPECT_EQ(ts.repair_requests, 0u);
  EXPECT_GT(ts.retransmits, 0u);
}

TEST(BackupAgent, StrippedBatchAndRepairFlow) {
  BackupAgent agent;
  agent.begin_image("img");
  const auto a = random_bytes(300, 1);
  const auto b = random_bytes(200, 2);
  const auto da = dedup::ChunkHasher::hash(as_bytes(a));
  const auto db = dedup::ChunkHasher::hash(as_bytes(b));

  BackupAgent::ExtentBatch batch;
  batch.digests = {da, db, da};  // two uniques then a pointer to the first
  batch.extents = {{0, 2, true}, {2, 1, false}};
  batch.payload_sizes = {300, 200};
  const auto missing = agent.receive_stripped("img", batch);
  ASSERT_EQ(missing.size(), 2u);
  EXPECT_EQ(missing[0], da);
  EXPECT_EQ(missing[1], db);
  EXPECT_EQ(agent.pending_repairs(), 2u);
  EXPECT_EQ(agent.missing_chunks("img"), missing);
  // No root before the seal, nor while the sealed recipe has gaps.
  EXPECT_EQ(agent.image_root("img"), std::nullopt);
  agent.end_image("img", 3);
  EXPECT_EQ(agent.image_root("img"), std::nullopt);
  // Recreate is impossible while repairs are pending.
  try {
    agent.recreate("img");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kRecipeIncomplete);
  }
  // A corrupt repair payload must not poison the store.
  try {
    agent.receive_repair(da, as_bytes(b));
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.violation(), ProtocolViolation::kPayloadDigestMismatch);
  }
  EXPECT_TRUE(agent.receive_repair(da, as_bytes(a)));
  EXPECT_FALSE(agent.receive_repair(da, as_bytes(a)));  // duplicate repair
  EXPECT_EQ(agent.image_root("img"), std::nullopt);    // db still pending
  EXPECT_TRUE(agent.receive_repair(db, as_bytes(b)));
  EXPECT_EQ(agent.pending_repairs(), 0u);
  EXPECT_EQ(agent.image_root("img"), dedup::root_digest(batch.digests));
  ByteVec expect(a);
  expect.insert(expect.end(), b.begin(), b.end());
  expect.insert(expect.end(), a.begin(), a.end());
  EXPECT_EQ(agent.recreate("img"), expect);
  // The deferred pointer reference was applied when the repair landed: all
  // three recipe entries are backed by two stored chunks.
  EXPECT_EQ(agent.unique_chunks(), 2u);
}

// --- admission hash and sealed root ----------------------------------------

ProtocolViolation catch_violation(const std::function<void()>& op) {
  try {
    op();
  } catch (const ProtocolError& e) {
    return e.violation();
  }
  ADD_FAILURE() << "expected ProtocolError";
  return ProtocolViolation::kUnknownImage;
}

// One full frame: unique chunks a and b, then a pointer to a.
BackupAgent::ExtentBatch two_uniques_and_a_pointer(const ByteVec& a,
                                                   const ByteVec& b) {
  const auto da = dedup::ChunkHasher::hash(as_bytes(a));
  BackupAgent::ExtentBatch batch;
  batch.digests = {da, dedup::ChunkHasher::hash(as_bytes(b)), da};
  batch.extents = {{0, 2, true}, {2, 1, false}};
  batch.payload_sizes = {static_cast<std::uint32_t>(a.size()),
                         static_cast<std::uint32_t>(b.size())};
  batch.payload = a;
  batch.payload.insert(batch.payload.end(), b.begin(), b.end());
  return batch;
}

// The agent refuses `bad`, a corrupted two_uniques_and_a_pointer(a, b),
// with kPayloadDigestMismatch and leaves the recipe and the store as they
// were; then the intact frame applies and the image recreates.
void expect_refused_then_intact_applies(const ByteVec& a, const ByteVec& b,
                                        const BackupAgent::ExtentBatch& bad) {
  const auto good = two_uniques_and_a_pointer(a, b);
  BackupAgent agent;
  agent.begin_image("img");
  const auto seed_chunk = random_bytes(64, 9);
  BackupAgent::ExtentBatch first;
  first.digests = {dedup::ChunkHasher::hash(as_bytes(seed_chunk))};
  first.extents = {{0, 1, true}};
  first.payload_sizes = {64};
  first.payload = seed_chunk;
  agent.receive_batch("img", first);
  const std::uint64_t chunks_before = agent.unique_chunks();
  const std::uint64_t bytes_before = agent.unique_bytes();

  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", bad); }),
            ProtocolViolation::kPayloadDigestMismatch);
  EXPECT_EQ(agent.unique_chunks(), chunks_before);
  EXPECT_EQ(agent.unique_bytes(), bytes_before);

  agent.receive_batch("img", good);
  // The recipe holds the first frame and the intact one, nothing of `bad`.
  agent.end_image("img", 1 + good.digests.size());
  ByteVec image(seed_chunk);
  for (const ByteVec* chunk : {&a, &b, &a}) {
    image.insert(image.end(), chunk->begin(), chunk->end());
  }
  EXPECT_EQ(agent.recreate("img"), image);
  std::vector<dedup::ChunkDigest> recipe = first.digests;
  recipe.insert(recipe.end(), good.digests.begin(), good.digests.end());
  EXPECT_EQ(agent.image_root("img"), dedup::root_digest(recipe));
}

TEST(BackupAgent, FlippedPayloadByteIsRefusedBeforeApply) {
  const auto a = random_bytes(300, 1);
  const auto b = random_bytes(200, 2);
  auto bad = two_uniques_and_a_pointer(a, b);
  bad.payload[300 + 17] ^= 0x01;  // one bit of b, the frame's second payload
  expect_refused_then_intact_applies(a, b, bad);
}

TEST(BackupAgent, SwappedPayloadDigestsAreRefused) {
  // Each payload filed under the other's digest: sizes still slice the
  // payload exactly, so only the admission hash can tell.
  const auto a = random_bytes(250, 3);
  const auto b = random_bytes(250, 4);
  auto bad = two_uniques_and_a_pointer(a, b);
  std::swap(bad.digests[0], bad.digests[1]);
  expect_refused_then_intact_applies(a, b, bad);
}

TEST(BackupAgent, ImageRootIsSealedOverTheOrderedRecipe) {
  const auto a = random_bytes(120, 5);
  const auto b = random_bytes(80, 6);
  BackupAgent agent;
  EXPECT_EQ(agent.image_root("nope"), std::nullopt);

  const auto ab = two_uniques_and_a_pointer(a, b);  // a, b, a
  agent.begin_image("ab");
  agent.receive_batch("ab", ab);
  EXPECT_EQ(agent.image_root("ab"), std::nullopt);  // not sealed yet
  agent.end_image("ab", 3);
  const auto root_ab = agent.image_root("ab");
  ASSERT_TRUE(root_ab.has_value());
  EXPECT_EQ(*root_ab, dedup::root_digest(ab.digests));
  agent.end_image("ab");  // an idempotent re-seal keeps the root
  EXPECT_EQ(agent.image_root("ab"), root_ab);

  // The same chunks in another order (b, a, a) give another root.
  BackupAgent::ExtentBatch ba;
  ba.digests = {ab.digests[1], ab.digests[0], ab.digests[0]};
  ba.extents = {{0, 3, false}};
  agent.begin_image("ba");
  agent.receive_batch("ba", ba);
  agent.end_image("ba", 3);
  const auto root_ba = agent.image_root("ba");
  ASSERT_TRUE(root_ba.has_value());
  EXPECT_EQ(*root_ba, dedup::root_digest(ba.digests));
  EXPECT_NE(*root_ba, *root_ab);
}

// --- malformed frames: typed violations ------------------------------------

TEST(BackupAgent, MalformedFramesCarryTypedViolations) {
  const auto a = random_bytes(100, 1);
  const auto digest = dedup::ChunkHasher::hash(as_bytes(a));

  BackupAgent agent;
  agent.begin_image("img");

  BackupAgent::ExtentBatch gap;
  gap.digests = {digest, digest};
  gap.extents = {{0, 1, true}};
  gap.payload_sizes = {100};
  gap.payload = a;
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", gap); }),
            ProtocolViolation::kBadExtentPartition);

  BackupAgent::ExtentBatch overlap;
  overlap.digests = {digest, digest};
  overlap.extents = {{0, 2, true}, {1, 1, false}};
  overlap.payload_sizes = {100, 100};
  overlap.payload = a;
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", overlap); }),
            ProtocolViolation::kBadExtentPartition);

  BackupAgent::ExtentBatch no_sizes;
  no_sizes.digests = {digest};
  no_sizes.extents = {{0, 1, true}};
  no_sizes.payload = a;
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", no_sizes); }),
            ProtocolViolation::kPayloadCountMismatch);

  BackupAgent::ExtentBatch short_payload;
  short_payload.digests = {digest};
  short_payload.extents = {{0, 1, true}};
  short_payload.payload_sizes = {64};
  short_payload.payload = a;  // 100 bytes
  EXPECT_EQ(
      catch_violation([&] { agent.receive_batch("img", short_payload); }),
      ProtocolViolation::kPayloadBytesMismatch);

  BackupAgent::ExtentBatch empty_chunk;
  empty_chunk.digests = {digest};
  empty_chunk.extents = {{0, 1, true}};
  empty_chunk.payload_sizes = {0};
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", empty_chunk); }),
            ProtocolViolation::kEmptyChunk);

  BackupAgent::ExtentBatch unknown_ptr;
  unknown_ptr.digests = {digest};
  unknown_ptr.extents = {{0, 1, false}};
  EXPECT_EQ(catch_violation([&] { agent.receive_batch("img", unknown_ptr); }),
            ProtocolViolation::kUnknownPointer);

  // A stripped frame carrying payload bytes is malformed.
  BackupAgent::ExtentBatch not_stripped;
  not_stripped.digests = {digest};
  not_stripped.extents = {{0, 1, true}};
  not_stripped.payload_sizes = {100};
  not_stripped.payload = a;
  EXPECT_EQ(
      catch_violation([&] { agent.receive_stripped("img", not_stripped); }),
      ProtocolViolation::kPayloadBytesMismatch);

  EXPECT_EQ(catch_violation([&] { agent.recreate("nope"); }),
            ProtocolViolation::kUnknownImage);
  // Nothing malformed was applied: the image is still empty and usable.
  BackupAgent::ExtentBatch ok;
  ok.digests = {digest};
  ok.extents = {{0, 1, true}};
  ok.payload_sizes = {100};
  ok.payload = a;
  agent.receive_batch("img", ok);
  EXPECT_EQ(agent.recreate("img"), a);
}

// --- end-to-end through BackupServer ---------------------------------------

BackupServerConfig faulty_server_config() {
  BackupServerConfig cfg;
  cfg.chunker.window = 32;
  cfg.chunker.mask_bits = 11;
  cfg.chunker.marker = 0x42;
  cfg.chunker.min_size = 512;
  cfg.chunker.max_size = 8 * 1024;
  cfg.shredder.buffer_bytes = 512 * 1024;
  cfg.shredder.sim_threads = 4;
  return cfg;
}

TEST(BackupServer, FaultySnapshotsStayVerified) {
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 77;
  ImageRepository repo(repo_cfg);

  auto cfg = faulty_server_config();
  cfg.transport.faults.drop = 0.10;
  cfg.transport.faults.reorder = 0.20;
  cfg.transport.faults.duplicate = 0.05;
  cfg.transport.faults.seed = 13;
  BackupServer server(cfg);
  BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  const auto s1 = server.backup_image("vm1", as_bytes(base), repo, agent);
  EXPECT_TRUE(s1.verified);
  EXPECT_GT(s1.transport.retransmits, 0u);
  EXPECT_EQ(s1.transport.frames_sent,
            s1.transport.link.messages + s1.transport.retransmits +
                s1.transport.repair_frames + s1.transport.probes);
  // Recovery work made this link stage slower than its logical stream time.
  EXPECT_GT(s1.link_seconds, s1.transport.link.virtual_seconds);

  const auto snap = repo.snapshot(0.3, 2);
  const auto s2 = server.backup_image("vm2", as_bytes(snap), repo, agent);
  EXPECT_TRUE(s2.verified);
  EXPECT_GT(s2.duplicate_chunks, 0u);
  EXPECT_EQ(agent.recreate("vm2"),
            ByteVec(snap.begin(), snap.end()));
}

TEST(BackupServer, ForcedRepairPathEndToEnd) {
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 78;
  ImageRepository repo(repo_cfg);

  auto cfg = faulty_server_config();
  cfg.transport.max_payload_retx = 0;
  cfg.transport.faults.drop = 0.30;
  cfg.transport.faults.seed = 21;
  BackupServer server(cfg);
  BackupAgent agent;
  // Every backup below strips payloads and repairs them from the image in
  // flight: a base image, a 30%-changed snapshot whose stripped frames mix
  // duplicate pointers with new unique chunks, and a stale-index re-ship.
  const auto expect_repaired = [&](const BackupRunStats& stats) {
    EXPECT_TRUE(stats.verified);
    EXPECT_GT(stats.transport.payloads_stripped, 0u);
    EXPECT_GT(stats.transport.repair_frames, 0u);
    EXPECT_EQ(agent.pending_repairs(), 0u);
  };
  const auto base = repo.snapshot(0.0, 1);
  expect_repaired(server.backup_image("vm1", as_bytes(base), repo, agent));

  const auto snap = repo.snapshot(0.3, 2);
  const auto s2 = server.backup_image("vm2", as_bytes(snap), repo, agent);
  expect_repaired(s2);
  EXPECT_GT(s2.duplicate_chunks, 0u);
  EXPECT_GT(s2.unique_bytes, 0u);

  // Stale index: the chunks only vm1 used are swept while the index still
  // names them, so backing vm1's content up again re-ships them as unique.
  server.delete_image("vm1");
  agent.delete_image("vm1");
  ASSERT_GT(server.gc().chunks_freed, 0u);
  const auto s3 = server.backup_image("vm3", as_bytes(base), repo, agent);
  expect_repaired(s3);
  EXPECT_GT(s3.unique_bytes, 0u);
  EXPECT_GT(s3.duplicate_chunks, 0u);  // the chunks vm2 still holds
  EXPECT_EQ(agent.recreate("vm3"), base);

  // The server keeps references and sizes, no bytes: every manifest digest
  // resolves, and its size slices the image back out in manifest order.
  const auto& store = server.retention().store();
  std::uint64_t occurrences = 0;
  const std::vector<std::pair<std::string, const ByteVec*>> live = {
      {"vm2", &snap}, {"vm3", &base}};
  for (const auto& [id, image] : live) {
    // The backup site sealed the root of exactly this manifest.
    const auto manifest = server.retention().manifests().digests("", id);
    EXPECT_EQ(agent.image_root(id), dedup::root_digest(manifest)) << id;
    std::uint64_t offset = 0;
    for (const auto& d : manifest) {
      ASSERT_TRUE(store->contains(d)) << id;
      EXPECT_GT(store->ref_count(d).value_or(0), 0u) << id;
      const auto size = store->chunk_bytes(d);
      ASSERT_TRUE(size.has_value()) << id;
      ASSERT_LE(offset + *size, image->size()) << id;
      EXPECT_EQ(dedup::ChunkHasher::hash(as_bytes(*image).subspan(
                    static_cast<std::size_t>(offset),
                    static_cast<std::size_t>(*size))),
                d)
          << id << " @" << offset;
      EXPECT_FALSE(store->get(d).has_value()) << id;
      offset += *size;
      ++occurrences;
    }
    EXPECT_EQ(offset, image->size()) << id;
  }
  EXPECT_EQ(store->total_refs(), occurrences);
}

TEST(BackupServer, LossSweepRecoveryStaysAckClocked) {
  // Ships a duplicate-heavy 8 MiB snapshot over frame-loss rates
  // {0, 1, 5, 10, 20}% plus mild reordering and duplication
  // (docs/backup_wire.md). Bars: every point verifies, and goodput at 1%
  // loss is >= 0.7x the lossless run, so recovery is ack-clocked, not
  // timeout-bound. Every output is pinned.
  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 8ull << 20;
  repo_cfg.segment_bytes = 256ull << 10;
  repo_cfg.seed = 4711;
  ImageRepository repo(repo_cfg);
  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.25, 2);  // mixed dup/unique successor

  // The fig18-style small-chunk operating point (~2 KB chunks, on-device
  // hashing, sparse index, so hash and probe stages are off the critical
  // path); the variable is the wire. 64 KiB frames give the fault schedule
  // enough wire messages to bite at 1% loss, and max_payload_retx = 2 hands
  // persistent payload losses to the digest-keyed repair protocol.
  const auto server_config = [](double loss) {
    BackupServerConfig cfg;
    cfg.backend = ChunkerBackend::kShredderGpu;
    cfg.chunker.window = 48;
    cfg.chunker.mask_bits = 11;
    cfg.chunker.marker = 0x78;
    cfg.chunker.min_size = 1024;
    cfg.chunker.max_size = 8 * 1024;
    cfg.shredder.buffer_bytes = 1ull << 20;
    cfg.fingerprint_on_device = true;
    cfg.index.kind = dedup::IndexKind::kSparse;
    cfg.transport.max_frame_bytes = 64 * 1024;
    cfg.transport.max_payload_retx = 2;
    cfg.transport.faults.drop = loss;
    if (loss > 0) {  // a lossy wire reorders and duplicates a little too
      cfg.transport.faults.reorder = 0.10;
      // ~2 frame service times of jitter: mild reordering that the sack
      // machinery should absorb without spurious fast retransmits.
      cfg.transport.faults.reorder_jitter_s = 100e-6;
      cfg.transport.faults.duplicate = 0.02;
    }
    cfg.transport.faults.seed = 29;
    return cfg;
  };

  struct Row {
    double loss;
    const char* goodput_gbps;
    const char* vs_lossless;
    const char* seconds;
    std::uint64_t frames_sent, retransmits, fast_retransmits, rto_fires,
        payloads_stripped, repair_frames;
    bool degraded;
  };
  const Row rows[] = {
      {0.00, "8.943", "1.000", "0.001658", 39, 0, 0, 0, 0, 0, false},
      {0.01, "6.639", "0.742", "0.002233", 41, 2, 1, 1, 0, 0, false},
      {0.05, "5.555", "0.621", "0.002669", 43, 4, 1, 3, 0, 0, true},
      {0.10, "3.939", "0.440", "0.003765", 43, 4, 1, 3, 0, 0, true},
      {0.20, "1.896", "0.212", "0.007819", 48, 9, 1, 8, 1, 0, true},
  };
  double lossless_goodput = 0;
  for (const Row& row : rows) {
    SCOPED_TRACE(::testing::Message() << "loss " << row.loss);
    BackupServer server(server_config(row.loss));
    BackupAgent agent;
    server.backup_image("base", as_bytes(base), repo, agent);
    const auto stats = server.backup_image("snap", as_bytes(snap), repo, agent);
    ASSERT_TRUE(stats.verified);
    const TransportStats& ts = stats.transport;
    if (row.loss == 0.0) lossless_goodput = ts.goodput_bps;
    const double vs_lossless = ts.goodput_bps / lossless_goodput;
    if (row.loss == 0.01) {
      EXPECT_GE(vs_lossless, 0.7);
    }
    EXPECT_EQ(printed(ts.goodput_bps / 1e9, 3), row.goodput_gbps);
    EXPECT_EQ(printed(vs_lossless, 3), row.vs_lossless);
    EXPECT_EQ(printed(ts.virtual_seconds, 6), row.seconds);
    EXPECT_EQ(ts.frames_sent, row.frames_sent);
    EXPECT_EQ(ts.retransmits, row.retransmits);
    EXPECT_EQ(ts.fast_retransmits, row.fast_retransmits);
    EXPECT_EQ(ts.rto_fires, row.rto_fires);
    EXPECT_EQ(ts.payloads_stripped, row.payloads_stripped);
    EXPECT_EQ(ts.repair_frames, row.repair_frames);
    EXPECT_EQ(printed(ts.window_stall_seconds, 6), "0.000000");
    EXPECT_EQ(ts.degraded, row.degraded);
  }
}

// --- shared service: per-server transport, one registry --------------------

TEST(BackupServer, SharedServiceRegistryCountsDegradedRuns) {
  // Two backup servers chunk through one shared service, each shipping to
  // its own agent over its own transport. Transport settings are per server
  // (BackupServerConfig::transport); the degraded verdict and the recovery
  // work land in the service's registry as backup.* counters.
  service::ServiceConfig svc_cfg;
  svc_cfg.chunker.window = 32;
  svc_cfg.chunker.mask_bits = 11;
  svc_cfg.chunker.marker = 0x42;
  svc_cfg.chunker.min_size = 512;
  svc_cfg.chunker.max_size = 8 * 1024;
  svc_cfg.buffer_bytes = 512 * 1024;
  svc_cfg.sim_threads = 4;
  auto svc = std::make_shared<service::ChunkingService>(svc_cfg);

  auto clean_cfg = faulty_server_config();
  clean_cfg.backend = ChunkerBackend::kSharedService;
  clean_cfg.service = svc;
  auto lossy_cfg = clean_cfg;
  lossy_cfg.transport.faults.drop = 0.25;
  lossy_cfg.transport.faults.seed = 42;
  BackupServer lossy_server(lossy_cfg);
  BackupServer clean_server(clean_cfg);

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 256 * 1024;
  repo_cfg.seed = 80;
  ImageRepository repo(repo_cfg);
  BackupAgent lossy_agent, clean_agent;
  const auto snap_a = repo.snapshot(0.0, 1);
  const auto snap_b = repo.snapshot(0.5, 2);
  const auto sl = lossy_server.backup_image("vm-lossy", as_bytes(snap_a),
                                            repo, lossy_agent);
  const auto sc = clean_server.backup_image("vm-clean", as_bytes(snap_b),
                                            repo, clean_agent);
  EXPECT_TRUE(sl.verified);
  EXPECT_TRUE(sc.verified);
  EXPECT_GT(sl.transport.retransmits, 0u);
  EXPECT_TRUE(sl.transport.degraded);  // 25% loss: far past the 5% bar
  EXPECT_EQ(sc.transport.retransmits, 0u);
  EXPECT_FALSE(sc.transport.degraded);

  const obs::Registry& reg = svc->registry();
  EXPECT_EQ(reg.counter_sum("backup.snapshots_total"), 2u);
  EXPECT_EQ(reg.counter_sum("backup.degraded_runs_total"), 1u);
  EXPECT_EQ(reg.counter_sum("backup.retransmits_total"),
            sl.transport.retransmits);
  svc->shutdown();
}

}  // namespace
}  // namespace shredder::backup
