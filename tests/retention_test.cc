// Snapshot-retention suite (docs/retention.md): manifest state machine and
// typed errors, log rebuild with torn tails, the delete → GC epoch/pin
// protocol over the deferred-reclaim store, crash-consistency (kill between
// manifest write, release walk, GC sweep and compaction — recovery must
// never free a referenced chunk), the entry-log compaction differential, and
// the churn workload end-to-end through BackupServer on every chunking
// backend, the shared ChunkingService included.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "backup/agent.h"
#include "backup/backup_server.h"
#include "backup/image.h"
#include "common/rng.h"
#include "dedup/index.h"
#include "dedup/sparse_index.h"
#include "dedup/store.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "printed.h"
#include "retention/manifest.h"
#include "retention/retention.h"
#include "service/service.h"

namespace shredder::retention {
namespace {

using dedup::ChunkDigest;
using dedup::ChunkStore;

ChunkDigest synth_digest(std::uint64_t seed) {
  ChunkDigest d{};
  SplitMix64 rng(seed ^ 0x5EED5EED5EED5EEDull);
  for (auto& b : d.bytes) b = static_cast<std::uint8_t>(rng.next());
  return d;
}

// Size of every synthetic chunk. Synthetic digests hash no payload, so the
// store holds them by reference only, as the backup server's store does.
constexpr std::uint64_t kChunkBytes = 64;

RetentionViolation violation_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const RetentionError& e) {
    return e.violation();
  }
  ADD_FAILURE() << "expected a RetentionError";
  return RetentionViolation::kUnknownImage;
}

// --- ManifestStore: state machine + typed errors ---------------------------

TEST(ManifestStore, RecordAndIntrospect) {
  ManifestStore m;
  const std::vector<ChunkDigest> digests = {synth_digest(1), synth_digest(2),
                                            synth_digest(1)};
  m.record_image("t", "img", digests);
  EXPECT_EQ(m.state("t", "img"), ImageState::kSealed);
  EXPECT_EQ(m.digests("t", "img"), digests);  // order and multiplicity kept
  EXPECT_EQ(m.images("t"), std::vector<std::string>{"img"});
  EXPECT_EQ(m.live_images(), 1u);
  EXPECT_EQ(m.deleted_images(), 0u);
  // begin + 3 chunks + seal.
  EXPECT_EQ(m.record_count(), 5u);
  EXPECT_FALSE(m.state("t", "other").has_value());
}

TEST(ManifestStore, TypedErrorsCoverEveryTransition) {
  ManifestStore m;
  m.begin_image("t", "a");
  EXPECT_EQ(violation_of([&] { m.begin_image("t", "a"); }),
            RetentionViolation::kImageExists);
  EXPECT_EQ(violation_of([&] { m.append_chunk("t", "nope", synth_digest(0)); }),
            RetentionViolation::kUnknownImage);
  EXPECT_EQ(violation_of([&] { m.seal_image("t", "nope"); }),
            RetentionViolation::kUnknownImage);
  // Deleting an unsealed image is a violation (its backup is still running).
  EXPECT_EQ(violation_of([&] { m.begin_delete("t", "a"); }),
            RetentionViolation::kImageInProgress);
  m.append_chunk("t", "a", synth_digest(0));
  m.seal_image("t", "a");
  EXPECT_EQ(violation_of([&] { m.append_chunk("t", "a", synth_digest(1)); }),
            RetentionViolation::kImageSealed);
  EXPECT_EQ(violation_of([&] { m.seal_image("t", "a"); }),
            RetentionViolation::kImageSealed);
  // Delete: begin yields the walk list; a second begin (or one after commit)
  // is a double delete.
  const auto walk = m.begin_delete("t", "a");
  EXPECT_EQ(walk, std::vector<ChunkDigest>{synth_digest(0)});
  EXPECT_EQ(violation_of([&] { m.begin_delete("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  m.commit_delete("t", "a");
  EXPECT_EQ(m.state("t", "a"), ImageState::kDeleted);
  EXPECT_EQ(violation_of([&] { m.begin_delete("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  EXPECT_EQ(violation_of([&] { (void)m.digests("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  // A fully deleted id is reusable.
  m.begin_image("t", "a");
  EXPECT_EQ(m.state("t", "a"), ImageState::kInProgress);
}

TEST(ManifestStore, RebuildFromLogRoundTrips) {
  ManifestStore m;
  m.record_image("t", "a", {synth_digest(1), synth_digest(2)});
  m.record_image("u", "b", {synth_digest(3)});
  auto walk = m.begin_delete("t", "a");
  m.commit_delete("t", "a");
  m.begin_image("t", "c");  // unsealed at "crash" time
  m.append_chunk("t", "c", synth_digest(4));

  ManifestStore rebuilt;
  const auto deleting = rebuilt.rebuild_from_log(m.log_records());
  EXPECT_EQ(deleting, 0u);
  EXPECT_EQ(rebuilt.state("t", "a"), ImageState::kDeleted);
  EXPECT_EQ(rebuilt.state("u", "b"), ImageState::kSealed);
  EXPECT_EQ(rebuilt.digests("u", "b"), std::vector<ChunkDigest>{synth_digest(3)});
  // The torn-tail image recovers as in-progress with its chunks intact —
  // its store references stay accounted.
  EXPECT_EQ(rebuilt.state("t", "c"), ImageState::kInProgress);
  EXPECT_EQ(rebuilt.digests("t", "c"), std::vector<ChunkDigest>{synth_digest(4)});
  EXPECT_EQ(rebuilt.record_count(), m.record_count());
}

TEST(ManifestStore, RebuildToleratesTornAndImpossibleRecords) {
  ManifestStore m;
  m.record_image("t", "a", {synth_digest(1)});
  auto records = m.log_records();
  // A record for an image whose kBegin the crash ate must be skipped, not
  // fatal.
  ManifestRecord orphan;
  orphan.op = ManifestOp::kChunk;
  orphan.tenant = "t";
  orphan.image = "ghost";
  orphan.digest = synth_digest(9);
  records.push_back(orphan);
  ManifestRecord orphan_seal;
  orphan_seal.op = ManifestOp::kSeal;
  orphan_seal.tenant = "t";
  orphan_seal.image = "ghost2";
  records.push_back(orphan_seal);

  ManifestStore rebuilt;
  rebuilt.rebuild_from_log(records);
  EXPECT_EQ(rebuilt.state("t", "a"), ImageState::kSealed);
  EXPECT_FALSE(rebuilt.state("t", "ghost").has_value());
  EXPECT_FALSE(rebuilt.state("t", "ghost2").has_value());
}

TEST(ManifestStore, CompactionPurgesDeletedImages) {
  ManifestStore m;
  m.record_image("t", "keep", {synth_digest(1), synth_digest(2)});
  m.record_image("t", "drop", {synth_digest(3), synth_digest(4),
                               synth_digest(5)});
  m.begin_delete("t", "drop");
  m.commit_delete("t", "drop");
  const auto before = m.record_count();

  const auto cs = m.compact();
  EXPECT_EQ(cs.records_before, before);
  EXPECT_EQ(cs.images_purged, 1u);
  EXPECT_EQ(cs.records_after, 4u);  // keep: begin + 2 chunks + seal
  EXPECT_EQ(cs.dropped_records, before - 4u);
  EXPECT_EQ(m.record_count(), 4u);
  // The purged id reads unknown and is reusable; the survivor is untouched.
  EXPECT_FALSE(m.state("t", "drop").has_value());
  EXPECT_EQ(m.digests("t", "keep"),
            (std::vector<ChunkDigest>{synth_digest(1), synth_digest(2)}));
  // The compacted log round-trips.
  ManifestStore rebuilt;
  rebuilt.rebuild_from_log(m.log_records());
  EXPECT_EQ(rebuilt.digests("t", "keep"), m.digests("t", "keep"));
}

// Without compact() the log still stays bounded: begin_image drops deleted
// images' kChunk records once they are half of the log's kChunk records and
// keeps their control records. A store recovered from its own log every
// round (rebuild_from_log recounts the dead records) cleans identically and
// reports every id's state — deleted and reused ids included.
TEST(ManifestStore, LogDropsDeletedChunkRecordsOnAppend) {
  // With four images kept the log purges every third round, so a recovered
  // store that lost its dead-record count would fall behind.
  constexpr int kRounds = 210;
  constexpr std::size_t kKeep = 4;
  constexpr std::uint64_t kChunks = 16;
  constexpr int kIds = 7;  // ids come back once their delete committed
  ManifestStore m;
  auto recovered = std::make_unique<ManifestStore>();
  std::deque<std::string> live;
  std::uint64_t deletes = 0;
  std::uint64_t seed = 0;
  for (int r = 0; r < kRounds; ++r) {
    if (live.size() == kKeep) {
      for (ManifestStore* s : {&m, recovered.get()}) {
        s->begin_delete("t", live.front());
        s->commit_delete("t", live.front());
      }
      live.pop_front();
      ++deletes;
    }
    std::vector<ChunkDigest> ds;
    for (std::uint64_t k = 0; k < kChunks; ++k) ds.push_back(synth_digest(seed++));
    live.push_back("img" + std::to_string(r % kIds));
    m.record_image("t", live.back(), ds);
    recovered->record_image("t", live.back(), ds);

    // Live kChunk records twice over, four control records per deleted
    // incarnation, begin + seal per live image.
    const std::uint64_t live_chunk_records = live.size() * kChunks;
    ASSERT_LE(m.record_count(),
              2 * live_chunk_records + 4 * deletes + 2 * live.size())
        << "round " << r;

    auto next = std::make_unique<ManifestStore>();
    EXPECT_EQ(next->rebuild_from_log(recovered->log_records()), 0u);
    recovered = std::move(next);
    ASSERT_EQ(recovered->record_count(), m.record_count()) << "round " << r;
    for (int i = 0; i < kIds; ++i) {
      const std::string id = "img" + std::to_string(i);
      ASSERT_EQ(recovered->state("t", id), m.state("t", id))
          << id << " round " << r;
      if (m.state("t", id) == ImageState::kSealed) {
        EXPECT_EQ(recovered->digests("t", id), m.digests("t", id)) << id;
      }
    }
  }
  EXPECT_EQ(m.deleted_images(), static_cast<std::uint64_t>(kIds) - kKeep);

  // compact() still purges deleted ids outright. The live ids keep their
  // current incarnation whole and only the control records of their
  // kRounds / kIds - 1 earlier, deleted ones.
  const auto cs = m.compact();
  EXPECT_EQ(cs.images_purged, static_cast<std::uint64_t>(kIds) - kKeep);
  EXPECT_EQ(m.record_count(),
            kKeep * (kChunks + 2) + 4 * kKeep * (kRounds / kIds - 1));
  for (const std::string& id : live) {
    EXPECT_EQ(m.state("t", id), ImageState::kSealed);
  }
}

// --- RetentionManager: delete walk, epoch/pin GC ---------------------------

struct Rig {
  std::shared_ptr<ChunkStore> store;
  std::unique_ptr<RetentionManager> mgr;
  obs::Registry registry;

  explicit Rig(bool deferred = true) {
    store = std::make_shared<ChunkStore>(deferred);
    RetentionConfig cfg;
    cfg.registry = &registry;
    mgr = std::make_unique<RetentionManager>(store, cfg);
  }

  // Backs a synthetic image "up": store refs (reference-only put per unique
  // occurrence, add_ref per duplicate — the dedup path's invariant) + its
  // manifest.
  void record(const std::string& image, const std::vector<ChunkDigest>& ds) {
    for (const auto& d : ds) {
      if (!store->add_ref(d)) store->put(d, kChunkBytes);
    }
    mgr->record_image("t", image, ds);
  }
};

TEST(RetentionManager, DeleteWalkReleasesOneRefPerOccurrence) {
  Rig rig;
  const auto d1 = synth_digest(1);
  const auto d2 = synth_digest(2);
  rig.record("a", {d1, d2, d1});  // d1 twice, d2 once
  rig.record("b", {d2});
  EXPECT_EQ(rig.store->ref_count(d1), 2u);
  EXPECT_EQ(rig.store->ref_count(d2), 2u);

  const auto stats = rig.mgr->delete_image("t", "a");
  EXPECT_EQ(stats.chunks_released, 3u);
  EXPECT_EQ(stats.chunks_zeroed, 1u);  // d1 hit zero; d2 lives via "b"
  EXPECT_GT(stats.bytes_zeroed, 0u);
  EXPECT_GT(stats.virtual_seconds, 0.0);
  // Deferred store: the zeroed chunk is parked, not freed, until gc().
  EXPECT_EQ(rig.store->ref_count(d1), 0u);
  EXPECT_TRUE(rig.store->contains(d1));
  EXPECT_EQ(rig.store->ref_count(d2), 1u);
  EXPECT_EQ(rig.mgr->graveyard_size(), 1u);
  EXPECT_EQ(rig.mgr->manifests().state("t", "a"), ImageState::kDeleted);
}

TEST(RetentionManager, DeleteErrorsAreTypedAndLeaveStateUntouched) {
  Rig rig;
  rig.record("a", {synth_digest(1)});
  EXPECT_EQ(violation_of([&] { rig.mgr->delete_image("t", "nope"); }),
            RetentionViolation::kUnknownImage);
  rig.mgr->manifests().begin_image("t", "open");
  EXPECT_EQ(violation_of([&] { rig.mgr->delete_image("t", "open"); }),
            RetentionViolation::kImageInProgress);
  rig.mgr->delete_image("t", "a");
  EXPECT_EQ(violation_of([&] { rig.mgr->delete_image("t", "a"); }),
            RetentionViolation::kAlreadyDeleted);
  // The failed deletes released nothing extra.
  EXPECT_EQ(rig.store->ref_count(synth_digest(1)), 0u);
  EXPECT_EQ(rig.mgr->graveyard_size(), 1u);
}

TEST(RetentionManager, GcFreesZeroedChunksOnceUnpinned) {
  Rig rig;
  rig.record("a", {synth_digest(1), synth_digest(2)});

  // A pin taken before the delete keeps its chunks sweep-proof: the pinned
  // walk may still resurrect them via add_ref.
  auto pin = rig.mgr->pin();
  rig.mgr->delete_image("t", "a");
  auto gc1 = rig.mgr->gc();
  EXPECT_EQ(gc1.chunks_freed, 0u);
  EXPECT_EQ(gc1.kept_pinned, 2u);
  EXPECT_TRUE(rig.store->contains(synth_digest(1)));

  pin.release();
  EXPECT_EQ(rig.mgr->active_pins(), 0u);
  auto gc2 = rig.mgr->gc();
  EXPECT_EQ(gc2.chunks_freed, 2u);
  EXPECT_GT(gc2.bytes_freed, 0u);
  EXPECT_GT(gc2.virtual_seconds, 0.0);
  EXPECT_FALSE(rig.store->contains(synth_digest(1)));
  EXPECT_FALSE(rig.store->contains(synth_digest(2)));
  EXPECT_EQ(rig.mgr->graveyard_size(), 0u);
  // Metrics moved.
  EXPECT_EQ(rig.registry.counter_sum("retention.gc_runs_total"), 2u);
  EXPECT_EQ(rig.registry.counter_sum("retention.chunks_freed_total"), 2u);
}

TEST(RetentionManager, SweepStaysConservativeWhilePinsOverlapTheZeroEpoch) {
  Rig rig;
  rig.record("a", {synth_digest(1)});
  rig.mgr->delete_image("t", "a");
  // Taken after the zeroing but in the same epoch: this pin could still have
  // observed (and may yet resurrect) the parked chunk, so the sweep defers
  // until it lifts — conservative by an epoch, never by correctness.
  auto pin = rig.mgr->pin();
  const auto gc = rig.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 0u);
  EXPECT_EQ(gc.kept_pinned, 1u);
  pin.release();
  EXPECT_EQ(rig.mgr->gc().chunks_freed, 1u);
}

TEST(RetentionManager, ResurrectedChunksEscapeTheGraveyard) {
  Rig rig;
  const auto d = synth_digest(1);
  rig.record("a", {d});
  rig.mgr->delete_image("t", "a");
  // A new backup dedups against the parked chunk before the sweep runs:
  // add_ref resurrects it.
  rig.record("b", {d});
  EXPECT_EQ(rig.store->ref_count(d), 1u);
  const auto gc = rig.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 0u);
  EXPECT_EQ(gc.resurrected, 1u);
  EXPECT_TRUE(rig.store->contains(d));
  EXPECT_EQ(rig.mgr->graveyard_size(), 0u);
}

TEST(RetentionManager, StoreGaugesTrackOccupancy) {
  Rig rig;
  rig.record("a", {synth_digest(1), synth_digest(2)});
  EXPECT_EQ(rig.registry.gauge("store.chunks").value(), 2.0);
  EXPECT_EQ(rig.registry.gauge("store.refs").value(), 2.0);
  rig.mgr->delete_image("t", "a");
  rig.mgr->gc();
  EXPECT_EQ(rig.registry.gauge("store.chunks").value(), 0.0);
  EXPECT_EQ(rig.registry.gauge("store.bytes").value(), 0.0);
}

// --- Crash consistency ------------------------------------------------------
// Each scenario snapshots the manifest log at the kill point, builds a fresh
// manager over the surviving store state, and recovers. The invariant under
// every kill: after recover(), a digest referenced by any live manifest is
// in the store with refs > 0, and gc() frees only unreferenced chunks.

void expect_live_manifests_intact(RetentionManager& mgr) {
  for (const auto& [key, digests] : mgr.manifests().live_manifests()) {
    for (const auto& d : digests) {
      ASSERT_TRUE(mgr.store()->contains(d)) << "manifest " << key;
      ASSERT_GT(mgr.store()->ref_count(d).value_or(0), 0u);
    }
  }
}

TEST(RetentionCrash, KillBetweenRefsAndManifestWrite) {
  // The dedup walk took its references but the crash ate the manifest seal.
  Rig rig;
  rig.record("done", {synth_digest(1)});
  rig.mgr->manifests().begin_image("t", "torn");
  rig.mgr->manifests().append_chunk("t", "torn", synth_digest(2));
  rig.store->put(synth_digest(2), kChunkBytes);
  const auto log = rig.mgr->manifests().log_records();

  Rig fresh;  // same store, new manager (the RAM state died)
  fresh.store = rig.store;
  fresh.mgr = std::make_unique<RetentionManager>(fresh.store);
  const auto rs = fresh.mgr->recover(log);
  EXPECT_EQ(rs.live_images, 2u);  // torn image recovers as in-progress
  EXPECT_EQ(rs.deletes_rolled_forward, 0u);
  expect_live_manifests_intact(*fresh.mgr);
  // gc() after recovery frees nothing: every chunk is still referenced.
  EXPECT_EQ(fresh.mgr->gc().chunks_freed, 0u);
  EXPECT_TRUE(fresh.store->contains(synth_digest(2)));
}

TEST(RetentionCrash, KillMidReleaseWalkRollsTheDeleteForward) {
  Rig rig;
  const auto shared = synth_digest(1);
  const auto doomed = synth_digest(2);
  rig.record("keep", {shared});
  rig.record("drop", {shared, doomed});
  // Crash mid-delete: intent logged, walk half-done (one of two releases
  // landed), commit never written.
  auto walk = rig.mgr->manifests().begin_delete("t", "drop");
  ASSERT_EQ(walk.size(), 2u);
  rig.store->release_ref(walk[0]);
  const auto log = rig.mgr->manifests().log_records();

  Rig fresh;
  fresh.store = rig.store;
  fresh.mgr = std::make_unique<RetentionManager>(fresh.store);
  const auto rs = fresh.mgr->recover(log);
  EXPECT_EQ(rs.deletes_rolled_forward, 1u);
  EXPECT_EQ(rs.live_images, 1u);
  EXPECT_EQ(fresh.mgr->manifests().state("t", "drop"), ImageState::kDeleted);
  // Refcounts recomputed from the surviving manifests — the partial walk
  // neither under- nor over-releases.
  EXPECT_EQ(fresh.store->ref_count(shared), 1u);
  EXPECT_EQ(fresh.store->ref_count(doomed), 0u);
  expect_live_manifests_intact(*fresh.mgr);
  const auto gc = fresh.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 1u);  // exactly the doomed chunk
  EXPECT_TRUE(fresh.store->contains(shared));
  EXPECT_FALSE(fresh.store->contains(doomed));
}

TEST(RetentionCrash, KillMidGcSweepRecovers) {
  Rig rig;
  rig.record("keep", {synth_digest(1)});
  rig.record("drop", {synth_digest(2), synth_digest(3)});
  rig.mgr->delete_image("t", "drop");
  // Crash mid-sweep: one graveyard chunk was freed, the other survived.
  rig.store->sweep_zero_refs(
      [](const dedup::ChunkDigest& d) { return d == synth_digest(3); });
  const auto log = rig.mgr->manifests().log_records();

  Rig fresh;
  fresh.store = rig.store;
  fresh.mgr = std::make_unique<RetentionManager>(fresh.store);
  const auto rs = fresh.mgr->recover(log);
  EXPECT_EQ(rs.chunks_zeroed, 1u);  // the unswept zombie re-enters the yard
  expect_live_manifests_intact(*fresh.mgr);
  const auto gc = fresh.mgr->gc();
  EXPECT_EQ(gc.chunks_freed, 1u);
  EXPECT_TRUE(fresh.store->contains(synth_digest(1)));
  EXPECT_FALSE(fresh.store->contains(synth_digest(3)));
}

TEST(RetentionCrash, KillDuringCompactionFallsBackToTheOldLog) {
  // Compaction swaps the log atomically; a crash before the swap leaves the
  // pre-compaction log, which must rebuild to the same live state.
  Rig rig;
  rig.record("keep", {synth_digest(1), synth_digest(2)});
  rig.record("drop", {synth_digest(3)});
  rig.mgr->delete_image("t", "drop");
  const auto old_log = rig.mgr->manifests().log_records();
  rig.mgr->manifests().compact();

  ManifestStore from_old;
  from_old.rebuild_from_log(old_log);
  ManifestStore from_new;
  from_new.rebuild_from_log(rig.mgr->manifests().log_records());
  // Both recoveries agree on every live manifest.
  EXPECT_EQ(from_old.live_manifests(), from_new.live_manifests());
  EXPECT_EQ(from_old.digests("t", "keep"), from_new.digests("t", "keep"));
}

// --- Entry-log compaction differential -------------------------------------

TEST(RetentionCompaction, IndexDecisionsBitIdenticalAgainstOracle) {
  dedup::IndexConfig cfg;
  cfg.kind = dedup::IndexKind::kSparse;
  cfg.sparse.container_entries = 64;  // several containers at test scale
  dedup::SparseChunkIndex index(cfg);

  constexpr std::uint64_t kKeys = 4000;
  std::map<std::uint64_t, dedup::ChunkLocation> oracle;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const dedup::ChunkLocation loc{k * 7, 1 + static_cast<std::uint32_t>(k % 9)};
    index.lookup_or_insert(synth_digest(k), loc);
    oracle.emplace(k, loc);
  }
  // Kill every third key, as a deleted-and-swept snapshot would.
  std::unordered_map<ChunkDigest, bool, dedup::ChunkDigestHash> live;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    live[synth_digest(k)] = (k % 3) != 0;
    if ((k % 3) == 0) oracle.erase(k);
  }

  const auto before = index.stats();
  const auto cs = index.compact(
      [&](const ChunkDigest& d, const dedup::ChunkLocation&) {
        return live.at(d);
      });
  EXPECT_EQ(cs.entries_before, kKeys);
  EXPECT_EQ(cs.dropped, kKeys - oracle.size());
  EXPECT_EQ(cs.entries_after, oracle.size());
  EXPECT_EQ(index.size(), oracle.size());
  EXPECT_GT(cs.containers_rewritten, 0u);
  EXPECT_GT(cs.virtual_seconds, 0.0);
  const auto after = index.stats();
  EXPECT_EQ(after.compactions, before.compactions + 1);
  EXPECT_EQ(after.log_entries_dropped - before.log_entries_dropped,
            cs.dropped);

  // Differential: every live key answers exactly its oracle location, every
  // dead key misses.
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const auto got = index.lookup(synth_digest(k));
    const auto it = oracle.find(k);
    ASSERT_EQ(got.has_value(), it != oracle.end()) << "key " << k;
    if (got.has_value()) {
      EXPECT_EQ(got->store_offset, it->second.store_offset);
      EXPECT_EQ(got->size, it->second.size);
    }
  }
  // And the compacted log itself survives a restart.
  index.rebuild_from_log();
  for (const auto& [k, loc] : oracle) {
    const auto got = index.lookup(synth_digest(k));
    ASSERT_TRUE(got.has_value()) << "key " << k;
    EXPECT_EQ(got->store_offset, loc.store_offset);
  }
}

TEST(RetentionCompaction, ManagerDrivesIndexAndManifestTogether) {
  Rig rig;
  dedup::IndexConfig cfg;
  cfg.kind = dedup::IndexKind::kSparse;
  cfg.sparse.container_entries = 32;
  dedup::SparseChunkIndex index(cfg);

  std::vector<ChunkDigest> keep_digests, drop_digests;
  for (std::uint64_t k = 0; k < 200; ++k) {
    (k % 2 ? keep_digests : drop_digests).push_back(synth_digest(k));
    index.lookup_or_insert(synth_digest(k), {k, 1});
  }
  rig.record("keep", keep_digests);
  rig.record("drop", drop_digests);
  rig.mgr->delete_image("t", "drop");
  rig.mgr->gc();  // dead chunks leave the store; their index entries go stale

  const auto cs = rig.mgr->compact_index(index);
  EXPECT_EQ(cs.index.dropped, drop_digests.size());
  EXPECT_EQ(cs.manifest.images_purged, 1u);
  EXPECT_GT(cs.virtual_seconds, 0.0);
  for (const auto& d : keep_digests) {
    EXPECT_TRUE(index.lookup(d).has_value());
  }
  for (const auto& d : drop_digests) {
    EXPECT_FALSE(index.lookup(d).has_value());
  }
  EXPECT_EQ(rig.registry.counter_sum("retention.compactions_total"), 1u);
}

// --- End-to-end churn through BackupServer ----------------------------------

backup::BackupServerConfig churn_server_config(
    backup::ChunkerBackend backend = backup::ChunkerBackend::kPthreadsCpu) {
  backup::BackupServerConfig c;
  c.backend = backend;
  c.chunker.window = 32;
  c.chunker.mask_bits = 11;
  c.chunker.marker = 0x42;
  c.chunker.min_size = 512;
  c.chunker.max_size = 8 * 1024;
  c.shredder.buffer_bytes = 512 * 1024;
  c.shredder.sim_threads = 2;
  c.cpu_threads = 4;
  c.index.kind = dedup::IndexKind::kSparse;
  c.index.sparse.container_entries = 128;
  if (backend == backup::ChunkerBackend::kSharedService) {
    service::ServiceConfig svc;
    svc.chunker = c.chunker;
    svc.buffer_bytes = 512 * 1024;
    svc.sim_threads = 2;
    c.service = std::make_shared<service::ChunkingService>(svc);
  }
  return c;
}

// Every chunking backend's snapshots record manifests that delete, GC and
// compaction walk; the survivors recreate bit-identically.
class RetentionEndToEnd
    : public ::testing::TestWithParam<backup::ChunkerBackend> {};

TEST_P(RetentionEndToEnd, ChurnDeleteGcCompactThroughBackupServer) {
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 2 * 1024 * 1024;
  repo_cfg.segment_bytes = 128 * 1024;
  repo_cfg.seed = 7;
  backup::ImageRepository repo(repo_cfg);
  backup::BackupServer server(churn_server_config(GetParam()));
  backup::BackupAgent agent;

  // Back up 6 mostly-distinct snapshots.
  constexpr int kSnapshots = 6;
  std::vector<ByteVec> images;
  for (int i = 0; i < kSnapshots; ++i) {
    images.push_back(repo.snapshot(0.8, static_cast<std::uint64_t>(i + 1)));
    const auto stats = server.backup_image("snap" + std::to_string(i),
                                           as_bytes(images.back()), repo, agent);
    ASSERT_TRUE(stats.verified);
  }
  ASSERT_EQ(server.retention().manifests().live_images(),
            static_cast<std::uint64_t>(kSnapshots));
  const auto occ_full = server.retention().store()->occupancy();
  const auto log_full = server.index().stats().inserts;

  // Delete the odd snapshots on both sides, then sweep and compact.
  for (int i = 1; i < kSnapshots; i += 2) {
    const std::string id = "snap" + std::to_string(i);
    const auto ds = server.delete_image(id);
    EXPECT_GT(ds.chunks_released, 0u);
    EXPECT_GT(agent.delete_image(id), 0u);
  }
  const auto gc = server.gc();
  EXPECT_GT(gc.chunks_freed, 0u);
  const auto cs = server.compact_index();
  EXPECT_EQ(cs.index.dropped, gc.chunks_freed);

  // Survivors recreate bit-identically on the backup site.
  for (int i = 0; i < kSnapshots; i += 2) {
    const auto recreated = agent.recreate("snap" + std::to_string(i));
    EXPECT_EQ(recreated, images[static_cast<std::size_t>(i)]) << "snap" << i;
  }
  // The mostly-distinct churn reclaims a proportional share of the store
  // and of the entry log (the >= 40% bars and their pins are in
  // ChurnReclaimsDeadBytesAndShrinksStoreAndLog below; here every backend
  // is held to the direction and rough proportion).
  const auto occ_after = server.retention().store()->occupancy();
  EXPECT_LT(occ_after.bytes, occ_full.bytes * 7 / 10);
  EXPECT_LT(cs.index.entries_after, log_full * 7 / 10);
  EXPECT_EQ(occ_after.zero_ref_chunks, 0u);

  // Deleted ids are unknown on both sides...
  EXPECT_THROW(server.delete_image("snap1"), RetentionError);
  EXPECT_THROW(agent.recreate("snap1"), backup::ProtocolError);
  // ...and every surviving manifest digest still resolves in the store.
  for (int i = 0; i < kSnapshots; i += 2) {
    for (const auto& d :
         server.retention().manifests().digests("", "snap" + std::to_string(i))) {
      EXPECT_TRUE(server.retention().store()->contains(d));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, RetentionEndToEnd,
    ::testing::Values(backup::ChunkerBackend::kShredderGpu,
                      backup::ChunkerBackend::kPthreadsCpu,
                      backup::ChunkerBackend::kSharedService));

TEST(RetentionEndToEnd, ChurnReclaimsDeadBytesAndShrinksStoreAndLog) {
  // Backs up 6 high-churn 4 MiB snapshots, deletes every second one on the
  // server and the backup site, then runs the GC sweep and the entry-log
  // compaction (docs/retention.md). Each snapshot replaces ~95% of its
  // segments, so the deletes strand close to half the store; the shared
  // master segments must survive every delete. Bars: survivors recreate
  // bit-identically, surviving probe decisions are bit-identical across
  // compaction, dead unshared digests miss, GC frees >= 80% of the bytes
  // the deletes zeroed, and store bytes and the entry log both shrink
  // >= 40%. Every output is pinned.
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4ull << 20;
  repo_cfg.segment_bytes = 128ull << 10;
  repo_cfg.seed = 9091;
  backup::ImageRepository repo(repo_cfg);
  constexpr int kSnapshots = 6;

  backup::BackupServerConfig cfg;
  cfg.backend = backup::ChunkerBackend::kPthreadsCpu;
  cfg.chunker.window = 48;
  cfg.chunker.mask_bits = 11;  // ~2 KB chunks, many entry-log containers
  cfg.chunker.marker = 0x78;
  cfg.chunker.min_size = 1024;
  cfg.chunker.max_size = 8 * 1024;
  cfg.index.kind = dedup::IndexKind::kSparse;
  backup::BackupServer server(cfg);
  const auto& store = server.retention().store();
  backup::BackupAgent agent;

  std::vector<std::string> ids;
  std::vector<ByteVec> images;
  for (int i = 1; i <= kSnapshots; ++i) {
    ids.push_back("snap" + std::to_string(i));
    images.push_back(repo.snapshot(0.95, static_cast<std::uint64_t>(i)));
    ASSERT_TRUE(
        server.backup_image(ids.back(), as_bytes(images.back()), repo, agent)
            .verified)
        << ids.back();
  }

  // Read the manifests before any delete, then split the digests into
  // survivors and unshared dead ones (shared chunks stay probe-able).
  using DigestSet = std::unordered_set<ChunkDigest, dedup::ChunkDigestHash>;
  DigestSet surviving, dead;
  for (int i = 0; i < kSnapshots; i += 2) {
    const auto m = server.retention().manifests().digests("", ids[i]);
    surviving.insert(m.begin(), m.end());
  }
  for (int i = 1; i < kSnapshots; i += 2) {
    for (const auto& d : server.retention().manifests().digests("", ids[i])) {
      if (!surviving.contains(d)) dead.insert(d);
    }
  }

  const auto occ_full = store->occupancy();
  std::uint64_t bytes_zeroed = 0, chunks_released = 0;
  double delete_seconds = 0;
  for (int i = 1; i < kSnapshots; i += 2) {
    const auto ds = server.delete_image(ids[i]);
    bytes_zeroed += ds.bytes_zeroed;
    chunks_released += ds.chunks_released;
    delete_seconds += ds.virtual_seconds;
    agent.delete_image(ids[i]);
  }
  const auto gc = server.gc();
  const auto occ_after = store->occupancy();

  // Compaction must be invisible to lookups: placement depends only on
  // (bucket, signature), so every surviving probe keeps its hit/miss,
  // offset and size.
  const auto probe_all = [&] {
    std::vector<std::optional<dedup::ChunkLocation>> out;
    for (const auto& d : surviving) out.push_back(server.index().lookup(d));
    return out;
  };
  const auto live_before = probe_all();
  const auto cs = server.compact_index();
  const auto live_after = probe_all();
  ASSERT_EQ(live_after.size(), live_before.size());
  for (std::size_t i = 0; i < live_before.size(); ++i) {
    ASSERT_EQ(live_after[i].has_value(), live_before[i].has_value()) << i;
    if (live_before[i]) {
      EXPECT_EQ(live_after[i]->store_offset, live_before[i]->store_offset);
      EXPECT_EQ(live_after[i]->size, live_before[i]->size);
    }
  }
  for (const auto& d : dead) EXPECT_FALSE(server.index().lookup(d));
  for (int i = 0; i < kSnapshots; i += 2) {
    EXPECT_EQ(agent.recreate(ids[i]), images[i]) << ids[i];
  }

  const double reclaimed = static_cast<double>(gc.bytes_freed) / bytes_zeroed;
  const double store_shrink =
      1.0 - static_cast<double>(occ_after.bytes) / occ_full.bytes;
  const double log_shrink = 1.0 - static_cast<double>(cs.index.entries_after) /
                                      cs.index.entries_before;
  EXPECT_GE(reclaimed, 0.8);
  EXPECT_GE(store_shrink, 0.4);
  EXPECT_GE(log_shrink, 0.4);

  EXPECT_EQ(chunks_released, 4200u);
  EXPECT_EQ(bytes_zeroed, 12582912u);
  EXPECT_EQ(gc.epoch, 2u);
  EXPECT_EQ(gc.chunks_freed, 4200u);
  EXPECT_EQ(gc.bytes_freed, 12582912u);
  EXPECT_EQ(gc.kept_pinned, 0u);
  EXPECT_EQ(gc.resurrected, 0u);
  EXPECT_EQ(occ_full.bytes, 25165824u);
  EXPECT_EQ(occ_after.bytes, 12582912u);
  EXPECT_EQ(printed(store_shrink, 3), "0.500");
  EXPECT_EQ(printed(reclaimed, 3), "1.000");
  EXPECT_EQ(cs.index.entries_before, 8428u);
  EXPECT_EQ(cs.index.entries_after, 4228u);
  EXPECT_EQ(cs.index.dropped, 4200u);
  EXPECT_EQ(cs.index.containers_scanned, 17u);
  EXPECT_EQ(cs.index.containers_rewritten, 9u);
  EXPECT_EQ(cs.manifest.dropped_records, 4212u);
  EXPECT_EQ(printed(log_shrink, 3), "0.498");
  EXPECT_EQ(printed(delete_seconds, 6), "0.000842");
  EXPECT_EQ(printed(gc.virtual_seconds, 6), "0.004621");
  EXPECT_EQ(printed(cs.virtual_seconds, 6), "0.001085");
}

// Audit of the two sides: the server's references equal the occurrences in
// its live manifests. Call it after a gc() with no backup in flight:
// nothing is left parked, and the backup site holds exactly the chunks and
// bytes the server's store accounts for.
void expect_server_matches_backup_site(const backup::BackupServer& server,
                                       const backup::BackupAgent& agent) {
  std::uint64_t occurrences = 0;
  for (const auto& [image, digests] :
       server.retention().manifests().live_manifests()) {
    occurrences += digests.size();
  }
  const auto occ = server.retention().store()->occupancy();
  EXPECT_EQ(occ.refs, occurrences);
  EXPECT_EQ(occ.zero_ref_chunks, 0u);
  EXPECT_EQ(agent.unique_chunks(), occ.chunks);
  EXPECT_EQ(agent.unique_bytes(), occ.bytes);
}

TEST_P(RetentionEndToEnd, SelfHealingReshipsAfterOverzealousSweep) {
  // Delete an image on both sides, then back the same content up again to
  // the same agent. With a gc() in between, every index hit is on a swept
  // chunk; without one, every hit is on a chunk the server parked and the
  // agent already freed. Either way the walk must re-ship every payload, and
  // the new backup must verify.
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 1 * 1024 * 1024;
  repo_cfg.segment_bytes = 128 * 1024;
  repo_cfg.seed = 11;
  backup::ImageRepository repo(repo_cfg);
  const auto image = repo.snapshot(0.0, 1);
  for (const bool gc_between : {true, false}) {
    SCOPED_TRACE(gc_between ? "gc() between delete and backup"
                            : "no gc() between delete and backup");
    backup::BackupServer server(churn_server_config(GetParam()));
    backup::BackupAgent agent;
    const auto first = server.backup_image("v1", as_bytes(image), repo, agent);
    ASSERT_TRUE(first.verified);
    server.delete_image("v1");
    agent.delete_image("v1");
    if (gc_between) {
      ASSERT_GT(server.gc().chunks_freed, 0u);
      EXPECT_EQ(server.retention().store()->occupancy().chunks, 0u);
    } else {
      EXPECT_EQ(server.retention().store()->occupancy().zero_ref_chunks,
                first.chunks);
    }

    const auto second = server.backup_image("v2", as_bytes(image), repo, agent);
    EXPECT_TRUE(second.verified);
    // No chunk counted as a duplicate — every one re-shipped as unique.
    EXPECT_EQ(second.duplicate_chunks, 0u);
    EXPECT_EQ(second.unique_bytes, image.size());
    EXPECT_EQ(agent.recreate("v2"), image);
    // The revived chunks are referenced again, so the next sweep frees none.
    const auto gc = server.gc();
    EXPECT_EQ(gc.chunks_freed, 0u);
    EXPECT_EQ(gc.resurrected, gc_between ? 0u : first.chunks);
    expect_server_matches_backup_site(server, agent);
  }
}

// What a refused backup must leave as it was, on both sides.
struct BackupState {
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::pair<std::string, std::vector<ChunkDigest>>> manifests;
};

BackupState state_of(const backup::BackupServer& server,
                     const backup::BackupAgent& agent) {
  const auto occ = server.retention().store()->occupancy();
  const auto index = server.index().stats();
  const auto& manifests = server.retention().manifests();
  return {{{"store.chunks", occ.chunks},
           {"store.bytes", occ.bytes},
           {"store.refs", occ.refs},
           {"store.zero_ref_chunks", occ.zero_ref_chunks},
           {"index.probes", index.probes},
           {"index.inserts", index.inserts},
           {"manifest.records", manifests.record_count()},
           {"agent.chunks", agent.unique_chunks()},
           {"agent.bytes", agent.unique_bytes()}},
          manifests.live_manifests()};
}

void expect_unchanged(const BackupState& before, const BackupState& after) {
  EXPECT_EQ(after.counts, before.counts);
  EXPECT_TRUE(after.manifests == before.manifests);
}

TEST_P(RetentionEndToEnd, RefusesATakenIdBeforeTakingAnything) {
  // An id the server's manifests hold live, or one the agent has sealed, is
  // refused with a typed error before the image is chunked, so the refusal
  // takes no store reference or index insert — through backup_image and
  // backup_images alike, an id repeated within one batch included.
  backup::ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 1 * 1024 * 1024;
  repo_cfg.segment_bytes = 64 * 1024;
  repo_cfg.seed = 13;
  backup::ImageRepository repo(repo_cfg);
  // The engine-backed backends count the bytes their pipeline chunks, which
  // a refused backup must leave unchanged (the CPU backend counts none).
  backup::BackupServerConfig server_cfg = churn_server_config(GetParam());
  obs::Registry own_registry;
  if (!server_cfg.service) server_cfg.registry = &own_registry;
  obs::Counter& chunked_bytes =
      (server_cfg.service ? server_cfg.service->registry() : own_registry)
          .counter("pipeline.bytes_total");
  backup::BackupServer server(server_cfg);
  backup::BackupAgent agent;
  const auto base = repo.snapshot(0.0, 1);
  const auto changed = repo.snapshot(0.10, 2);
  ASSERT_TRUE(
      server.backup_image("a", as_bytes(base), repo, agent).verified);
  if (GetParam() != backup::ChunkerBackend::kPthreadsCpu) {
    ASSERT_EQ(chunked_bytes.value(), base.size());
  }

  const auto refused_as_live = [&](const std::function<void()>& backup) {
    const BackupState before = state_of(server, agent);
    const std::uint64_t chunked_before = chunked_bytes.value();
    try {
      backup();
      ADD_FAILURE() << "expected a RetentionError";
    } catch (const RetentionError& e) {
      EXPECT_EQ(e.violation(), RetentionViolation::kImageExists);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "expected a RetentionError, got: " << e.what();
    }
    expect_unchanged(before, state_of(server, agent));
    EXPECT_EQ(chunked_bytes.value(), chunked_before) << "a refusal chunked";
  };
  refused_as_live(
      [&] { server.backup_image("a", as_bytes(changed), repo, agent); });
  refused_as_live([&] {
    server.backup_images({{"a", as_bytes(changed)}}, repo, agent);
  });

  // A batch holding a taken id, or one id twice, is refused whole before
  // any job chunks: its free jobs back up nothing either.
  refused_as_live([&] {
    server.backup_images({{"b", as_bytes(changed)}, {"a", as_bytes(changed)}},
                         repo, agent);
  });
  refused_as_live([&] {
    server.backup_images({{"b", as_bytes(changed)}, {"b", as_bytes(base)}},
                         repo, agent);
  });
  EXPECT_FALSE(agent.image_sealed("b"));

  ASSERT_TRUE(
      server.backup_image("b", as_bytes(changed), repo, agent).verified);
  ASSERT_TRUE(agent.image_sealed("b"));
  EXPECT_EQ(agent.image_root("b"),
            dedup::root_digest(
                server.retention().manifests().digests("", "b")));
  EXPECT_EQ(agent.recreate("b"), changed);
  expect_server_matches_backup_site(server, agent);

  // Deleted on the server only, "b" is still sealed at the backup site.
  server.delete_image("b");
  const BackupState before = state_of(server, agent);
  try {
    server.backup_image("b", as_bytes(changed), repo, agent);
    ADD_FAILURE() << "expected a ProtocolError";
  } catch (const backup::ProtocolError& e) {
    EXPECT_EQ(e.violation(), backup::ProtocolViolation::kDuplicateImage);
  }
  expect_unchanged(before, state_of(server, agent));
  agent.delete_image("b");

  // Nothing leaked: once "a" is gone from both sides, a changed backup
  // under the freed id verifies, and the two sides still agree.
  server.delete_image("a");
  agent.delete_image("a");
  server.gc();
  expect_server_matches_backup_site(server, agent);
  const auto again =
      server.backup_image("a", as_bytes(changed), repo, agent);
  EXPECT_TRUE(again.verified);
  EXPECT_EQ(agent.recreate("a"), changed);
  server.gc();
  expect_server_matches_backup_site(server, agent);
}

}  // namespace
}  // namespace shredder::retention
