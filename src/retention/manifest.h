// Per-snapshot chunk manifests — the durable authority of the retention
// subsystem (docs/retention.md). Every sealed image owns an ordered digest
// list; deletes walk it releasing store references. Persistence mirrors the
// sparse index's entry log: the manifest log is an append-only sequence of
// small records and the RAM map is derived state a crash loses —
// rebuild_from_log() reconstructs it exactly, tolerating a torn tail
// (an image whose seal record never landed recovers as in-progress, so its
// chunks stay referenced; recovery never frees a referenced chunk).
//
// Image lifecycle:   (begin) kInProgress → (seal) kSealed
//                    → (begin_delete) kDeleting → (commit_delete) kDeleted
// kDeleting is the delete-intent window: the release_ref walk runs between
// the two records, so a crash mid-walk recovers with intent logged and the
// retention manager rolls the delete forward, recomputing store refcounts
// from the surviving live manifests.
//
// The log cleans itself: once the kChunk records of deleted images are at
// least half of the log's kChunk records, the next begin_image drops them.
// A deleted image keeps its four control records, so it still reads (and
// rebuilds) as kDeleted; only compact() forgets it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "dedup/digest.h"

namespace shredder::retention {

// What exactly a retention request violated. Carried by RetentionError so
// servers and tests branch on the cause instead of parsing messages
// (same shape as backup::ProtocolError).
enum class RetentionViolation {
  kUnknownImage,     // tenant/image never recorded (or purged by compaction)
  kImageExists,      // begin_image over a live image id
  kImageInProgress,  // delete/seal-sensitive op on an unsealed image
  kImageSealed,      // append_chunk/seal on an already-sealed image
  kAlreadyDeleted,   // double delete
};

// Typed retention violation. Subclasses std::invalid_argument so generic
// catch sites and EXPECT_THROW assertions keep working.
class RetentionError : public std::invalid_argument {
 public:
  RetentionError(RetentionViolation violation, const std::string& what)
      : std::invalid_argument(what), violation_(violation) {}
  RetentionViolation violation() const noexcept { return violation_; }

 private:
  RetentionViolation violation_;
};

enum class ImageState { kInProgress, kSealed, kDeleting, kDeleted };

// One persisted manifest-log record. kChunk carries a digest; the control
// records carry only the image key.
enum class ManifestOp : std::uint8_t {
  kBegin,
  kChunk,
  kSeal,
  kDeleteBegin,
  kDeleteCommit,
};

struct ManifestRecord {
  ManifestOp op = ManifestOp::kBegin;
  std::string tenant;
  std::string image;
  dedup::ChunkDigest digest{};  // kChunk only
};

class ManifestStore {
 public:
  ManifestStore() = default;

  // --- Recording (the backup path) ---
  // Throws RetentionError{kImageExists} if (tenant, image) is live
  // (in-progress, sealed or mid-delete); a fully deleted id may be reused.
  // Drops the dead kChunk records first when they are at least half of the
  // log's kChunk records.
  void begin_image(const std::string& tenant, const std::string& image);
  // Throws kUnknownImage / kImageSealed.
  void append_chunk(const std::string& tenant, const std::string& image,
                    const dedup::ChunkDigest& digest);
  // Throws kUnknownImage / kImageSealed (sealing twice is a violation: the
  // caller's image bookkeeping is broken).
  void seal_image(const std::string& tenant, const std::string& image);
  // Convenience for callers that buffer the digest list: begin + chunks +
  // seal in one call.
  void record_image(const std::string& tenant, const std::string& image,
                    const std::vector<dedup::ChunkDigest>& digests);

  // --- Deletion (two-phase; the manager walks refs between the phases) ---
  // Logs delete intent and returns the ordered digest walk list. Throws
  // kUnknownImage / kImageInProgress / kAlreadyDeleted (kDeleting counts as
  // already deleted: the intent is logged, the walk is the manager's job).
  std::vector<dedup::ChunkDigest> begin_delete(const std::string& tenant,
                                               const std::string& image);
  // Seals the tombstone; the digest list is dropped from RAM. Throws
  // kUnknownImage if not mid-delete.
  void commit_delete(const std::string& tenant, const std::string& image);

  // --- Introspection ---
  std::optional<ImageState> state(const std::string& tenant,
                                  const std::string& image) const;
  // Ordered digest list of a live image. Throws kUnknownImage/kAlreadyDeleted.
  std::vector<dedup::ChunkDigest> digests(const std::string& tenant,
                                          const std::string& image) const;
  // Live (in-progress/sealed/deleting) image ids of a tenant, sorted.
  std::vector<std::string> images(const std::string& tenant) const;
  // Images stuck mid-delete (intent logged, commit missing) — what a crash
  // between the two phases leaves behind for the manager to roll forward.
  std::vector<std::pair<std::string, std::string>> deleting_images() const;
  // All live manifests' digest occurrences, by (tenant, image) — the
  // recovery input for ChunkStore::rebuild_refs. kDeleting images are
  // excluded: their delete intent is durable and rolls forward.
  std::vector<std::pair<std::string, std::vector<dedup::ChunkDigest>>>
  live_manifests() const;

  std::uint64_t live_images() const;
  std::uint64_t deleted_images() const;
  // Manifest-log length in records (the durable footprint compaction
  // shrinks).
  std::uint64_t record_count() const;

  // --- Persistence (mirrors SparseChunkIndex::log_records/rebuild) ---
  std::vector<ManifestRecord> log_records() const;
  // Replays `records` as the persisted log. Tolerates a torn tail: records
  // referencing images in impossible states (a kChunk after a crash ate the
  // kBegin) are skipped rather than fatal, and an unsealed trailing image
  // recovers as kInProgress. Returns the count of kDeleting images found —
  // crashed mid-walk, awaiting the manager's roll-forward.
  std::uint64_t rebuild_from_log(std::vector<ManifestRecord> records);

  // Rewrites the log dropping deleted images' records (and their
  // tombstones) entirely, plus the kChunk records of earlier, deleted
  // incarnations of reused ids. After compaction a purged image id reads as
  // kUnknownImage and may be reused.
  struct CompactionStats {
    std::uint64_t records_before = 0;
    std::uint64_t records_after = 0;
    std::uint64_t dropped_records = 0;
    std::uint64_t images_purged = 0;
  };
  CompactionStats compact();

 private:
  struct Image {
    std::vector<dedup::ChunkDigest> digests;
    ImageState state = ImageState::kInProgress;
  };
  using Key = std::pair<std::string, std::string>;  // (tenant, image)

  Image* find_locked(const std::string& tenant, const std::string& image)
      REQUIRES(mu_);
  const Image* find_locked(const std::string& tenant,
                           const std::string& image) const REQUIRES(mu_);
  void append_locked(ManifestOp op, const std::string& tenant,
                     const std::string& image,
                     const dedup::ChunkDigest& digest = {}) REQUIRES(mu_);
  std::uint64_t replay_locked(std::vector<ManifestRecord> records)
      REQUIRES(mu_);
  // Erases every kChunk record of a deleted incarnation from log_.
  void drop_dead_chunks_locked() REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<Key, Image> images_ GUARDED_BY(mu_);
  std::vector<ManifestRecord> log_ GUARDED_BY(mu_);
  // kChunk records in log_, and how many of them belong to deleted images.
  std::uint64_t chunk_records_ GUARDED_BY(mu_) = 0;
  std::uint64_t dead_chunk_records_ GUARDED_BY(mu_) = 0;
};

}  // namespace shredder::retention
