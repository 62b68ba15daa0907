// Content-addressed chunk store: holds one copy of each unique chunk and
// reference counts it. The backup site (paper §7.2) keeps one of these to
// reconstruct images from chunk/pointer streams.
//
// An entry either holds its payload or is reference-only: put(digest, size)
// records the digest, its size and one reference but no bytes. The backup
// server's store is all reference-only entries — it dedups and ships, and
// only the backup site keeps chunks. Both kinds account identically (every
// byte count reads the entry's size) and live through the same lifecycle;
// only get()/append_to() tell them apart.
//
// Lifecycle (docs/retention.md): every put/add_ref takes one reference,
// every release_ref drops one. In immediate mode the chunk is freed the
// moment its last reference goes; in deferred-reclaim mode (the retention
// subsystem's GC epoch/pin protocol) the entry is instead parked at zero
// refs — still resurrectable by add_ref/put — until an explicit
// sweep_zero_refs() decides it is provably unreferenced and frees it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "dedup/digest.h"

namespace shredder::dedup {

// What a put() did: inserted a brand-new chunk, added one reference to a
// live one, or revived an entry parked at zero references. The backup
// server's dedup walk branches on it: only kRefAdded names a chunk the
// backup site still holds, because the site frees a chunk at delete while
// this store parks it until the GC sweep.
enum class PutOutcome { kInserted, kRefAdded, kRevived };

// What a release_ref() did. Every state a caller could previously only
// infer from optional-vs-value is now named; kNoRefs and kUnknownDigest
// leave the store untouched so callers can treat them as typed errors.
enum class ReleaseOutcome {
  kLive,           // references remain; chunk stays resident
  kReclaimed,      // last reference dropped, chunk freed immediately
  kDeferred,       // last reference dropped, chunk parked at zero refs
                   // awaiting sweep_zero_refs (deferred-reclaim mode)
  kNoRefs,         // entry already at zero references (double release)
  kUnknownDigest,  // digest not in the store
};

// Point-in-time occupancy, handed to the observer after every mutation so
// consumers (retention wires these into obs::Registry gauges) track the
// store without polling. `chunks`/`bytes` include zero-ref parked entries;
// the zero_ref_* pair counts the reclaimable subset.
struct StoreOccupancy {
  std::uint64_t chunks = 0;
  std::uint64_t bytes = 0;
  std::uint64_t refs = 0;
  std::uint64_t zero_ref_chunks = 0;
  std::uint64_t zero_ref_bytes = 0;
};

// Result of one sweep_zero_refs() pass.
struct SweepStats {
  std::uint64_t scanned = 0;       // entries examined
  std::uint64_t freed_chunks = 0;  // zero-ref entries erased
  std::uint64_t freed_bytes = 0;
  std::uint64_t kept = 0;          // zero-ref entries retained by `keep`
};

class ChunkStore {
 public:
  // `deferred_reclaim` parks last-reference chunks at zero refs instead of
  // freeing them inline — the GC sweep (retention::RetentionManager)
  // reclaims them once no in-flight backup can still resurrect the digest.
  explicit ChunkStore(bool deferred_reclaim = false)
      : deferred_reclaim_(deferred_reclaim) {}

  // Occupancy observer, invoked after every mutating call while the store
  // lock is held (so snapshots are exact, never torn). The callback must be
  // cheap and must not re-enter the store. dedup/ sits below obs/ in the
  // module DAG, so gauge publication lives in the consumer (retention).
  using Observer = std::function<void(const StoreOccupancy&)>;
  void set_observer(Observer observer);

  // Inserts a chunk with one reference, or — if the digest already exists —
  // adds a reference to the stored copy, reported explicitly via the
  // outcome. A zero-ref parked entry is resurrected (kRevived). The digest
  // must be the canonical chunk hash (SHA-256) of `data` — checked in debug
  // builds, including digests precomputed on the device by the fingerprint
  // stage.
  PutOutcome put(const ChunkDigest& digest, ByteSpan data);
  // Reference-only overload: takes one reference exactly like a payload put
  // of `size` bytes (same outcome, same resurrection of a parked entry, same
  // accounting) but stores no bytes. A payload put onto a reference-only
  // digest only adds its reference; the entry stays reference-only.
  PutOutcome put(const ChunkDigest& digest, std::uint64_t size);

  // Copy of the chunk payload, or nullopt if unknown or reference-only.
  std::optional<ByteVec> get(const ChunkDigest& digest) const;

  // Appends the chunk payload to `out`, copying straight out of the store
  // under its lock — no intermediate buffer. Returns false, leaving `out`
  // untouched, if the digest is unknown or reference-only. Zero-ref parked
  // entries read like get() reads them.
  bool append_to(const ChunkDigest& digest, ByteVec& out) const;

  // Payload size of the chunk (with or without its bytes), or nullopt if
  // unknown — lets a reader size its buffer once before a run of
  // append_to() calls.
  std::optional<std::uint64_t> chunk_bytes(const ChunkDigest& digest) const;

  bool contains(const ChunkDigest& digest) const;

  // Adds a reference to an existing chunk, resurrecting a zero-ref parked
  // entry. Returns false if unknown.
  bool add_ref(const ChunkDigest& digest);

  // Drops one reference (a tenant deleted a snapshot that used this chunk).
  // Typed outcome per the enum above; `remaining`, when non-null, receives
  // the post-call reference count on kLive/kReclaimed/kDeferred and is
  // untouched on the error outcomes.
  ReleaseOutcome release_ref(const ChunkDigest& digest,
                             std::uint64_t* remaining = nullptr);

  // Frees zero-ref parked entries. `keep`, when set, vetoes individual
  // digests (the GC epoch protocol keeps digests zeroed too recently for
  // every in-flight backup to have observed). Runs under the store lock —
  // `keep` must be cheap and must not re-enter the store.
  SweepStats sweep_zero_refs(
      const std::function<bool(const ChunkDigest&)>& keep = {});

  // Current reference count, or nullopt if unknown. Zero means parked.
  std::optional<std::uint64_t> ref_count(const ChunkDigest& digest) const;

  // Crash recovery (docs/retention.md): replaces every entry's reference
  // count with counts[digest] — the occurrence totals recomputed from the
  // live snapshot manifests, which are the durable authority. Digests absent
  // from `counts` drop to zero references: parked in deferred-reclaim mode
  // (the next GC decides), freed immediately otherwise. Returns the digests
  // left at zero refs so the caller can re-seed its reclamation queue.
  std::vector<ChunkDigest> rebuild_refs(
      const std::unordered_map<ChunkDigest, std::uint64_t, ChunkDigestHash>&
          counts);

  std::uint64_t unique_chunks() const;
  std::uint64_t unique_bytes() const;
  std::uint64_t total_refs() const;
  std::uint64_t zero_ref_chunks() const;
  std::uint64_t zero_ref_bytes() const;
  StoreOccupancy occupancy() const;

 private:
  struct Entry {
    ByteVec data;            // empty on a reference-only entry
    std::uint64_t size = 0;  // payload bytes, whether or not `data` holds them
    std::uint64_t refs = 1;
    bool has_payload = true;
  };

  // Takes one reference on `digest`: resurrects or bumps an existing entry
  // (dropping `entry`), else inserts `entry`.
  PutOutcome put_locked(const ChunkDigest& digest, Entry&& entry)
      REQUIRES(mutex_);
  StoreOccupancy occupancy_locked() const REQUIRES(mutex_);
  void notify_locked() REQUIRES(mutex_);

  const bool deferred_reclaim_;
  mutable Mutex mutex_;
  std::unordered_map<ChunkDigest, Entry, ChunkDigestHash> chunks_
      GUARDED_BY(mutex_);
  std::uint64_t unique_bytes_ GUARDED_BY(mutex_) = 0;
  std::uint64_t total_refs_ GUARDED_BY(mutex_) = 0;
  std::uint64_t zero_ref_chunks_ GUARDED_BY(mutex_) = 0;
  std::uint64_t zero_ref_bytes_ GUARDED_BY(mutex_) = 0;
  Observer observer_ GUARDED_BY(mutex_);
};

}  // namespace shredder::dedup
