// Chunk fingerprint index — dedup step 3 (paper §2.1): "checking if the hash
// for a chunk already exists in the index".
//
// Two backends live behind the IndexBackend interface (docs/dedup_index.md):
//
//  * ChunkIndex (IndexKind::kPaperBaseline) — the sharded unordered_map the
//    paper measures in §7.3. Every probe pays a flat modelled cost; this is
//    the "not ChunkStash-grade" index whose probes erode backup bandwidth as
//    snapshot similarity drops, kept for figure-18 fidelity.
//
//  * SparseChunkIndex (IndexKind::kSparse, sparse_index.h) — a ChunkStash-
//    style two-level sparse index: an in-RAM cuckoo hash of 2-byte digest
//    signatures + compact entry offsets (≈6 bytes/chunk) in front of a
//    log-structured full-entry region with a modelled flash-read cost paid
//    only on signature hits, plus a per-stream container prefetch cache
//    that turns runs of duplicate probes into one container fetch.
//
// Both backends return bit-identical lookup/insert results (the sparse
// signatures are confirmed against the full digest before a hit is
// reported); only the modelled probe-path cost differs. make_index() builds
// either one from an IndexConfig; BackupServer builds its index there.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/annotations.h"
#include "common/mutex.h"
#include "dedup/digest.h"

namespace shredder::dedup {

struct ChunkLocation {
  std::uint64_t store_offset = 0;
  std::uint64_t size = 0;
};

enum class IndexKind { kPaperBaseline, kSparse };

// Modelled per-operation costs of the two probe paths. Baseline constants
// follow the §7.3 calibration; sparse constants model a 2012-era SSD holding
// the full-entry log (docs/dedup_index.md derives each one).
struct IndexCostModel {
  // kPaperBaseline: flat per-probe lookup cost + extra work per insert.
  // Defaults match the historical library-level ChunkIndex; the backup
  // server's §7.3 calibration (3.5 µs probe / 6.0 µs insert) lives in
  // BackupCostModel and is copied in by BackupServer.
  double probe_s = 0.8e-6;
  double insert_s = 0.0;
  // kSparse: in-RAM cuckoo signature probe (two buckets, four slots each).
  double ram_probe_s = 0.25e-6;
  // Full-entry container read from the log region on a signature hit that
  // is not already cached (one flash random read, prefetches the container).
  double flash_read_s = 40e-6;
  // Confirming against a container already in the prefetch cache (or the
  // still-open in-RAM tail container).
  double cache_hit_s = 0.1e-6;
  // Appending a new entry to the log's write buffer + cuckoo placement.
  double log_append_s = 0.3e-6;
  // Writing one compacted container back to the log region (entry-log
  // compaction, docs/retention.md) — a flash sequential write, slightly
  // dearer than the random read.
  double flash_write_s = 45e-6;
};

// Geometry of the sparse backend (ignored by the baseline).
struct SparseIndexTuning {
  std::size_t buckets = 1 << 10;        // initial cuckoo buckets (power of 2)
  std::size_t container_entries = 512;  // log entries per flash container
  std::size_t cache_containers = 8;     // per-stream prefetch LRU capacity
  // Concurrent streams with live prefetch caches; beyond this the oldest
  // stream's cache is retired (streams are minted per snapshot/tenant, so
  // without a bound the map would grow with index lifetime).
  std::size_t max_stream_caches = 64;
  double max_load = 0.90;               // grow when entries exceed this
  std::size_t max_kick_nodes = 128;     // BFS kickout search bound
};

struct IndexConfig {
  IndexKind kind = IndexKind::kPaperBaseline;
  IndexCostModel costs;
  SparseIndexTuning sparse;
};

// Cumulative counters; the baseline only moves probes/inserts/
// virtual_seconds, the sparse backend fills everything.
struct IndexStats {
  std::uint64_t probes = 0;          // lookup + lookup_or_insert calls
  std::uint64_t inserts = 0;         // entries admitted
  std::uint64_t signature_hits = 0;  // RAM signature matches (incl. aliases)
  std::uint64_t false_signature_hits = 0;  // full-digest compare rejected
  std::uint64_t flash_reads = 0;     // modelled log-region container reads
  std::uint64_t cache_hits = 0;      // prefetch-cache / tail confirmations
  std::uint64_t kickouts = 0;        // cuckoo relocations
  std::uint64_t resizes = 0;         // table growths
  std::uint64_t spilled = 0;         // entries in the RAM auxiliary bin
  std::uint64_t recoveries = 0;      // rebuild_from_log restarts (sparse)
  std::uint64_t compactions = 0;     // entry-log compaction passes (sparse)
  std::uint64_t log_entries_dropped = 0;  // dead entries compacted away
  double virtual_seconds = 0;        // total modelled index time
};

// The single atomic lookup-or-insert surface the dedup path issues per
// chunk. `stream` tags the probing client (one per backup snapshot); the
// sparse backend keys its container prefetch cache by it, the baseline
// ignores it.
class IndexBackend {
 public:
  virtual ~IndexBackend() = default;

  // Returns the existing location if present; otherwise inserts `loc` and
  // returns nullopt.
  std::optional<ChunkLocation> lookup_or_insert(const ChunkDigest& digest,
                                                const ChunkLocation& loc,
                                                std::uint32_t stream = 0) {
    return do_lookup_or_insert(digest, loc, stream);
  }

  // Read-only probe (still pays the modelled probe cost).
  std::optional<ChunkLocation> lookup(const ChunkDigest& digest,
                                      std::uint32_t stream = 0) const {
    return do_lookup(digest, stream);
  }

  virtual std::uint64_t size() const = 0;
  virtual IndexKind kind() const noexcept = 0;
  virtual IndexStats stats() const = 0;

  std::uint64_t probes() const { return stats().probes; }
  // Total modelled index time so far.
  double virtual_seconds() const { return stats().virtual_seconds; }

 private:
  virtual std::optional<ChunkLocation> do_lookup_or_insert(
      const ChunkDigest& digest, const ChunkLocation& loc,
      std::uint32_t stream) = 0;
  virtual std::optional<ChunkLocation> do_lookup(const ChunkDigest& digest,
                                                 std::uint32_t stream) const = 0;
};

std::unique_ptr<IndexBackend> make_index(const IndexConfig& config);

// The paper-baseline backend: sharded hash map keyed by the canonical chunk
// digest; each shard has its own lock so the backup pipeline's lookup thread
// and store thread can probe concurrently. A flat per-probe virtual cost
// (plus `insert_seconds` extra per admitted entry) models the unoptimized
// index of §7.3.
class ChunkIndex final : public IndexBackend {
 public:
  // `probe_seconds` is the modelled cost of one lookup/insert probe;
  // `insert_seconds` the additional cost of admitting an unseen chunk.
  explicit ChunkIndex(double probe_seconds = 0.8e-6,
                      double insert_seconds = 0.0);

  std::uint64_t size() const override;
  IndexKind kind() const noexcept override { return IndexKind::kPaperBaseline; }
  IndexStats stats() const override;

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    mutable Mutex mutex;
    std::unordered_map<ChunkDigest, ChunkLocation, ChunkDigestHash> map
        GUARDED_BY(mutex);
  };
  Shard& shard_for(const ChunkDigest& d) const noexcept;

  std::optional<ChunkLocation> do_lookup_or_insert(const ChunkDigest& digest,
                                                   const ChunkLocation& loc,
                                                   std::uint32_t stream) override;
  std::optional<ChunkLocation> do_lookup(const ChunkDigest& digest,
                                         std::uint32_t stream) const override;

  double probe_seconds_;
  double insert_seconds_;
  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<std::uint64_t> probes_{0};
  std::atomic<std::uint64_t> inserts_{0};
};

}  // namespace shredder::dedup
