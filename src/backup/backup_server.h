// Consolidated backup server with GPU-accelerated deduplication
// (paper §7.2, Figures 16–18).
//
// Pipeline per snapshot: the backup agent mounts/generates the image at the
// 10 Gb/s source rate; Shredder (or the pthreads baseline) chunks it with
// min/max sizes enabled; each chunk is SHA-256-fingerprinted — on the host
// (the pthreads baseline hashes on its chunker's worker pool), or on the
// device by the pipeline's fingerprint stage when fingerprint_on_device is
// set; hashes are batched into the index-lookup queue; unique chunks ship
// to the backup site over the link while duplicates send pointers. All
// stages overlap, so the steady-state backup bandwidth is bounded by the
// slowest stage — the chunker for the CPU baseline, the host hash for the
// GPU-chunking path, and the generation source once hashing moves
// on-device too.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "backup/agent.h"
#include "backup/image.h"
#include "backup/transport.h"
#include "chunking/chunk.h"
#include "chunking/parallel.h"
#include "core/shredder.h"
#include "dedup/index.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "retention/retention.h"
#include "service/service.h"

namespace shredder::backup {

// kShredderGpu owns a dedicated device; kSharedService chunks through a
// caller-provided multi-tenant ChunkingService, so several backup servers
// (or several concurrent snapshots of one server) share a single device.
enum class ChunkerBackend { kShredderGpu, kPthreadsCpu, kSharedService };

// Virtual-cost constants of the non-chunking stages (§7.3 calibration; the
// paper notes its index lookup and network access are unoptimized).
struct BackupCostModel {
  // Host SHA-256 over chunk payloads on the store path. The X5650 hashes
  // SHA-256 at ~150 MB/s per core, and Table 2 shows the backup host has
  // only a handful of spare cores once generation, index and network stages
  // are running — ~6 spare cores puts the sustained hash stage near 0.9 GB/s,
  // which is exactly why this is the stage worth offloading to the device
  // (Al-Kiswany et al., "GPUs as Storage System Accelerators").
  double host_hash_bw = 0.9e9;
  double index_probe_s = 3.5e-6;   // per-chunk lookup + queue handling
  double index_insert_s = 6.0e-6;  // extra work for a previously unseen chunk
  // Backup-site wire: 10 GbE bandwidth plus the framing model —
  // per-message handling, header bytes, extent-record bytes (transport.h,
  // docs/backup_wire.md). The per-message term is what the extent-coalesced
  // batches amortize: one wire message per drained buffer, not per chunk.
  LinkCostModel link;
};

struct BackupServerConfig {
  ChunkerBackend backend = ChunkerBackend::kShredderGpu;
  // Fingerprint-index backend (docs/dedup_index.md): the paper-faithful
  // sharded map, or the ChunkStash-style sparse index that takes the probe
  // path off the critical path at small chunk sizes / low similarity.
  // Baseline probe/insert costs are taken from `costs` below so the fig18
  // calibration stays in one place; the sparse cost constants come from
  // `index.costs`.
  dedup::IndexConfig index;
  chunking::ChunkerConfig chunker{
      .window = 48,
      .mask_bits = 12,        // ~4 KB expected chunks
      .marker = 0x78,
      .min_size = 2 * 1024,   // commercial-backup style min/max (§7.3)
      .max_size = 16 * 1024,
  };
  BackupCostModel costs;
  core::ShredderConfig shredder;   // used when backend == kShredderGpu
  std::size_t cpu_threads = 12;    // pthreads baseline width
  // Fingerprint chunks on the device instead of the host (kShredderGpu and
  // kSharedService backends; the CPU baseline ignores it and hashes on its
  // chunker's pool). The chunking pipeline then delivers chunk+digest pairs
  // and the host hashing stage disappears from the bandwidth equation.
  bool fingerprint_on_device = false;
  // Wire parameters: window/RTO/repair knobs and the injectable fault
  // schedule (transport.h). Every snapshot ships as extent-coalesced batches
  // — one per drained chunking buffer (docs/backup_wire.md). The framing
  // costs are overwritten from `costs.link` so the fig18 calibration stays
  // in one place. The defaults (no faults, instant applies) make the
  // transport a lossless link.
  TransportConfig transport;
  // Modelled costs of the retention control plane (delete walks, GC sweeps,
  // manifest appends).
  retention::RetentionCostModel retention_costs;
  // Shared chunking service, required for kSharedService. Its chunker
  // configuration must equal `chunker` (streams must stay bit-identical to
  // a dedicated run) and its fingerprint_on_device flag must match; the
  // constructor enforces both.
  std::shared_ptr<service::ChunkingService> service;
  // Optional metrics registry (borrowed). The server publishes per-snapshot
  // backup.* counters/timings and index.* probe-outcome deltas. Null with a
  // shared service => the service's registry; null otherwise => no metrics.
  obs::Registry* registry = nullptr;
  // Optional virtual-time tracer (borrowed), forwarded to each snapshot's
  // Transport with the image id as the track label — frame send/retransmit/
  // ack/repair spans land on "transport/<image>/..." tracks.
  obs::Tracer* tracer = nullptr;
};

struct BackupRunStats {
  std::uint64_t bytes = 0;
  std::uint64_t chunks = 0;
  std::uint64_t duplicate_chunks = 0;
  std::uint64_t unique_bytes = 0;

  // Per-stage virtual time for this snapshot. With on-device fingerprinting
  // hashing_seconds is zero: the hash kernel rides inside chunking_seconds.
  double generation_seconds = 0;
  double chunking_seconds = 0;
  double hashing_seconds = 0;
  double index_seconds = 0;           // modelled index time this snapshot
  // Modelled wire time: the transport makespan (transport.virtual_seconds).
  // Without faults it is the framing-model sum — per-message handling +
  // (headers, digests, extent records, payloads) over link bandwidth — plus
  // the final ack round trip; with faults it adds the recovery cost.
  double link_seconds = 0;
  double index_transfer_seconds = 0;  // index_seconds + link_seconds
  bool device_fingerprint = false;

  // Index-backend telemetry for this snapshot (deltas; sparse backend only
  // moves the flash/cache counters).
  dedup::IndexKind index_kind = dedup::IndexKind::kPaperBaseline;
  std::uint64_t index_flash_reads = 0;
  std::uint64_t index_cache_hits = 0;

  // Total link bytes of the logical stream including framing overhead (each
  // original frame once; equals transport.link.wire_bytes).
  std::uint64_t wire_bytes = 0;

  // Full transport telemetry: the logical stream in `transport.link`
  // (messages, extents, chunks), plus retransmits, acks, window stalls,
  // repair traffic, makespan, goodput and the degraded-health flag.
  TransportStats transport;

  // Steady-state pipelined time = slowest stage; and the headline number.
  double virtual_seconds = 0;
  double backup_bandwidth_gbps = 0;

  // The backup site's sealed root (BackupAgent::image_root) equals the root
  // of the manifest the server recorded for this snapshot.
  bool verified = false;
  double wall_seconds = 0;
};

class BackupServer {
 public:
  explicit BackupServer(BackupServerConfig config);

  // Backs `image` up into `agent` under `image_id`, deduplicating against
  // everything this server has backed up before. An id this server's
  // manifests hold live throws retention::RetentionError{kImageExists}, and
  // one the agent has sealed throws ProtocolError{kDuplicateImage}; both are
  // refused before the image is chunked.
  BackupRunStats backup_image(const std::string& image_id, ByteSpan image,
                              const ImageRepository& repo, BackupAgent& agent);

  // One snapshot of a concurrent batch.
  struct SnapshotJob {
    std::string image_id;
    ByteSpan image;
  };

  // Backs up several snapshots against one device. With the kSharedService
  // backend every snapshot chunks concurrently as its own service tenant;
  // the dedup/transfer stage then runs per image in `jobs` order (the index
  // walk stays deterministic). Other backends degrade to a serial loop.
  // Every job's id is checked as backup_image checks it, and an id repeated
  // within `jobs` throws retention::RetentionError{kImageExists}, all before
  // any job is chunked: a refused batch chunks and backs up nothing.
  std::vector<BackupRunStats> backup_images(const std::vector<SnapshotJob>& jobs,
                                            const ImageRepository& repo,
                                            BackupAgent& agent);

  const dedup::IndexBackend& index() const noexcept { return *index_; }
  const BackupServerConfig& config() const noexcept { return config_; }

  // --- Retention surface (src/retention): manifests, delete, GC, compaction.
  // Every snapshot records its chunk manifest here as its backup completes.
  retention::RetentionManager& retention() noexcept { return *retention_; }
  const retention::RetentionManager& retention() const noexcept {
    return *retention_;
  }

  // Deletes a previously backed-up snapshot server-side: walks its manifest
  // releasing one store reference per chunk occurrence; chunks that hit zero
  // refs await gc(). The backup site's copy is deleted separately via
  // BackupAgent::delete_image. Throws retention::RetentionError
  // (kUnknownImage for ids never backed up; kAlreadyDeleted on a repeat
  // delete). Once both sides have deleted it, the id may be backed up again,
  // to the same agent (its delete_image forgets the recipe), before or
  // after gc().
  retention::RetentionManager::DeleteStats delete_image(
      const std::string& image_id);

  // Epoch-advancing GC sweep over chunks zeroed by deletes (retention.h).
  retention::RetentionManager::GcStats gc();

  // Entry-log compaction: rewrites the sparse index's containers dropping
  // entries whose chunks the store no longer holds, then compacts the
  // manifest log. With the baseline map backend only the manifest log
  // compacts (a RAM map has no entry log to rewrite).
  retention::RetentionManager::CompactStats compact_index();

 private:
  // Chunking + fingerprint stage: fills `chunks` and one digest per chunk
  // in `digests` — from the device when fingerprint_on_device is set, else
  // hashed on the host (on the CPU chunker's pool for kPthreadsCpu, serially
  // for the pipeline backends) — records the drained-buffer batch structure
  // as cumulative chunk counts in `batch_ends` (the granularity of the wire
  // batches downstream), and returns the virtual chunking seconds.
  double chunk_image(const std::string& image_id, ByteSpan image,
                     std::vector<chunking::Chunk>& chunks,
                     std::vector<dedup::ChunkDigest>& digests,
                     std::vector<std::size_t>& batch_ends);
  // Throws as backup_image documents when `image_id` is taken: live in this
  // server's manifests or sealed by `agent`.
  void refuse_taken_id(const std::string& image_id,
                       const BackupAgent& agent) const;
  // Index + transfer + verification stages shared by all paths. `digests`
  // are chunk_image's fingerprints, 1:1 with `chunks`; the hash stage is
  // priced from config_.fingerprint_on_device.
  BackupRunStats dedup_and_ship(const std::string& image_id, ByteSpan image,
                                std::vector<chunking::Chunk> chunks,
                                std::vector<dedup::ChunkDigest> digests,
                                std::vector<std::size_t> batch_ends,
                                double generation_seconds,
                                double chunking_seconds, BackupAgent& agent);

  // Builds the per-snapshot transport configuration: server defaults plus
  // the link costs from the cost model, traced under the image id.
  TransportConfig transport_config(const std::string& image_id) const;

  // Publishes one finished snapshot's deltas into registry_ (no-op when
  // the server has no registry).
  void publish_run_stats(const BackupRunStats& stats,
                         const dedup::IndexStats& index_before,
                         const dedup::IndexStats& index_after);

  BackupServerConfig config_;
  obs::Registry* registry_ = nullptr;  // resolved in the constructor
  std::unique_ptr<dedup::IndexBackend> index_;
  // Reference-only: digest, size and refs per chunk, for retention.
  std::shared_ptr<dedup::ChunkStore> store_;
  std::unique_ptr<retention::RetentionManager> retention_;
  std::unique_ptr<core::Shredder> shredder_;        // GPU backend
  std::unique_ptr<rabin::RabinTables> cpu_tables_;  // CPU backend
  std::unique_ptr<chunking::ParallelChunker> cpu_chunker_;
  std::uint64_t next_store_offset_ = 0;
  // Each snapshot probes the index as its own stream: the sparse backend's
  // container prefetch cache is per-stream, matching backup locality.
  std::uint32_t next_index_stream_ = 0;
};

}  // namespace shredder::backup
