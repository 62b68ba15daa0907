#include "backup/backup_server.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace shredder::backup {

namespace {

bool chunker_equal(const chunking::ChunkerConfig& a,
                   const chunking::ChunkerConfig& b) {
  return a.window == b.window && a.mask_bits == b.mask_bits &&
         a.marker == b.marker && a.min_size == b.min_size &&
         a.max_size == b.max_size;
}

// ChunkSink recording the drained-buffer batch structure of a chunking run
// as cumulative chunk counts — the granularity the wire batches reuse.
class BatchRecorder final : public ChunkSink {
 public:
  explicit BatchRecorder(std::vector<std::size_t>& ends) : ends_(ends) {}
  void on_batch(const ChunkBatchView& batch) override {
    total_ += batch.chunks.size();
    if (!batch.chunks.empty()) ends_.push_back(total_);
  }

 private:
  std::vector<std::size_t>& ends_;
  std::size_t total_ = 0;
};

// Host SHA-256 of every chunk, in chunk order. With a pool, each worker
// hashes its own contiguous range into the presized vector, so the order is
// kept and the workers allocate nothing.
std::vector<dedup::ChunkDigest> host_digests(
    ByteSpan image, const std::vector<chunking::Chunk>& chunks,
    ThreadPool* pool) {
  std::vector<dedup::ChunkDigest> digests(chunks.size());
  const auto hash_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      digests[i] = dedup::ChunkHasher::hash(
          image.subspan(static_cast<std::size_t>(chunks[i].offset),
                        static_cast<std::size_t>(chunks[i].size)));
    }
  };
  if (pool != nullptr) {
    pool->parallel_for(chunks.size(), hash_range);
  } else {
    hash_range(0, chunks.size());
  }
  return digests;
}

}  // namespace

BackupServer::BackupServer(BackupServerConfig config)
    : config_(std::move(config)) {
  config_.chunker.validate();
  // References and sizes of every chunk the live snapshots use, no bytes:
  // only the backup site (the agent) stores payloads. It runs in
  // deferred-reclaim mode: snapshot deletes park zero-ref chunks for the GC
  // epoch protocol instead of freeing them inline.
  store_ = std::make_shared<dedup::ChunkStore>(/*deferred_reclaim=*/true);
  // The baseline backend's flat probe/insert costs live in BackupCostModel
  // (§7.3 calibration); copy them into the index config so both knobs agree.
  dedup::IndexConfig index_cfg = config_.index;
  index_cfg.costs.probe_s = config_.costs.index_probe_s;
  index_cfg.costs.insert_s = config_.costs.index_insert_s;
  index_ = dedup::make_index(index_cfg);
  // With a shared service and no explicit registry, the server publishes
  // into the service's registry so one snapshot() covers both layers.
  registry_ = config_.registry;
  if (registry_ == nullptr && config_.service) {
    registry_ = &config_.service->registry();
  }
  // Snapshot lifecycle over the reference-only store (repairs are served
  // from the image in flight): manifests, delete walks, GC.
  retention::RetentionConfig retention_cfg;
  retention_cfg.costs = config_.retention_costs;
  retention_cfg.registry = registry_;
  retention_cfg.tracer = config_.tracer;
  retention_ = std::make_unique<retention::RetentionManager>(store_,
                                                             retention_cfg);
  switch (config_.backend) {
    case ChunkerBackend::kShredderGpu:
      config_.shredder.chunker = config_.chunker;
      config_.shredder.fingerprint_on_device = config_.fingerprint_on_device;
      config_.shredder.registry = registry_;
      shredder_ = std::make_unique<core::Shredder>(config_.shredder);
      break;
    case ChunkerBackend::kPthreadsCpu:
      // The CPU baseline has no device to fingerprint on.
      config_.fingerprint_on_device = false;
      cpu_tables_ = std::make_unique<rabin::RabinTables>(config_.chunker.window);
      cpu_chunker_ = std::make_unique<chunking::ParallelChunker>(
          *cpu_tables_, config_.chunker, config_.cpu_threads,
          chunking::AllocMode::kThreadArena);
      break;
    case ChunkerBackend::kSharedService:
      if (!config_.service) {
        throw std::invalid_argument(
            "BackupServer: kSharedService requires a ChunkingService");
      }
      if (!chunker_equal(config_.service->config().chunker, config_.chunker)) {
        throw std::invalid_argument(
            "BackupServer: shared service chunker configuration differs");
      }
      if (config_.service->config().fingerprint_on_device !=
          config_.fingerprint_on_device) {
        throw std::invalid_argument(
            "BackupServer: shared service fingerprint_on_device differs");
      }
      break;
  }
}

TransportConfig BackupServer::transport_config(
    const std::string& image_id) const {
  TransportConfig cfg = config_.transport;
  // Single source of truth for the framing calibration: the transport
  // always prices frames with the cost model's link constants.
  cfg.link = config_.costs.link;
  cfg.tracer = config_.tracer;
  cfg.trace_label = image_id;
  return cfg;
}

double BackupServer::chunk_image(const std::string& image_id, ByteSpan image,
                                 std::vector<chunking::Chunk>& chunks,
                                 std::vector<dedup::ChunkDigest>& digests,
                                 std::vector<std::size_t>& batch_ends) {
  BatchRecorder recorder(batch_ends);
  switch (config_.backend) {
    case ChunkerBackend::kShredderGpu: {
      auto result = shredder_->run(image, recorder);
      chunks = std::move(result.chunks);
      digests = config_.fingerprint_on_device
                    ? std::move(result.digests)
                    : host_digests(image, chunks, /*pool=*/nullptr);
      return result.virtual_seconds;
    }
    case ChunkerBackend::kPthreadsCpu: {
      chunks = cpu_chunker_->chunk(image);
      digests = host_digests(image, chunks, &cpu_chunker_->pool());
      // No pipeline buffers on the CPU path: synthesize batch bounds at the
      // same buffer granularity the GPU backends ship at, so the wire
      // protocol amortizes identically. (Exact bounds may differ at buffer
      // seams — a spanning chunk lands in the earlier batch here but in the
      // draining buffer's batch on the pipeline backends.)
      const std::size_t buffer = config_.shredder.buffer_bytes;
      std::uint64_t limit = buffer;
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        if (chunks[i].end() >= limit) {
          batch_ends.push_back(i + 1);
          while (limit <= chunks[i].end()) limit += buffer;
        }
      }
      if (batch_ends.empty() || batch_ends.back() != chunks.size()) {
        batch_ends.push_back(chunks.size());
      }
      const gpu::HostSpec host;
      return static_cast<double>(image.size()) /
             host.pthreads_chunking_bw_hoard;
    }
    case ChunkerBackend::kSharedService: {
      core::MemorySource source(image,
                                config_.service->config().host.reader_bw);
      service::TenantOptions opts;
      opts.name = image_id;
      opts.sink = &recorder;
      auto result = config_.service->chunk_stream(source, std::move(opts));
      chunks = std::move(result.chunks);
      digests = config_.fingerprint_on_device
                    ? std::move(result.digests)
                    : host_digests(image, chunks, /*pool=*/nullptr);
      return result.report.virtual_seconds;
    }
  }
  throw std::logic_error("BackupServer: unknown backend");
}

BackupRunStats BackupServer::dedup_and_ship(
    const std::string& image_id, ByteSpan image,
    std::vector<chunking::Chunk> chunks,
    std::vector<dedup::ChunkDigest> digests,
    std::vector<std::size_t> batch_ends, double generation_seconds,
    double chunking_seconds, BackupAgent& agent) {
  Stopwatch wall;
  BackupRunStats stats;
  stats.bytes = image.size();
  stats.generation_seconds = generation_seconds;
  stats.chunking_seconds = chunking_seconds;
  stats.chunks = chunks.size();
  stats.device_fingerprint = config_.fingerprint_on_device;
  if (digests.size() != chunks.size()) {
    throw std::invalid_argument(
        "BackupServer: digest/chunk count mismatch from the chunking stage");
  }
  if (batch_ends.empty() || batch_ends.back() != chunks.size()) {
    batch_ends.push_back(chunks.size());
  }

  // --- Hash + index lookup + transfer stages ---
  // With device fingerprints the hash stage already happened inside the
  // chunking pipeline (its kernel time is part of chunking_seconds), so the
  // host hashing term drops out of the bandwidth equation. Otherwise
  // chunk_image hashed on the host, priced at the host hash bandwidth.
  stats.hashing_seconds =
      stats.device_fingerprint
          ? 0.0
          : static_cast<double>(image.size()) / config_.costs.host_hash_bw;
  // The wire: the windowed ack-clocked Transport, repairing from the image
  // being backed up. The transport lives for this image and flush() below
  // finishes every repair, so every digest it can ask for is one this image
  // shipped. The digest -> chunk map is built at the first request; a
  // lossless run never builds it.
  std::unordered_map<dedup::ChunkDigest, std::size_t, dedup::ChunkDigestHash>
      chunk_of;
  const auto repair = [&](const dedup::ChunkDigest& digest)
      -> std::optional<ByteVec> {
    if (chunk_of.empty()) {
      chunk_of.reserve(chunks.size());
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        chunk_of.try_emplace(digests[i], i);
      }
    }
    const auto it = chunk_of.find(digest);
    if (it == chunk_of.end()) return std::nullopt;
    const auto& c = chunks[it->second];
    const ByteSpan payload = image.subspan(static_cast<std::size_t>(c.offset),
                                           static_cast<std::size_t>(c.size));
    return ByteVec(payload.begin(), payload.end());
  };
  Transport transport(agent, transport_config(image_id), repair);
  transport.begin_image(image_id);
  // The index stage is charged whatever the backend's virtual clock says
  // this snapshot's probes cost — a flat per-probe/per-insert rate for the
  // baseline, signature probes + amortized container reads for the sparse
  // index. Each snapshot probes as its own stream so the sparse backend's
  // prefetch cache sees backup locality.
  const std::uint32_t index_stream = next_index_stream_++;
  const dedup::IndexStats index_before = index_->stats();
  stats.index_kind = index_->kind();
  // Retention bookkeeping: pin the whole dedup walk for the GC epoch
  // protocol (retention.h), and accumulate the image's ordered digest list
  // for its manifest.
  retention::RetentionManager::Pin pin = retention_->pin();
  std::vector<dedup::ChunkDigest> manifest_digests;
  manifest_digests.reserve(chunks.size());
  // The stream ships at the drained-buffer granularity chunk_image recorded:
  // one extent-coalesced wire batch per buffer.
  std::size_t chunk_i = 0;
  for (const std::size_t batch_end : batch_ends) {
    BackupAgent::ExtentBatch wire;
    if (chunk_i < batch_end) {
      // Sized once: every chunk's digest, and the batch's byte span as an
      // upper bound on its unique payload.
      wire.digests.reserve(batch_end - chunk_i);
      wire.payload.reserve(static_cast<std::size_t>(
          chunks[batch_end - 1].end() - chunks[chunk_i].offset));
    }
    for (; chunk_i < batch_end; ++chunk_i) {
      const auto& c = chunks[chunk_i];
      const ByteSpan payload =
          image.subspan(static_cast<std::size_t>(c.offset),
                        static_cast<std::size_t>(c.size));
      const auto& digest = digests[chunk_i];
      index_->lookup_or_insert(
          digest, dedup::ChunkLocation{next_store_offset_, c.size},
          index_stream);
      // The probe above is the match step and its modelled cost; the store
      // decides. put() takes this occurrence's one reference, by size only,
      // which keeps the refcounts symmetric with the manifest the delete
      // walk replays. Only a live entry (kRefAdded) is a duplicate: the
      // backup site still holds it. Anything else ships its payload: a new
      // chunk or one gc() swept (kInserted), or one a delete parked
      // (kRevived), which the backup site freed at its own delete.
      const bool unique =
          store_->put(digest, c.size) != dedup::PutOutcome::kRefAdded;
      if (unique) {
        stats.unique_bytes += c.size;
        next_store_offset_ += c.size;
      } else {
        ++stats.duplicate_chunks;
      }
      manifest_digests.push_back(digest);
      // Extent coalescing: extend the open run while the chunk kind
      // matches, else seal it and open the next.
      const auto idx = static_cast<std::uint32_t>(wire.digests.size());
      wire.digests.push_back(digest);
      if (wire.extents.empty() || wire.extents.back().unique != unique) {
        wire.extents.push_back({idx, 1, unique});
      } else {
        ++wire.extents.back().count;
      }
      if (unique) {
        wire.payload_sizes.push_back(static_cast<std::uint32_t>(c.size));
        wire.payload.insert(wire.payload.end(), payload.begin(),
                            payload.end());
      }
    }
    if (!wire.digests.empty()) transport.send_batch(image_id, wire);
  }
  transport.end_image(image_id);
  transport.flush();

  const dedup::IndexStats index_after = index_->stats();
  stats.index_seconds = index_after.virtual_seconds -
                        index_before.virtual_seconds;
  stats.index_flash_reads = index_after.flash_reads - index_before.flash_reads;
  stats.index_cache_hits = index_after.cache_hits - index_before.cache_hits;
  const TransportStats& ts = transport.stats();
  stats.transport = ts;
  // link_seconds is the transport makespan — with faults it exceeds the
  // logical serialized time in ts.link.virtual_seconds by the recovery
  // cost; without faults the two agree to within the final ack round trip.
  stats.link_seconds = ts.virtual_seconds;
  stats.wire_bytes = ts.link.wire_bytes;
  stats.index_transfer_seconds = stats.index_seconds + stats.link_seconds;

  // --- Steady-state pipelined bandwidth: slowest stage wins ---
  stats.virtual_seconds =
      std::max({stats.generation_seconds, stats.chunking_seconds,
                stats.hashing_seconds, stats.index_transfer_seconds});
  stats.backup_bandwidth_gbps =
      stats.virtual_seconds > 0
          ? static_cast<double>(stats.bytes) * 8.0 /
                (stats.virtual_seconds * 1e9)
          : 0.0;

  // --- Verification at the backup site: the agent hashed every payload it
  // stored against its digest, and the root it sealed over its recipe must
  // equal the root of this manifest — the same chunks in the same order.
  // Under the digest assumption dedup rests on, that is as strong as
  // recreating the image and comparing its bytes, and nothing travels back.
  stats.verified =
      agent.image_root(image_id) == dedup::root_digest(manifest_digests);
  // The manifest is the durable record the delete walk and crash recovery
  // replay. Recorded unconditionally: the store references were taken
  // during the walk above, and a manifest must account for every one.
  retention_->record_image("", image_id, manifest_digests);
  pin.release();
  stats.wall_seconds = wall.elapsed_seconds();
  publish_run_stats(stats, index_before, index_after);
  return stats;
}

void BackupServer::publish_run_stats(const BackupRunStats& stats,
                                     const dedup::IndexStats& index_before,
                                     const dedup::IndexStats& index_after) {
  if (registry_ == nullptr) return;
  obs::Registry& reg = *registry_;
  reg.counter("backup.snapshots_total").add(1);
  reg.counter("backup.bytes_total").add(stats.bytes);
  reg.counter("backup.chunks_total").add(stats.chunks);
  reg.counter("backup.duplicate_chunks_total").add(stats.duplicate_chunks);
  reg.counter("backup.unique_bytes_total").add(stats.unique_bytes);
  reg.counter("backup.retransmits_total").add(stats.transport.retransmits);
  reg.counter("backup.repair_frames_total").add(stats.transport.repair_frames);
  if (stats.transport.degraded) {
    reg.counter("backup.degraded_runs_total").add(1);
  }
  reg.gauge("backup.bandwidth_gbps").set(stats.backup_bandwidth_gbps);
  // Per-snapshot stage timings (virtual seconds), one label per stage so
  // the table/JSON export reads like the paper's bandwidth equation.
  reg.timing("backup.stage_seconds", {{"stage", "generation"}})
      .observe(stats.generation_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "chunking"}})
      .observe(stats.chunking_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "hashing"}})
      .observe(stats.hashing_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "index"}})
      .observe(stats.index_seconds);
  reg.timing("backup.stage_seconds", {{"stage", "link"}})
      .observe(stats.link_seconds);
  // Probe-outcome deltas for the server-owned index. The dedup layer sits
  // below obs, so its consumers publish on its behalf.
  const auto delta = [](std::uint64_t after, std::uint64_t before) {
    return after - before;
  };
  reg.counter("index.probes_total")
      .add(delta(index_after.probes, index_before.probes));
  reg.counter("index.inserts_total")
      .add(delta(index_after.inserts, index_before.inserts));
  reg.counter("index.signature_hits_total")
      .add(delta(index_after.signature_hits, index_before.signature_hits));
  reg.counter("index.false_signature_hits_total")
      .add(delta(index_after.false_signature_hits,
                 index_before.false_signature_hits));
  reg.counter("index.flash_reads_total")
      .add(delta(index_after.flash_reads, index_before.flash_reads));
  reg.counter("index.cache_hits_total")
      .add(delta(index_after.cache_hits, index_before.cache_hits));
}

retention::RetentionManager::DeleteStats BackupServer::delete_image(
    const std::string& image_id) {
  return retention_->delete_image("", image_id);
}

retention::RetentionManager::GcStats BackupServer::gc() {
  return retention_->gc();
}

retention::RetentionManager::CompactStats BackupServer::compact_index() {
  if (index_->kind() == dedup::IndexKind::kSparse) {
    return retention_->compact_index(
        static_cast<dedup::SparseChunkIndex&>(*index_));
  }
  // The baseline map keeps no entry log; only the manifest log compacts.
  retention::RetentionManager::CompactStats stats;
  stats.manifest = retention_->manifests().compact();
  return stats;
}

// Called before any chunking: once the walk has taken store references and
// index inserts, a refusal would leave them with no manifest to account for
// them, and chunking a refused image is wasted work.
void BackupServer::refuse_taken_id(const std::string& image_id,
                                   const BackupAgent& agent) const {
  if (const auto state = retention_->manifests().state("", image_id);
      state.has_value() && *state != retention::ImageState::kDeleted) {
    throw retention::RetentionError(
        retention::RetentionViolation::kImageExists,
        "BackupServer: image is live: " + image_id);
  }
  if (agent.image_sealed(image_id)) {
    throw ProtocolError(ProtocolViolation::kDuplicateImage,
                        "BackupServer: backup site already sealed image: " +
                            image_id);
  }
}

BackupRunStats BackupServer::backup_image(const std::string& image_id,
                                          ByteSpan image,
                                          const ImageRepository& repo,
                                          BackupAgent& agent) {
  refuse_taken_id(image_id, agent);
  Stopwatch wall;
  std::vector<chunking::Chunk> chunks;
  std::vector<dedup::ChunkDigest> digests;
  std::vector<std::size_t> batch_ends;
  const double chunking_seconds =
      chunk_image(image_id, image, chunks, digests, batch_ends);
  auto stats = dedup_and_ship(image_id, image, std::move(chunks),
                              std::move(digests), std::move(batch_ends),
                              repo.generation_seconds(image.size()),
                              chunking_seconds, agent);
  stats.wall_seconds = wall.elapsed_seconds();
  return stats;
}

std::vector<BackupRunStats> BackupServer::backup_images(
    const std::vector<SnapshotJob>& jobs, const ImageRepository& repo,
    BackupAgent& agent) {
  // The whole batch is refused before any job chunks: a taken id, or one
  // repeated within `jobs`, which its earlier job would take.
  std::unordered_set<std::string> ids;
  for (const auto& job : jobs) {
    refuse_taken_id(job.image_id, agent);
    if (!ids.insert(job.image_id).second) {
      throw retention::RetentionError(
          retention::RetentionViolation::kImageExists,
          "BackupServer: image id repeated within one batch: " +
              job.image_id);
    }
  }
  std::vector<BackupRunStats> all;
  all.reserve(jobs.size());
  if (config_.backend != ChunkerBackend::kSharedService) {
    for (const auto& job : jobs) {
      all.push_back(backup_image(job.image_id, job.image, repo, agent));
    }
    return all;
  }

  // Chunk every snapshot concurrently, one service tenant per image, all
  // multiplexed over the shared device.
  std::vector<std::vector<chunking::Chunk>> chunks(jobs.size());
  std::vector<std::vector<dedup::ChunkDigest>> digests(jobs.size());
  std::vector<std::vector<std::size_t>> batch_ends(jobs.size());
  std::vector<double> chunk_seconds(jobs.size(), 0.0);
  std::vector<double> chunk_wall(jobs.size(), 0.0);
  std::vector<std::exception_ptr> errors(jobs.size());
  std::vector<std::thread> workers;
  workers.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    workers.emplace_back([&, i] {
      try {
        Stopwatch wall;
        chunk_seconds[i] = chunk_image(jobs[i].image_id, jobs[i].image,
                                       chunks[i], digests[i], batch_ends[i]);
        chunk_wall[i] = wall.elapsed_seconds();
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (auto& t : workers) t.join();
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }

  // Dedup/transfer serially in job order so the index walk is deterministic.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto stats = dedup_and_ship(jobs[i].image_id, jobs[i].image,
                                std::move(chunks[i]), std::move(digests[i]),
                                std::move(batch_ends[i]),
                                repo.generation_seconds(jobs[i].image.size()),
                                chunk_seconds[i], agent);
    // Per-image wall = its own (overlapping) chunking time + its dedup pass.
    stats.wall_seconds += chunk_wall[i];
    all.push_back(stats);
  }
  return all;
}

}  // namespace shredder::backup
