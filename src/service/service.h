// Multi-tenant chunking service: one GPU pipeline shared by many client
// streams.
//
// Shredder's premise (paper §3–§5) is that the device chunks far faster than
// any single client produces data, so a dedicated per-stream pipeline leaves
// the GPU idle between buffers. ChunkingService closes that gap: it keeps
// one core::PipelineEngine (pinned ring + device twins + kernel) alive for
// the process lifetime and multiplexes N concurrent tenant streams over it.
//
// Architecture (docs/service.md has the full design):
//
//   client threads ──submit()──► per-tenant BoundedQueue  (backpressure #1)
//        scheduler thread: weighted-fair pick ──► engine.submit()
//                                  (pinned-slot lease = backpressure #2)
//        engine: transfer thread ─► kernel thread  (tagged BoundaryBatches)
//        store thread: per-tenant min/max splice, chunk upcalls, stats
//
// Per-tenant session state (Rabin carry across buffers, min/max filter,
// sequence numbers) keeps every stream's output bit-identical to a dedicated
// core::Shredder::run over the same bytes — the service equivalence suite in
// tests/service_test.cc asserts exactly that. With fingerprint_on_device the
// engine also SHA-256-hashes every chunk on the device and tenants receive
// chunk+digest pairs (tests/fingerprint_test.cc holds the digests
// bit-identical to host dedup::Sha256).
//
// Virtual-time model: every tenant gets a twin pair of GpuTimeline streams
// (double buffering); H2D/compute/D2H ops of all tenants compete for the
// three device engines, and a buffer cannot start its H2D before the
// tenant's modelled channel has delivered it. Aggregate throughput is
// total bytes over the timeline makespan — the number BENCH_service.json
// tracks against the single-stream baseline.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chunking/chunk.h"
#include "chunking/minmax.h"
#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/sink.h"
#include "dedup/index.h"
#include "dedup/store.h"
#include "core/source.h"
#include "gpusim/device.h"
#include "gpusim/spec.h"
#include "gpusim/timeline.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rabin/rabin.h"
#include "retention/retention.h"

namespace shredder::service {

struct ServiceConfig {
  chunking::ChunkerConfig chunker;
  std::size_t buffer_bytes = 32ull * 1024 * 1024;  // device dispatch unit
  core::GpuMode mode = core::GpuMode::kStreamsCoalesced;
  core::KernelParams kernel;
  std::size_t ring_slots = 4;
  gpu::DeviceSpec device;
  gpu::HostSpec host;
  std::size_t sim_threads = 0;     // host threads simulating the GPU
  std::size_t max_tenants = 64;    // concurrent session cap (admission)
  std::size_t tenant_queue_depth = 4;  // per-tenant buffers awaiting dispatch
  // Run the engine's on-device fingerprint stage for every tenant: chunks
  // arrive with device-computed SHA-256 digests (bit-identical to host
  // dedup::Sha256), delivered in each tenant sink's batches and in
  // TenantResult::digests.
  bool fingerprint_on_device = false;
  // Deduplicate every tenant's chunks inline on the store thread against one
  // service-wide fingerprint index (cross-tenant dedup): per-chunk
  // lookup_or_insert keyed by the device digest, duplicate counters and
  // modelled index time reported per tenant. Requires fingerprint_on_device
  // (the index consumes the device digests). The backend — paper-baseline
  // map or ChunkStash-style sparse index — is picked by `index.kind`; the
  // sparse backend's container prefetch cache is keyed per tenant stream.
  //
  // With dedup_on_store the service is a full backup target: unique chunk
  // payloads land in a shared content-addressed ChunkStore (duplicates add a
  // reference), per-tenant stored_bytes and ServiceReport totals track what
  // each stream contributed, and tenant sinks receive payload views.
  bool dedup_on_store = false;
  dedup::IndexConfig index;
  // The chunk store backing dedup_on_store. Leave null for a service-owned
  // instance; pass one in to share a store across services (the index stays
  // per service, so cross-service duplicates are caught by the store's own
  // digest keying). Ignored — and rejected — without dedup_on_store.
  std::shared_ptr<dedup::ChunkStore> store;
  // Bound on the retained per-tenant transport health reports (oldest
  // evicted); see report_transport_health below.
  std::size_t transport_health_capacity = 1024;
  // Optional metrics registry (borrowed; must outlive the service). Null =>
  // the service owns a private one, reachable via registry(). The service
  // publishes service.* counters, forwards the registry to its pipeline
  // engine (pipeline.* metrics) and aggregates transport-health verdicts
  // through it (see ServiceHealth).
  obs::Registry* registry = nullptr;
  // Optional virtual-time tracer (borrowed). When set, the store thread
  // emits one span per pipeline stage per buffer on the shared engine
  // tracks ("engine/h2d", "engine/compute", "engine/d2h") and per-tenant
  // tracks, plus scheduler credit/queue-depth counter series — Chrome
  // trace-event exportable via obs::Tracer::to_json (docs/observability.md).
  obs::Tracer* tracer = nullptr;

  void validate() const;
};

// Per-tenant overrides for the backup transport a server uses when shipping
// this tenant's snapshots (backup/transport.h). Plain values only — the
// service sits below the backup layer, so this is a registry of knobs, not
// of backup types. Sentinels mean "keep the server default": 0 for the
// counts/timeouts/seed, negative for the rates.
struct TenantTransport {
  std::size_t window_frames = 0;  // sender window override; 0 = default
  double rto_s = 0;               // initial RTO override; 0 = default
  double agent_apply_bw = -1;     // agent apply bandwidth; <0 = default
  // FaultModel probabilities; <0 = keep default.
  double drop = -1;
  double reorder = -1;
  double duplicate = -1;
  double delay = -1;
  double stall = -1;
  std::uint64_t fault_seed = 0;   // 0 = default
};

// One snapshot's transport health as reported back by a backup server:
// enough to spot the degraded agents in a fleet without holding backup-layer
// stats types here.
struct TenantTransportHealth {
  std::string tenant;
  std::uint64_t frames_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t repairs = 0;      // repair-data frames the server served
  double stall_seconds = 0;       // sender time spent window-blocked
  double link_seconds = 0;        // transport makespan
  bool degraded = false;
};

// Unified live-health roll-up, readable at any time via
// ChunkingService::health(). Every count is aggregated from the metrics
// registry (summed across label sets with Registry::counter_sum), so the
// verdict and the exported metrics can never disagree. Absorbs the old
// ad-hoc degraded_agents tally: `degraded_agents` here and in the shutdown
// report both read the service.transport_degraded_total counter.
struct ServiceHealth {
  std::size_t open_sessions = 0;
  std::uint64_t buffers_dispatched = 0;   // service.buffers_dispatched_total
  std::uint64_t bytes_ingested = 0;       // service.bytes_ingested_total
  std::uint64_t transport_reports = 0;    // service.transport_reports_total
  std::uint64_t degraded_agents = 0;      // service.transport_degraded_total
  std::uint64_t transport_retransmits = 0;  // ...transport_retransmits_total
  std::uint64_t transport_repairs = 0;      // ...transport_repairs_total

  bool healthy() const noexcept { return degraded_agents == 0; }
};

struct TenantOptions {
  std::string name;          // label for reports; defaults to "tenant-<id>"
  std::uint32_t weight = 1;  // weighted-fair share of device dispatches
  double channel_bw = 0;     // modelled client channel, B/s; 0 = reader_bw
  // Streaming consumer: one ChunkBatchView per drained buffer that
  // finalized chunks plus an eos batch, delivered on the store thread in
  // stream order. Not owned; must outlive the session. Payload views ride
  // whenever the sink wants_payload() (per-session retention is a
  // refcounted slot lease, core/lease.h — no copy, so any tenant may ask,
  // including ones opened mid-run) or the service stores payloads
  // (dedup_on_store). Null = no streaming consumer; the chunks still
  // arrive in the TenantResult.
  ChunkSink* sink = nullptr;
  // Snapshot identity for retention (dedup_on_store services only). When
  // set, the session's ordered digest list is recorded as a chunk manifest
  // under (name, image_id) once the stream completes, making the snapshot
  // deletable via delete_image(). Empty = the stream leaves no manifest
  // (its store references are then permanent until the service dies).
  std::string image_id;
};

// Per-tenant statistics, final after the session completes.
struct TenantReport {
  std::uint32_t stream_id = 0;
  std::string name;
  std::uint32_t weight = 1;
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;
  std::uint64_t raw_boundaries = 0;
  std::uint64_t n_chunks = 0;
  core::StageSeconds stage_totals;  // summed virtual stage durations
  // Virtual timestamps of this tenant's first device-op start and last
  // device-op finish on the shared timeline, the duration between them
  // (what a dedicated run's makespan corresponds to) and the stream
  // throughput it implies (bytes / virtual_seconds).
  double virtual_start_seconds = 0;
  double virtual_finish_seconds = 0;
  double virtual_seconds = 0;
  double virtual_throughput_bps = 0;
  std::size_t max_queue_depth = 0;  // backpressure high-water mark

  // Inline-dedup counters (dedup_on_store mode): chunks of this stream that
  // were already in the shared index, the modelled index time this stream's
  // probes consumed, and the unique payload bytes this stream added to the
  // shared chunk store.
  std::uint64_t n_duplicate_chunks = 0;
  std::uint64_t duplicate_bytes = 0;
  std::uint64_t stored_bytes = 0;
  double index_seconds = 0;
};

struct TenantResult {
  TenantReport report;
  std::vector<chunking::Chunk> chunks;  // the stream's final chunking
  // One device digest per chunk when the service fingerprints on-device.
  std::vector<dedup::ChunkDigest> digests;
};

// Aggregate service report, produced by shutdown().
struct ServiceReport {
  std::uint64_t total_bytes = 0;
  std::uint64_t n_buffers = 0;
  std::size_t n_tenants = 0;           // sessions admitted over the lifetime
  double virtual_seconds = 0;          // timeline makespan over all tenants
  double aggregate_throughput_bps = 0;
  double h2d_busy_seconds = 0;
  double compute_busy_seconds = 0;
  double d2h_busy_seconds = 0;
  double device_occupancy = 0;         // compute-engine busy fraction
  double init_seconds = 0;             // one-time pinned-ring construction
  double wall_seconds = 0;             // real host time the service ran
  // Shared-index totals (dedup_on_store mode).
  std::uint64_t dedup_unique_chunks = 0;
  std::uint64_t dedup_duplicate_chunks = 0;
  std::uint64_t dedup_stored_bytes = 0;  // payload bytes added to the store
  double index_virtual_seconds = 0;
  std::vector<TenantReport> tenants;   // in completion order
  // Backup-transport health reports received over the service lifetime and
  // how many of them crossed a degraded threshold.
  std::vector<TenantTransportHealth> transport;
  std::size_t degraded_agents = 0;
  // Final registry-backed health roll-up (same counters health() reads).
  ServiceHealth health;
};

class ChunkingService {
 public:
  using StreamId = std::uint32_t;

  // Throws std::invalid_argument on bad configuration.
  explicit ChunkingService(ServiceConfig config);
  ~ChunkingService();

  ChunkingService(const ChunkingService&) = delete;
  ChunkingService& operator=(const ChunkingService&) = delete;

  // Admits a new tenant stream. Throws std::runtime_error when
  // max_tenants sessions are currently open or the service is shut down.
  StreamId open(TenantOptions opts = {});

  // Appends bytes to the stream. Each stream is single-producer: one thread
  // per StreamId (different streams may submit concurrently). Blocks while
  // the tenant's dispatch queue is full — the backpressure the paper's SAN
  // reader would exert on its producer.
  void submit(StreamId id, ByteSpan data);

  // Non-blocking submit: returns false (consuming nothing) if the bytes
  // would have to wait on a full dispatch queue.
  bool try_submit(StreamId id, ByteSpan data);

  // Marks the stream complete; no further submits are allowed.
  void finish(StreamId id);

  // Blocks until the stream has fully drained, then returns its chunks and
  // report and frees the session slot. finish() must have been called.
  TenantResult wait(StreamId id);

  // Convenience: feed a whole DataSource as one tenant (open/submit/finish/
  // wait). Runs on the calling thread; concurrent calls = concurrent tenants.
  TenantResult chunk_stream(core::DataSource& source, TenantOptions opts = {});

  // Waits for all open sessions to complete (every stream must have been
  // finish()ed), stops the pipeline and returns the aggregate report.
  // The service cannot be used afterwards.
  ServiceReport shutdown();

  // --- per-tenant backup-transport registry -------------------------------
  // Backup servers driving this service consult the registry before opening
  // a transport to a tenant's agent, and report each snapshot's transport
  // health afterwards (bounded history; degraded agents are aggregated into
  // the shutdown report). Thread-safe against concurrent snapshots.
  void set_tenant_transport(const std::string& tenant,
                            const TenantTransport& transport);
  std::optional<TenantTransport> tenant_transport(
      const std::string& tenant) const;
  void report_transport_health(TenantTransportHealth health);
  std::vector<TenantTransportHealth> transport_health() const;

  // The metrics registry the service publishes into: the configured one, or
  // the service-owned fallback. Valid for the service's lifetime.
  obs::Registry& registry() noexcept { return *registry_; }
  // Live health roll-up aggregated from the registry; thread-safe, callable
  // at any point of the service lifecycle.
  ServiceHealth health() const;

  const ServiceConfig& config() const noexcept { return config_; }
  const rabin::RabinTables& tables() const noexcept { return tables_; }
  // The shared inline-dedup index; nullptr unless dedup_on_store is set.
  const dedup::IndexBackend* dedup_index() const noexcept {
    return index_.get();
  }
  // The shared chunk store holding unique payloads; nullptr unless
  // dedup_on_store is set.
  const dedup::ChunkStore* chunk_store() const noexcept {
    return store_.get();
  }

  // --- snapshot retention (dedup_on_store mode) ---------------------------
  // The retention manager over the shared chunk store (manifests, GC,
  // compaction); nullptr unless dedup_on_store. Sessions opened with
  // TenantOptions::image_id record their manifests here.
  retention::RetentionManager* retention() noexcept { return retention_.get(); }
  const retention::RetentionManager* retention() const noexcept {
    return retention_.get();
  }

  // Per-tenant snapshot delete: walks the manifest recorded under
  // (tenant, image) — the tenant's name and its TenantOptions::image_id —
  // releasing one shared-store reference per chunk occurrence. Safe against
  // concurrent sessions: every open session holds a GC pin, and the dedup
  // path self-heals stale index hits. Throws std::logic_error without
  // dedup_on_store, retention::RetentionError for unknown / in-progress /
  // double deletes.
  retention::RetentionManager::DeleteStats delete_image(
      const std::string& tenant, const std::string& image);

 private:
  struct PendingBuffer {
    ByteVec payload;
    double reader_seconds = 0;
  };

  struct Session {
    StreamId id = 0;
    TenantOptions opts;
    double channel_bw = 0;

    // Client side (single producer).
    ByteVec staging;  // partial buffer accumulating towards buffer_bytes
    std::unique_ptr<BoundedQueue<PendingBuffer>> queue;
    std::atomic<std::size_t> max_depth{0};
    bool finishing = false;  // guarded by mu_

    // Scheduler side.
    ByteVec carry;  // last w-1 payload bytes, window context for next buffer
    std::uint64_t dispatched_bytes = 0;
    std::uint64_t seq = 0;
    double credit = 0;  // dispatches weighted by 1/weight; min credit wins
    bool eos_sent = false;  // guarded by mu_

    // Store side.
    std::unique_ptr<chunking::MinMaxFilter> filter;
    std::uint64_t last_end = 0;
    std::vector<chunking::Chunk> chunks;
    std::vector<dedup::ChunkDigest> digests;  // fingerprint mode, 1:1 chunks
    // GC pin held for the session's whole dedup walk (dedup_on_store): a
    // concurrent gc() must not free a chunk between this stream's index hit
    // and its add_ref. Released by finalize_session.
    retention::RetentionManager::Pin pin;
    // Batch delivery to opts.sink: the delivered-batch ordinal, and — when
    // the session retains payloads — the rolling lease window from which
    // chunk payloads are sliced. `retain` is fixed at open(): dedup_on_store
    // services always retain (the store slices unique chunks), otherwise
    // only sessions whose sink wants_payload(). The tail runs with slot
    // cap 0 so no tenant parks pinned slots across batches — N sessions
    // each holding under-cap leases could otherwise starve the shared ring.
    std::uint64_t batch_seq = 0;
    bool retain = false;
    PayloadTail tail;
    TenantReport report;
    double ready_v = 0;         // cumulative modelled client-produce time
    double first_start_v = 0;   // start of the first H2D on the timeline
    double last_finish_v = 0;   // finish time of the latest device op
    std::size_t tl_base = static_cast<std::size_t>(-1);  // twin stream pair
    bool complete = false;  // guarded by mu_
  };

  Session* find_session(StreamId id);
  void enqueue_payload(Session& s, ByteVec payload);
  Session* pick_locked(bool* send_eos) REQUIRES(mu_);
  void dispatch(Session& s, bool send_eos);
  void scheduler_loop();
  void store_loop();
  // Emits one buffer's stage spans: engine tracks use the exact start/finish
  // the timeline assigned (so Tracer::track_busy("engine/X") equals
  // GpuTimeline::engine_busy by construction), tenant tracks get the
  // client-side reader span and the device-residency span, and the sched
  // track gets credit/queue-depth counter points. Store thread only.
  void trace_batch(const Session& s, const core::BoundaryBatch& batch,
                   double h2d_finish, double kernel_finish, double fp_finish,
                   double d2h_finish, double index_seconds);
  // Adds the IndexStats movement since `before` to the index.* counters.
  void publish_index_delta(const dedup::IndexStats& before);
  void deliver_batch(Session& s, std::size_t first, bool eos);
  void finalize_session(Session& s, std::uint64_t total_bytes,
                        std::size_t batch_first);

  ServiceConfig config_;
  rabin::RabinTables tables_;
  std::unique_ptr<gpu::Device> device_;
  // Observability: registry_ always points at a live registry (config's or
  // the owned fallback); tracer_ may be null. Hot-path counters are resolved
  // once here, not per buffer.
  std::unique_ptr<obs::Registry> owned_registry_;
  obs::Registry* registry_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_bytes_ingested_ = nullptr;
  obs::Counter* m_buffers_dispatched_ = nullptr;
  obs::Counter* m_transport_reports_ = nullptr;
  obs::Counter* m_transport_degraded_ = nullptr;
  obs::Counter* m_transport_retx_ = nullptr;
  obs::Counter* m_transport_repairs_ = nullptr;
  std::unique_ptr<core::PipelineEngine> engine_;
  // Shared inline-dedup state, store thread only (dedup_on_store mode).
  std::unique_ptr<dedup::IndexBackend> index_;
  std::shared_ptr<dedup::ChunkStore> store_;
  std::unique_ptr<retention::RetentionManager> retention_;
  std::uint64_t next_store_offset_ = 0;
  const Stopwatch wall_;

  // Backup-transport registry + health history (own lock: touched by backup
  // servers around snapshots, never on the chunking hot path).
  mutable Mutex transport_mu_;
  std::unordered_map<std::string, TenantTransport> tenant_transports_
      GUARDED_BY(transport_mu_);
  std::deque<TenantTransportHealth> transport_health_
      GUARDED_BY(transport_mu_);

  mutable Mutex mu_;  // sessions map, scheduler wakeups, completion
  CondVar sched_cv_;
  CondVar complete_cv_;
  std::unordered_map<StreamId, std::unique_ptr<Session>> sessions_
      GUARDED_BY(mu_);
  StreamId next_id_ GUARDED_BY(mu_) = 1;
  std::size_t open_sessions_ GUARDED_BY(mu_) = 0;
  bool draining_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
  std::exception_ptr store_error_ GUARDED_BY(mu_);

  gpu::GpuTimeline timeline_;
  ServiceReport aggregate_;  // store thread only, until shutdown

  std::thread scheduler_thread_;
  std::thread store_thread_;
};

}  // namespace shredder::service
