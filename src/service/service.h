// Multi-tenant chunking service: one GPU pipeline shared by many client
// streams.
//
// Shredder's premise (paper §3–§5) is that the device chunks far faster than
// any single client produces data, so a dedicated per-stream pipeline leaves
// the GPU idle between buffers. ChunkingService closes that gap: it keeps
// one core::PipelineEngine (pinned ring + kernel thread) alive for the
// process lifetime and multiplexes N concurrent tenant streams over it.
//
// Architecture (docs/service.md has the full design):
//
//   client threads ──submit()──► per-tenant BoundedQueue  (backpressure #1)
//        scheduler thread: weighted-fair pick ──► engine.submit()
//                                  (pinned-slot lease = backpressure #2)
//        engine: kernel thread  (H2D priced; tagged BoundaryBatches), then
//          the Store stage on the same thread: one core::StreamStore per
//          tenant (chunk resolution, sink batches), virtual-time
//          composition, stats
//
// The service runs two threads of its own, the scheduler and the engine's
// kernel thread, beside the simulated device's worker pool.
//
// Each tenant is one engine stream (the engine keeps its Rabin carry across
// buffers, offset and sequence numbers) drained by the same StreamStore a
// Shredder run drives, which keeps every stream's output bit-identical to a
// dedicated core::Shredder::run over the same bytes — the service
// equivalence suite in tests/service_test.cc asserts exactly that.
// With fingerprint_on_device the engine also SHA-256-hashes every chunk on
// the device and tenants receive chunk+digest pairs (tests/fingerprint_test.cc
// holds the digests bit-identical to host dedup::Sha256).
//
// Virtual-time model: every tenant gets a twin pair of GpuTimeline streams
// (double buffering); H2D/compute/D2H ops of all tenants compete for the
// three device engines, and a buffer cannot start its H2D before the
// tenant's modelled channel has delivered it. Aggregate throughput is
// total bytes over the timeline makespan — the number
// ChunkingService.SharingBeatsSerialVirtualThroughput (tests/service_test.cc)
// compares against one tenant alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chunking/chunk.h"
#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "common/queue.h"
#include "common/timer.h"
#include "core/pipeline.h"
#include "core/sink.h"
#include "core/source.h"
#include "dedup/digest.h"
#include "gpusim/device.h"
#include "gpusim/spec.h"
#include "gpusim/timeline.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "rabin/rabin.h"

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
  // Optional metrics registry (borrowed; must outlive the service). Null =>
  // the service owns a private one, reachable via registry(). The service
  // publishes service.* counters and forwards the registry to its pipeline
  // engine (pipeline.* metrics).
  obs::Registry* registry = nullptr;
  // Optional virtual-time tracer (borrowed). When set, the Store stage
  // emits one span per pipeline stage per buffer on the shared engine
  // tracks ("engine/h2d", "engine/compute", "engine/d2h") and per-tenant
  // tracks, plus scheduler credit/queue-depth counter series — Chrome
  // trace-event exportable via obs::Tracer::to_json (docs/observability.md).
  obs::Tracer* tracer = nullptr;

  void validate() const;
};

struct TenantOptions {
  std::string name;          // label for reports; defaults to "tenant-<id>"
  std::uint32_t weight = 1;  // weighted-fair share of device dispatches
  double channel_bw = 0;     // modelled client channel, B/s; 0 = reader_bw
  // Streaming consumer: one ChunkBatchView (chunks and digests) per drained
  // buffer that finalized chunks plus an eos batch, delivered on the
  // engine's kernel thread in stream order. Not owned; must outlive the
  // session. Null = no streaming consumer; the chunks still arrive in the
  // TenantResult.
  ChunkSink* sink = nullptr;
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
  std::vector<TenantReport> tenants;   // in completion order
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

  // Marks the stream complete; no further submits are allowed.
  void finish(StreamId id);

  // Blocks until the stream has fully drained, then returns its chunks and
  // report and frees the session slot. finish() must have been called.
  TenantResult wait(StreamId id);

  // Convenience: feed a whole DataSource as one tenant (open/submit/finish/
  // wait), submitting each DataSource::next view as it comes. Runs on the
  // calling thread; concurrent calls = concurrent tenants.
  TenantResult chunk_stream(core::DataSource& source, TenantOptions opts = {});

  // Waits for all open sessions to complete (every stream must have been
  // finish()ed), stops the pipeline and returns the aggregate report.
  // The service cannot be used afterwards.
  ServiceReport shutdown();

  // The metrics registry the service publishes into: the configured one, or
  // the service-owned fallback. Valid for the service's lifetime. Backup
  // servers driving the service publish their backup.* counters here too.
  obs::Registry& registry() noexcept { return *registry_; }

  const ServiceConfig& config() const noexcept { return config_; }
  const rabin::RabinTables& tables() const noexcept { return tables_; }

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
    double credit = 0;  // dispatches weighted by 1/weight; min credit wins
    bool eos_sent = false;  // guarded by mu_

    // Store side: chunk resolution, chunks/digests and batch delivery to
    // opts.sink (emplaced at open()).
    std::optional<core::StreamStore> store;
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
  // The engine's consumer, both on its kernel thread: store_batch is the
  // Store stage of every tenant, fail records a kernel or Store-stage
  // failure for wait() and shutdown().
  void store_batch(core::BoundaryBatch& batch);
  void fail(std::exception_ptr error);
  // Emits one buffer's stage spans: engine tracks use the exact start/finish
  // the timeline assigned (so Tracer::track_busy("engine/X") equals
  // GpuTimeline::engine_busy by construction), tenant tracks get the
  // client-side reader span and the device-residency span, and the sched
  // track gets credit/queue-depth counter points. Store stage only.
  void trace_batch(const Session& s, const core::BoundaryBatch& batch,
                   double h2d_finish, double kernel_finish, double fp_finish,
                   double d2h_finish);
  void finalize_session(Session& s, std::uint64_t total_bytes);

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
  std::unique_ptr<core::PipelineEngine> engine_;
  const Stopwatch wall_;

  Mutex mu_;  // sessions map, scheduler wakeups, completion
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
  ServiceReport aggregate_;  // Store stage only, until shutdown

  std::thread scheduler_thread_;
};

}  // namespace shredder::service
