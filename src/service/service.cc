#include "service/service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.h"

namespace shredder::service {

void ServiceConfig::validate() const {
  chunker.validate();
  if (buffer_bytes < chunker.window * 2) {
    throw std::invalid_argument("ServiceConfig: buffer_bytes too small");
  }
  if (ring_slots == 0) {
    throw std::invalid_argument("ServiceConfig: ring_slots must be >= 1");
  }
  if (kernel.blocks <= 0 || kernel.threads_per_block <= 0) {
    throw std::invalid_argument("ServiceConfig: bad kernel geometry");
  }
  if (max_tenants == 0) {
    throw std::invalid_argument("ServiceConfig: max_tenants must be >= 1");
  }
  if (tenant_queue_depth == 0) {
    throw std::invalid_argument(
        "ServiceConfig: tenant_queue_depth must be >= 1");
  }
}

ChunkingService::ChunkingService(ServiceConfig config)
    : config_(std::move(config)),
      tables_(config_.chunker.window),
      timeline_(1) {
  config_.validate();
  device_ = std::make_unique<gpu::Device>(config_.device, config_.sim_threads);
  if (config_.registry != nullptr) {
    registry_ = config_.registry;
  } else {
    owned_registry_ = std::make_unique<obs::Registry>();
    registry_ = owned_registry_.get();
  }
  tracer_ = config_.tracer;
  m_bytes_ingested_ = &registry_->counter("service.bytes_ingested_total");
  m_buffers_dispatched_ =
      &registry_->counter("service.buffers_dispatched_total");
  core::PipelineEngineConfig engine_cfg;
  engine_cfg.mode = config_.mode;
  engine_cfg.slot_bytes = config_.buffer_bytes + config_.chunker.window - 1;
  engine_cfg.ring_slots = config_.ring_slots;
  engine_cfg.kernel = config_.kernel;
  engine_cfg.fingerprint = config_.fingerprint_on_device;
  engine_cfg.registry = registry_;
  engine_ = std::make_unique<core::PipelineEngine>(
      engine_cfg, *device_, tables_, config_.chunker,
      core::BatchConsumer{
          [this](core::BoundaryBatch& batch) { store_batch(batch); },
          [this](std::exception_ptr error) { fail(std::move(error)); }});
  aggregate_.init_seconds = engine_->init_seconds();
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
}

ChunkingService::~ChunkingService() {
  bool stopped;
  {
    MutexLock lock(mu_);
    stopped = stopped_;
    if (!stopped) draining_ = true;
  }
  if (!stopped) {
    // Best-effort teardown for services abandoned without shutdown():
    // stop the engine (unblocks a scheduler parked on a slot lease and
    // joins the kernel thread), then join the scheduler.
    sched_cv_.notify_all();
    engine_->stop();
    if (scheduler_thread_.joinable()) scheduler_thread_.join();
  }
}

ChunkingService::StreamId ChunkingService::open(TenantOptions opts) {
  MutexLock lock(mu_);
  if (draining_ || stopped_) {
    throw std::runtime_error("ChunkingService: open after shutdown");
  }
  if (open_sessions_ >= config_.max_tenants) {
    throw std::runtime_error("ChunkingService: tenant capacity reached");
  }
  if (opts.weight == 0) {
    throw std::invalid_argument("ChunkingService: weight must be >= 1");
  }
  auto session = std::make_unique<Session>();
  const StreamId id = next_id_++;
  session->id = id;
  // A newcomer starts at the minimum credit among active sessions (virtual-
  // time normalization): starting at 0 would let it monopolize the device
  // until it caught up with long-running incumbents.
  double min_credit = 0;
  bool have_active = false;
  for (const auto& [sid, existing] : sessions_) {
    if (existing->complete) continue;
    min_credit = have_active ? std::min(min_credit, existing->credit)
                             : existing->credit;
    have_active = true;
  }
  session->credit = have_active ? min_credit : 0.0;
  session->channel_bw =
      opts.channel_bw > 0 ? opts.channel_bw : config_.host.reader_bw;
  session->queue =
      std::make_unique<BoundedQueue<PendingBuffer>>(config_.tenant_queue_depth);
  session->report.stream_id = id;
  if (opts.name.empty()) {
    session->report.name = "tenant-";
    session->report.name += std::to_string(id);
  } else {
    session->report.name = opts.name;
  }
  session->report.weight = opts.weight;
  session->opts = std::move(opts);
  session->store.emplace(*engine_, id, session->opts.sink);
  sessions_.emplace(id, std::move(session));
  ++open_sessions_;
  ++aggregate_.n_tenants;
  return id;
}

ChunkingService::Session* ChunkingService::find_session(StreamId id) {
  MutexLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("ChunkingService: unknown stream id");
  }
  return it->second.get();
}

void ChunkingService::enqueue_payload(Session& s, ByteVec payload) {
  PendingBuffer pending;
  pending.reader_seconds =
      static_cast<double>(payload.size()) / s.channel_bw;
  pending.payload = std::move(payload);
  m_bytes_ingested_->add(pending.payload.size());
  if (!s.queue->push(std::move(pending))) {
    throw std::runtime_error("ChunkingService: stream closed during submit");
  }
  const std::size_t depth = s.queue->size();
  std::size_t seen = s.max_depth.load(std::memory_order_relaxed);
  while (depth > seen &&
         !s.max_depth.compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
  }
  {
    MutexLock lock(mu_);
  }
  sched_cv_.notify_one();
}

void ChunkingService::submit(StreamId id, ByteSpan data) {
  Session& s = *find_session(id);
  {
    MutexLock lock(mu_);
    if (s.finishing) {
      throw std::logic_error("ChunkingService: submit after finish");
    }
  }
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t take =
        std::min(config_.buffer_bytes - s.staging.size(), data.size() - pos);
    s.staging.insert(s.staging.end(), data.begin() + pos,
                     data.begin() + pos + take);
    pos += take;
    if (s.staging.size() == config_.buffer_bytes) {
      ByteVec payload;
      payload.swap(s.staging);
      enqueue_payload(s, std::move(payload));
    }
  }
}

void ChunkingService::finish(StreamId id) {
  Session& s = *find_session(id);
  {
    MutexLock lock(mu_);
    if (s.finishing) return;  // idempotent
  }
  if (!s.staging.empty()) {
    ByteVec payload;
    payload.swap(s.staging);
    enqueue_payload(s, std::move(payload));
  }
  {
    MutexLock lock(mu_);
    s.finishing = true;
  }
  sched_cv_.notify_one();
}

TenantResult ChunkingService::wait(StreamId id) {
  MutexLock lock(mu_);
  const auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    throw std::invalid_argument("ChunkingService: unknown stream id");
  }
  Session* s = it->second.get();
  while (!s->complete && !store_error_) complete_cv_.wait(mu_);
  if (store_error_ && !s->complete) {
    std::rethrow_exception(store_error_);
  }
  TenantResult result;
  result.report = std::move(s->report);
  result.chunks = s->store->take_chunks();
  result.digests = s->store->take_digests();
  // Erase by key: a concurrent open() may have rehashed sessions_ while the
  // wait above had mu_ released, invalidating `it`.
  sessions_.erase(id);
  --open_sessions_;
  return result;
}

TenantResult ChunkingService::chunk_stream(core::DataSource& source,
                                           TenantOptions opts) {
  const StreamId id = open(std::move(opts));
  for (;;) {
    const ByteSpan view = source.next(config_.buffer_bytes);
    if (view.empty()) break;
    submit(id, view);
  }
  finish(id);
  return wait(id);
}

ChunkingService::Session* ChunkingService::pick_locked(bool* send_eos) {
  Session* best = nullptr;
  Session* eos_candidate = nullptr;
  for (auto& [id, session] : sessions_) {
    Session* s = session.get();
    if (s->queue->size() > 0) {
      if (best == nullptr || s->credit < best->credit) best = s;
    } else if (s->finishing && !s->eos_sent) {
      if (eos_candidate == nullptr) eos_candidate = s;
    }
  }
  if (best != nullptr) {
    *send_eos = false;
    // Charge the dispatch here, under mu_, so open() can read credits when
    // normalizing a newcomer.
    best->credit += 1.0 / static_cast<double>(best->report.weight);
    return best;
  }
  if (eos_candidate != nullptr) {
    *send_eos = true;
    eos_candidate->eos_sent = true;
    return eos_candidate;
  }
  return nullptr;
}

void ChunkingService::dispatch(Session& s, bool send_eos) {
  core::StreamBuffer sb;
  sb.stream_id = s.id;
  if (send_eos) {
    sb.eos = true;
    engine_->submit(sb);
    return;
  }
  auto pending = s.queue->try_pop();
  SHREDDER_CHECK_MSG(pending.has_value(),
                     "ChunkingService: scheduler raced an empty queue");
  sb.payload = pending->payload;
  sb.reader_seconds = pending->reader_seconds;
  // Scheduler context rides with the buffer so the Store stage can stamp
  // credit/queue-depth trace points at the buffer's virtual time. Both are
  // scheduler-thread state: credit was charged in pick_locked, the queue
  // only shrinks from this thread.
  sb.sched_credit = s.credit;
  sb.queue_depth = static_cast<std::uint32_t>(s.queue->size());
  m_buffers_dispatched_->add(1);
  engine_->submit(sb);
}

void ChunkingService::scheduler_loop() {
  for (;;) {
    Session* pick = nullptr;
    bool send_eos = false;
    {
      MutexLock lock(mu_);
      for (;;) {
        pick = pick_locked(&send_eos);
        if (pick != nullptr) break;
        if (draining_) return;
        sched_cv_.wait(mu_);
      }
    }
    // Dispatch outside the lock: engine_->submit may block on a slot lease,
    // and the Store stage on the kernel thread needs mu_ to make progress
    // meanwhile.
    dispatch(*pick, send_eos);
  }
}

void ChunkingService::store_batch(core::BoundaryBatch& batch) {
  Session* s;
  {
    MutexLock lock(mu_);
    const auto it = sessions_.find(batch.stream_id);
    SHREDDER_CHECK_MSG(it != sessions_.end(),
                       "ChunkingService: batch for unknown session");
    s = it->second.get();
  }
  const double store_seconds = s->store->consume(batch);
  if (batch.eos) {
    // The trailing chunk's digest still crosses the bus: extend the
    // tenant's timeline with its D2H before closing the session.
    if (!batch.digests.empty() &&
        s->tl_base != static_cast<std::size_t>(-1)) {
      s->last_finish_v = timeline_.enqueue(
          s->tl_base + static_cast<std::size_t>(batch.seq % 2),
          gpu::EngineKind::kCopyD2H, store_seconds);
      s->report.stage_totals.store += store_seconds;
      if (tracer_ != nullptr) {
        tracer_->span("engine/d2h", "trailing_digest_d2h",
                      s->last_finish_v - store_seconds, s->last_finish_v,
                      {{"tenant", s->report.name},
                       {"seq", std::to_string(batch.seq)}});
      }
    }
    if (tracer_ != nullptr) {
      tracer_->instant("tenant/" + s->report.name, "eos", s->last_finish_v);
    }
    finalize_session(*s, batch.payload_end);
    return;
  }

  // Virtual-time composition: the tenant's twin timeline streams model
  // per-stream double buffering; the three engines are shared. The hash
  // kernel is a second compute-engine op right after the chunk kernel —
  // it overlaps the next buffer's H2D exactly like compute always has.
  if (s->tl_base == static_cast<std::size_t>(-1)) {
    s->tl_base = timeline_.add_stream();
    timeline_.add_stream();
  }
  s->ready_v += batch.stages.reader;
  const std::size_t tl_stream =
      s->tl_base + static_cast<std::size_t>(batch.seq % 2);
  const double h2d_finish =
      timeline_.enqueue(tl_stream, gpu::EngineKind::kCopyH2D,
                        batch.stages.transfer, s->ready_v);
  if (s->report.n_buffers == 0) {
    s->first_start_v = h2d_finish - batch.stages.transfer;
  }
  const double kernel_finish = timeline_.enqueue(
      tl_stream, gpu::EngineKind::kCompute, batch.stages.kernel);
  double fp_finish = kernel_finish;
  if (batch.stages.fingerprint > 0) {
    fp_finish = timeline_.enqueue(tl_stream, gpu::EngineKind::kCompute,
                                  batch.stages.fingerprint);
  }
  s->last_finish_v = timeline_.enqueue(tl_stream, gpu::EngineKind::kCopyD2H,
                                       batch.stages.store);
  if (tracer_ != nullptr) {
    trace_batch(*s, batch, h2d_finish, kernel_finish, fp_finish,
                s->last_finish_v);
  }

  auto& r = s->report;
  r.n_buffers += 1;
  r.raw_boundaries += batch.boundaries.size();
  r.stage_totals += batch.stages;
  MutexLock lock(mu_);
  aggregate_.n_buffers += 1;
}

void ChunkingService::fail(std::exception_ptr error) {
  // Fail the whole service: wake producers blocked in submit() (their
  // queue push fails), let the scheduler drain out, and surface the error
  // from wait()/shutdown(). The engine has already stopped taking buffers.
  MutexLock lock(mu_);
  store_error_ = std::move(error);
  draining_ = true;
  for (auto& [id, session] : sessions_) session->queue->close();
  sched_cv_.notify_all();
  complete_cv_.notify_all();
}

void ChunkingService::trace_batch(const Session& s,
                                  const core::BoundaryBatch& batch,
                                  double h2d_finish, double kernel_finish,
                                  double fp_finish, double d2h_finish) {
  const obs::Labels args{{"tenant", s.report.name},
                         {"seq", std::to_string(batch.seq)}};
  // Engine tracks: exact [finish - duration, finish) intervals from the
  // timeline, so summed track busy == GpuTimeline::engine_busy.
  const double h2d_start = h2d_finish - batch.stages.transfer;
  tracer_->span("engine/h2d", "h2d", h2d_start, h2d_finish, args);
  tracer_->span("engine/compute", "chunk_kernel",
                kernel_finish - batch.stages.kernel, kernel_finish, args);
  if (batch.stages.fingerprint > 0) {
    tracer_->span("engine/compute", "fingerprint_kernel",
                  fp_finish - batch.stages.fingerprint, fp_finish, args);
  }
  tracer_->span("engine/d2h", "store_d2h", d2h_finish - batch.stages.store,
                d2h_finish, args);
  // Tenant track: the client-side produce interval and the buffer's device
  // residency (H2D start through boundary readback).
  const std::string tenant_track = "tenant/" + s.report.name;
  tracer_->span(tenant_track, "reader", s.ready_v - batch.stages.reader,
                s.ready_v, args);
  tracer_->span(tenant_track, "buffer", h2d_start, d2h_finish, args);
  // Scheduler series, stamped when the buffer reached the device: credit
  // after the dispatch charge, queue depth right after the pop.
  const std::string sched_track = "sched/" + s.report.name;
  tracer_->counter(sched_track, "credit", h2d_start, batch.sched_credit);
  tracer_->counter(sched_track, "queue_depth", h2d_start,
                   static_cast<double>(batch.queue_depth));
}

void ChunkingService::finalize_session(Session& s, std::uint64_t total_bytes) {
  auto& r = s.report;
  r.total_bytes = total_bytes;
  r.n_chunks = s.store->chunks().size();
  r.max_queue_depth = s.max_depth.load(std::memory_order_relaxed);
  r.virtual_start_seconds = s.first_start_v;
  r.virtual_finish_seconds = s.last_finish_v;
  r.virtual_seconds = s.last_finish_v - s.first_start_v;
  r.virtual_throughput_bps =
      r.virtual_seconds > 0
          ? static_cast<double>(total_bytes) / r.virtual_seconds
          : 0.0;
  {
    MutexLock lock(mu_);
    aggregate_.total_bytes += total_bytes;
    aggregate_.tenants.push_back(r);  // summary copy; chunks stay in session
    s.complete = true;
  }
  complete_cv_.notify_all();
}

ServiceReport ChunkingService::shutdown() {
  {
    MutexLock lock(mu_);
    if (stopped_) {
      throw std::logic_error("ChunkingService: shutdown called twice");
    }
    // Every open session must have been finish()ed; wait for completion.
    for (auto& [id, session] : sessions_) {
      if (!session->finishing) {
        std::string msg = "ChunkingService: shutdown with unfinished stream ";
        msg += std::to_string(id);
        throw std::logic_error(msg);
      }
    }
    for (;;) {
      bool done = store_error_ != nullptr;
      if (!done) {
        done = true;
        for (auto& [id, session] : sessions_) {
          if (!session->complete) {
            done = false;
            break;
          }
        }
      }
      if (done) break;
      complete_cv_.wait(mu_);
    }
    draining_ = true;
  }
  sched_cv_.notify_all();
  scheduler_thread_.join();
  {
    MutexLock lock(mu_);
    stopped_ = true;
  }
  engine_->drain();  // rethrows a kernel or Store-stage failure

  ServiceReport report = std::move(aggregate_);
  report.virtual_seconds = timeline_.makespan();
  report.aggregate_throughput_bps =
      report.virtual_seconds > 0
          ? static_cast<double>(report.total_bytes) / report.virtual_seconds
          : 0.0;
  report.h2d_busy_seconds = timeline_.engine_busy(gpu::EngineKind::kCopyH2D);
  report.compute_busy_seconds =
      timeline_.engine_busy(gpu::EngineKind::kCompute);
  report.d2h_busy_seconds = timeline_.engine_busy(gpu::EngineKind::kCopyD2H);
  report.device_occupancy =
      report.virtual_seconds > 0
          ? report.compute_busy_seconds / report.virtual_seconds
          : 0.0;
  report.wall_seconds = wall_.elapsed_seconds();
  return report;
}

}  // namespace shredder::service
