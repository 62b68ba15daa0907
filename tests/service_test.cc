// Tests for the multi-tenant ChunkingService: the service equivalence suite
// (K interleaved streams must be bit-identical to K dedicated Shredder runs),
// backpressure behaviour, weighted fairness, admission control and reports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "chunking/cdc.h"
#include "common/rng.h"
#include "core/shredder.h"
#include "service/service.h"

namespace shredder::service {
namespace {

chunking::ChunkerConfig small_chunker() {
  chunking::ChunkerConfig c;
  c.window = 16;
  c.mask_bits = 8;
  c.marker = 0x42;
  return c;
}

ServiceConfig small_service_config() {
  ServiceConfig cfg;
  cfg.chunker = small_chunker();
  cfg.buffer_bytes = 64 * 1024;
  cfg.kernel.blocks = 8;
  cfg.kernel.threads_per_block = 16;
  cfg.sim_threads = 4;
  return cfg;
}

core::ShredderConfig matching_shredder_config(const ServiceConfig& cfg) {
  core::ShredderConfig scfg;
  scfg.chunker = cfg.chunker;
  scfg.buffer_bytes = cfg.buffer_bytes;
  scfg.mode = cfg.mode;
  scfg.kernel = cfg.kernel;
  scfg.ring_slots = cfg.ring_slots;
  scfg.device = cfg.device;
  scfg.host = cfg.host;
  scfg.sim_threads = cfg.sim_threads;
  return scfg;
}

// Dedicated single-stream reference for one tenant's bytes.
std::vector<chunking::Chunk> dedicated_chunks(const ServiceConfig& cfg,
                                              ByteSpan data) {
  core::Shredder shredder(matching_shredder_config(cfg));
  return shredder.run(data).chunks;
}

// --- The service equivalence suite -----------------------------------------

struct EquivalenceCase {
  core::GpuMode mode;
  std::size_t buffer_bytes;
  std::size_t n_streams;
  std::uint64_t min_size;
  std::uint64_t max_size;
};

class ServiceEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(ServiceEquivalence, InterleavedStreamsMatchDedicatedRuns) {
  const auto p = GetParam();
  ServiceConfig cfg = small_service_config();
  cfg.mode = p.mode;
  cfg.buffer_bytes = p.buffer_bytes;
  cfg.chunker.min_size = p.min_size;
  cfg.chunker.max_size = p.max_size;

  // Distinct payload per tenant, deliberately not a multiple of buffer_bytes.
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < p.n_streams; ++k) {
    payloads.push_back(random_bytes(150000 + 37831 * k, 100 + k));
  }

  ChunkingService svc(cfg);
  std::vector<ChunkingService::StreamId> ids;
  for (std::size_t k = 0; k < p.n_streams; ++k) {
    TenantOptions opts;
    opts.name = "t";
    opts.name += std::to_string(k);
    ids.push_back(svc.open(std::move(opts)));
  }

  // Interleave ragged slices of every stream through the shared pipeline.
  std::vector<std::size_t> pos(p.n_streams, 0);
  SplitMix64 rng(7);
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t k = 0; k < p.n_streams; ++k) {
      if (pos[k] >= payloads[k].size()) continue;
      const std::size_t n = std::min<std::size_t>(
          1 + rng.next_below(3 * cfg.buffer_bytes / 2),
          payloads[k].size() - pos[k]);
      svc.submit(ids[k], ByteSpan{payloads[k].data() + pos[k], n});
      pos[k] += n;
      progress = true;
    }
  }
  for (std::size_t k = 0; k < p.n_streams; ++k) svc.finish(ids[k]);

  for (std::size_t k = 0; k < p.n_streams; ++k) {
    const auto result = svc.wait(ids[k]);
    EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(payloads[k])))
        << "stream " << k;
    EXPECT_EQ(result.report.total_bytes, payloads[k].size());
    EXPECT_GT(result.report.virtual_seconds, 0.0);
  }
  const auto report = svc.shutdown();
  EXPECT_EQ(report.n_tenants, p.n_streams);
}

std::vector<EquivalenceCase> equivalence_grid() {
  std::vector<EquivalenceCase> cases;
  for (const core::GpuMode mode :
       {core::GpuMode::kBasic, core::GpuMode::kStreams,
        core::GpuMode::kStreamsCoalesced}) {
    for (const std::size_t buffer : {8192uL, 65536uL}) {
      for (const std::size_t k : {1uL, 3uL}) {
        cases.push_back({mode, buffer, k, 0, 0});
      }
    }
  }
  // Min/max splicing interleaved across 5 tenants.
  cases.push_back({core::GpuMode::kStreamsCoalesced, 16384, 5, 256, 2048});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ServiceEquivalence,
                         ::testing::ValuesIn(equivalence_grid()));

TEST(ChunkingService, ConcurrentProducersMatchDedicatedRuns) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 16 * 1024;
  cfg.tenant_queue_depth = 2;
  constexpr std::size_t kStreams = 6;

  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < kStreams; ++k) {
    payloads.push_back(random_bytes(120000 + 9973 * k, 500 + k));
  }

  ChunkingService svc(cfg);
  std::vector<ChunkingService::StreamId> ids;
  for (std::size_t k = 0; k < kStreams; ++k) ids.push_back(svc.open());

  std::vector<std::thread> producers;
  for (std::size_t k = 0; k < kStreams; ++k) {
    producers.emplace_back([&, k] {
      SplitMix64 rng(k);
      std::size_t pos = 0;
      while (pos < payloads[k].size()) {
        const std::size_t n = std::min<std::size_t>(
            1 + rng.next_below(40000), payloads[k].size() - pos);
        svc.submit(ids[k], ByteSpan{payloads[k].data() + pos, n});
        pos += n;
      }
      svc.finish(ids[k]);
    });
  }
  for (auto& t : producers) t.join();

  for (std::size_t k = 0; k < kStreams; ++k) {
    const auto result = svc.wait(ids[k]);
    EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(payloads[k])))
        << "stream " << k;
  }
}

// Regression: wait() used to capture a sessions_ iterator before parking on
// complete_cv_ and erase through it afterwards. While the wait has mu_
// released, a concurrent open() can rehash the unordered_map and invalidate
// that iterator (wait() now erases by key). Churn whole sessions from many
// threads so inserts/rehashes land while other threads sit in wait().
TEST(ChunkingService, WaitSurvivesConcurrentSessionChurn) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 8 * 1024;
  cfg.max_tenants = 64;
  ChunkingService svc(cfg);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRounds = 6;
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    payloads.push_back(random_bytes(30000 + 1777 * k, 90 + k));
  }
  std::vector<std::vector<chunking::Chunk>> expected;
  for (std::size_t k = 0; k < kThreads; ++k) {
    expected.push_back(dedicated_chunks(cfg, as_bytes(payloads[k])));
  }

  std::vector<std::thread> workers;
  for (std::size_t k = 0; k < kThreads; ++k) {
    workers.emplace_back([&, k] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        const auto id = svc.open();
        svc.submit(id, as_bytes(payloads[k]));
        svc.finish(id);
        const auto result = svc.wait(id);
        EXPECT_EQ(result.chunks, expected[k])
            << "thread " << k << " round " << r;
      }
    });
  }
  for (auto& t : workers) t.join();
  const auto report = svc.shutdown();
  EXPECT_EQ(report.n_tenants, kThreads * kRounds);
}

TEST(ChunkingService, ChunkStreamMatchesShredderRun) {
  ServiceConfig cfg = small_service_config();
  const auto data = random_bytes(300000, 11);
  ChunkingService svc(cfg);
  core::MemorySource source(as_bytes(data), cfg.host.reader_bw);
  const auto result = svc.chunk_stream(source);
  EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(data)));
  EXPECT_EQ(result.report.total_bytes, data.size());
}

// --- Backpressure -----------------------------------------------------------

// Consumer that stalls the Store stage (the engine's kernel thread) on
// every chunk it is handed.
class SlowSink final : public ChunkSink {
 public:
  void on_batch(const ChunkBatchView& batch) override {
    for (const auto& c : batch.chunks) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      delivered += c.size;
    }
  }
  std::atomic<std::uint64_t> delivered{0};
};

// Consumer that blocks the Store stage until `gate` is released.
class GatedSink final : public ChunkSink {
 public:
  explicit GatedSink(std::shared_future<void> gate) : gate_(std::move(gate)) {}
  void on_batch(const ChunkBatchView&) override { gate_.wait(); }

 private:
  std::shared_future<void> gate_;
};

TEST(ChunkingService, SlowConsumerNeverDeadlocksOrDropsBuffers) {
  // Tiny queues everywhere and a consumer that stalls on every chunk: the
  // whole pipeline backs up to the producer, which must simply block (never
  // drop or deadlock) and the output must still be exact.
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 4096;
  cfg.ring_slots = 2;
  cfg.tenant_queue_depth = 1;

  const auto data = random_bytes(120000, 21);
  SlowSink sink;
  ChunkingService svc(cfg);
  TenantOptions opts;
  opts.sink = &sink;
  const auto id = svc.open(std::move(opts));
  svc.submit(id, as_bytes(data));
  svc.finish(id);
  const auto result = svc.wait(id);
  EXPECT_EQ(sink.delivered.load(), data.size());
  EXPECT_EQ(result.chunks, dedicated_chunks(cfg, as_bytes(data)));
  // The producer outran the device, so the dispatch queue really filled up.
  EXPECT_EQ(result.report.max_queue_depth, cfg.tenant_queue_depth);
}

// Consumer that throws on its second batch, once `gate` is released.
class ThrowingSink final : public ChunkSink {
 public:
  explicit ThrowingSink(std::shared_future<void> gate)
      : gate_(std::move(gate)) {}
  void on_batch(const ChunkBatchView&) override {
    if (++batches_ < 2) return;
    gate_.wait();
    throw std::runtime_error("sink failed");
  }

 private:
  std::shared_future<void> gate_;
  int batches_ = 0;
};

TEST(ChunkingService, SinkErrorSurfacesFromWaitAndShutdown) {
  // The sink fails once the tenant has submitted and finished its stream
  // (its queue holds every buffer, so submit() never waits on the failed
  // engine). wait() and shutdown() both rethrow the sink's exception, and
  // every ring slot is back once shutdown() has joined the service.
  ServiceConfig cfg = small_service_config();
  cfg.tenant_queue_depth = 8;
  const auto data = random_bytes(5 * cfg.buffer_bytes, 23);
  std::promise<void> gate;
  ThrowingSink sink(gate.get_future().share());
  ChunkingService svc(cfg);
  TenantOptions opts;
  opts.sink = &sink;
  const auto id = svc.open(std::move(opts));
  svc.submit(id, as_bytes(data));
  svc.finish(id);
  gate.set_value();
  try {
    svc.wait(id);
    ADD_FAILURE() << "wait returned despite the failing sink";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink failed");
  }
  try {
    svc.shutdown();
    ADD_FAILURE() << "shutdown returned despite the failing sink";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "sink failed");
  }
  EXPECT_EQ(svc.registry().gauge("pipeline.slots_leased").value(), 0.0);
}

// --- Fairness and reports ---------------------------------------------------

TEST(ChunkingService, WeightedTenantFinishesFirstInVirtualTime) {
  // Deterministic contention: deep tenant queues hold each stream entirely,
  // and the store thread is gated on a promise until both tenants have
  // fully queued — so virtually all dispatches happen with both tenants
  // ready and the credit scheduler in charge, regardless of how the OS
  // interleaves the producers.
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 8192;
  cfg.tenant_queue_depth = 40;  // holds all 32 buffers of one stream

  const auto data_a = random_bytes(256 * 1024, 41);
  const auto data_b = random_bytes(256 * 1024, 42);
  std::promise<void> gate;
  std::shared_future<void> gate_f(gate.get_future());
  GatedSink heavy_sink(gate_f);
  GatedSink light_sink(gate_f);
  ChunkingService svc(cfg);
  TenantOptions heavy;
  heavy.weight = 8;
  heavy.sink = &heavy_sink;
  TenantOptions light;
  light.sink = &light_sink;
  const auto id_a = svc.open(std::move(heavy));
  const auto id_b = svc.open(std::move(light));

  svc.submit(id_a, as_bytes(data_a));
  svc.submit(id_b, as_bytes(data_b));
  svc.finish(id_a);
  svc.finish(id_b);
  gate.set_value();  // both queues loaded; let the pipeline drain
  const auto ra = svc.wait(id_a);
  const auto rb = svc.wait(id_b);
  // 8x the dispatch share means the heavy tenant's stream completes much
  // earlier on the shared virtual timeline.
  EXPECT_LT(ra.report.virtual_seconds, rb.report.virtual_seconds);
}

TEST(ChunkingService, AggregateReportSumsTenants) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 16 * 1024;
  const auto data = random_bytes(200000, 51);
  ChunkingService svc(cfg);
  const auto a = svc.open();
  const auto b = svc.open();
  svc.submit(a, as_bytes(data));
  svc.submit(b, as_bytes(data));
  svc.finish(a);
  svc.finish(b);
  svc.wait(a);
  svc.wait(b);
  const auto report = svc.shutdown();
  EXPECT_EQ(report.total_bytes, 2 * data.size());
  EXPECT_EQ(report.n_tenants, 2u);
  EXPECT_EQ(report.tenants.size(), 2u);
  EXPECT_GT(report.virtual_seconds, 0.0);
  EXPECT_GT(report.aggregate_throughput_bps, 0.0);
  EXPECT_GT(report.device_occupancy, 0.0);
  EXPECT_LE(report.device_occupancy, 1.0);
  EXPECT_GT(report.h2d_busy_seconds, 0.0);
}

TEST(ChunkingService, SharingBeatsSerialVirtualThroughput) {
  // Four tenants sharing the device must beat one tenant's throughput:
  // the whole point of the service (device no longer idles between one
  // stream's buffers).
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 256 * 1024;
  auto run_n = [&](std::size_t n) {
    const auto data = random_bytes(1 << 20, 61);
    ChunkingService svc(cfg);
    std::vector<std::thread> producers;
    std::vector<ChunkingService::StreamId> ids;
    for (std::size_t k = 0; k < n; ++k) ids.push_back(svc.open());
    for (std::size_t k = 0; k < n; ++k) {
      producers.emplace_back([&, k] {
        svc.submit(ids[k], as_bytes(data));
        svc.finish(ids[k]);
      });
    }
    for (auto& t : producers) t.join();
    for (const auto id : ids) svc.wait(id);
    return svc.shutdown().aggregate_throughput_bps;
  };
  const double one = run_n(1);
  const double four = run_n(4);
  EXPECT_GT(four, 1.5 * one);
}

// --- Admission and lifecycle ------------------------------------------------

TEST(ChunkingService, AdmissionControl) {
  ServiceConfig cfg = small_service_config();
  cfg.max_tenants = 1;
  ChunkingService svc(cfg);
  const auto id = svc.open();
  EXPECT_THROW(svc.open(), std::runtime_error);
  svc.finish(id);
  svc.wait(id);
  // Slot freed: admission works again.
  const auto id2 = svc.open();
  svc.finish(id2);
  svc.wait(id2);
}

TEST(ChunkingService, LifecycleErrors) {
  ServiceConfig cfg = small_service_config();
  ChunkingService svc(cfg);
  TenantOptions zero_weight;
  zero_weight.weight = 0;
  EXPECT_THROW(svc.open(std::move(zero_weight)), std::invalid_argument);
  EXPECT_THROW(svc.submit(999, {}), std::invalid_argument);
  const auto id = svc.open();
  svc.finish(id);
  const auto payload = random_bytes(10, 1);
  EXPECT_THROW(svc.submit(id, as_bytes(payload)), std::logic_error);
  // shutdown() refuses while another stream is unfinished.
  const auto id2 = svc.open();
  EXPECT_THROW(svc.shutdown(), std::logic_error);
  svc.finish(id2);
  svc.wait(id);
  svc.wait(id2);
  const auto report = svc.shutdown();
  EXPECT_EQ(report.n_tenants, 2u);
  EXPECT_THROW(svc.open(), std::runtime_error);
}

TEST(ChunkingService, EmptyStreamYieldsNoChunks) {
  ServiceConfig cfg = small_service_config();
  ChunkingService svc(cfg);
  const auto id = svc.open();
  svc.finish(id);
  const auto result = svc.wait(id);
  EXPECT_TRUE(result.chunks.empty());
  EXPECT_EQ(result.report.total_bytes, 0u);
}

TEST(ChunkingService, ConfigValidation) {
  ServiceConfig cfg = small_service_config();
  cfg.buffer_bytes = 4;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.max_tenants = 0;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
  cfg = small_service_config();
  cfg.tenant_queue_depth = 0;
  EXPECT_THROW(ChunkingService{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace shredder::service
