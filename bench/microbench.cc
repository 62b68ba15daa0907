// Primitive micro-benchmarks (google-benchmark): the building blocks whose
// costs the figure benches compose — Rabin window pushes, the canonical
// scanner, the batched buffer fast path, parallel chunking, min/max
// filtering, baseline chunkers, SHA hashing and the dedup index. The scan
// kernels (BM_SerialScan, BM_BufferScan, BM_ParallelChunker) are the
// before/after measurement for chunking hot-path changes; see docs/perf.md.
//
// Observability bar: `microbench --obs_json[=PATH]` skips the suite and
// exercises the obs layer end to end (docs/observability.md). It measures
// the CPU-time overhead of a pipeline with a disabled metrics registry
// attached (median of paired runs; bar: <= 2%), runs a 4-tenant service and
// a 1%-loss backup transport with metrics and tracing on, exports both as
// Perfetto-loadable Chrome trace JSON (TRACE_obs_service.json and
// TRACE_obs_transport.json, in PATH's directory), and cross-checks the
// traced per-engine busy time against GpuTimeline::engine_busy (bar: within
// 1%). It writes PATH (default BENCH_obs.json) and exits non-zero when a
// bar fails. The overhead bar times host work, so it lives here rather
// than in a unit test.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "backup/backup_server.h"
#include "chunking/cdc.h"
#include "chunking/fixed.h"
#include "chunking/minmax.h"
#include "chunking/parallel.h"
#include "chunking/samplebyte.h"
#include "common/rng.h"
#include "core/shredder.h"
#include "dedup/index.h"
#include "dedup/sha256.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/service.h"

namespace {

using namespace shredder;

const ByteVec& payload() {
  static const ByteVec data = random_bytes(8ull << 20, 77);
  return data;
}

chunking::ChunkerConfig default_config() {
  chunking::ChunkerConfig c;
  c.window = 48;
  c.mask_bits = 13;
  c.marker = 0x78;
  return c;
}

void BM_RabinWindowPush(benchmark::State& state) {
  const rabin::RabinTables tables(48);
  rabin::RabinWindow window(tables);
  const auto& data = payload();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(window.push(data[i]));
    i = (i + 1) & ((1 << 20) - 1);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RabinWindowPush);

void BM_SerialScan(benchmark::State& state) {
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    std::uint64_t count = 0;
    chunking::scan_raw(tables, config, data, 0, 0,
                       [&](std::uint64_t, std::uint64_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_SerialScan);

void BM_BufferScan(benchmark::State& state) {
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    std::uint64_t count = 0;
    chunking::scan_buffer(tables, config, data, 0, 0,
                          [&](std::uint64_t, std::uint64_t) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_BufferScan);

void BM_ParallelChunker(benchmark::State& state) {
  const auto config = default_config();
  const rabin::RabinTables tables(config.window);
  chunking::ParallelChunker chunker(
      tables, config, static_cast<std::size_t>(state.range(0)));
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.chunk(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
// The pool's workers do the scanning while the benchmark thread waits, so
// throughput is charged against wall time, not this thread's CPU time.
BENCHMARK(BM_ParallelChunker)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(12)
    ->UseRealTime();

void BM_SampleByte(benchmark::State& state) {
  const chunking::SampleByteChunker chunker(8192, 16, 3);
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.boundaries(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_SampleByte);

void BM_FixedChunking(benchmark::State& state) {
  const ByteSpan data = as_bytes(payload());
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunking::chunk_fixed(data, 8192));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunking);

void BM_MinMaxFilter(benchmark::State& state) {
  // Typical raw boundary stream: ~8 KB spacing over 64 MB.
  std::vector<std::uint64_t> raw;
  SplitMix64 rng(5);
  std::uint64_t pos = 0;
  while (pos < (64ull << 20)) {
    pos += 1 + rng.next_below(16384);
    raw.push_back(pos);
  }
  const std::uint64_t total = pos + 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        chunking::apply_min_max(raw, total, 2048, 16384));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(raw.size()));
}
BENCHMARK(BM_MinMaxFilter);

void BM_Sha256(benchmark::State& state) {
  const ByteSpan data = as_bytes(payload()).first(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dedup::Sha256::hash(data));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4096)->Arg(65536);

void BM_ChunkIndexLookup(benchmark::State& state) {
  dedup::ChunkIndex index(0.0);
  std::vector<dedup::ChunkDigest> digests;
  for (int i = 0; i < 10000; ++i) {
    const auto d = dedup::ChunkHasher::hash(
        ByteSpan{reinterpret_cast<const std::uint8_t*>(&i), sizeof(i)});
    digests.push_back(d);
    index.lookup_or_insert(d, {static_cast<std::uint64_t>(i), 4096});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.lookup(digests[i % digests.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ChunkIndexLookup);

// --- --obs_json mode --------------------------------------------------------

// CPU seconds (user + system) this process has spent so far, over all of
// its threads.
double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Relative disagreement of a traced busy time vs the timeline's own
// accounting; exact-zero pairs agree perfectly.
double busy_rel_err(double traced, double reference) {
  if (reference == 0.0) return traced == 0.0 ? 0.0 : 1.0;
  return std::abs(traced - reference) / reference;
}

int run_obs_json(const std::string& path) {
  using namespace shredder::backup;
  // The Chrome traces go beside the JSON.
  const std::size_t slash = path.find_last_of('/');
  const std::string trace_prefix =
      (slash == std::string::npos ? "" : path.substr(0, slash + 1)) +
      "TRACE_obs_";

  // Part 1 — the "compiled in but disabled" bar: the same pipeline, once
  // with no registry and once with a disabled one attached. The hooks are
  // per buffer, so the honest expectation is noise-level overhead; the bar
  // catches anyone moving them into a per-byte loop. Each run is charged
  // the CPU seconds the whole process spent in it (every pipeline and sim
  // thread), which a host scheduler stalling one thread does not inflate
  // the way it inflates wall time. Runs come in pairs whose order flips
  // each pair, and the bar reads the median of the per-pair ratios, so
  // drift across the measurement hits both sides alike. Single runs still
  // vary by up to ±10% on a shared 4-vCPU host, so it takes about 80 pairs
  // for the median to tell a 2% overhead from noise.
  const std::size_t overhead_bytes = 32u << 20;
  const ByteVec overhead_input = random_bytes(overhead_bytes, 1234);
  core::ShredderConfig scfg;
  scfg.chunker = default_config();
  scfg.buffer_bytes = 1u << 20;
  obs::Registry disabled_reg;
  disabled_reg.set_enabled(false);
  core::Shredder plain(scfg);
  auto instr_cfg = scfg;
  instr_cfg.registry = &disabled_reg;
  core::Shredder instrumented(instr_cfg);
  plain.run(as_bytes(overhead_input));  // warmup both
  instrumented.run(as_bytes(overhead_input));
  const auto cpu_seconds_of = [&](core::Shredder& shredder) {
    const double before = process_cpu_seconds();
    shredder.run(as_bytes(overhead_input));
    return process_cpu_seconds() - before;
  };
  const int pairs = 81;
  std::vector<double> ratios;
  double plain_total = 0, instr_total = 0;
  for (int p = 0; p < pairs; ++p) {
    double plain_s = 0, instr_s = 0;
    if (p % 2 == 0) {
      plain_s = cpu_seconds_of(plain);
      instr_s = cpu_seconds_of(instrumented);
    } else {
      instr_s = cpu_seconds_of(instrumented);
      plain_s = cpu_seconds_of(plain);
    }
    ratios.push_back(instr_s / plain_s);
    plain_total += plain_s;
    instr_total += instr_s;
  }
  std::nth_element(ratios.begin(), ratios.begin() + pairs / 2, ratios.end());
  const double overhead_pct = (ratios[pairs / 2] - 1.0) * 100.0;

  // Part 2 — multi-tenant service run with metrics + tracing on: N tenant
  // streams through one device, trace exported for Perfetto, and the
  // exported per-engine busy time cross-checked against the timeline's own
  // engine_busy accounting.
  obs::Registry svc_reg;
  obs::Tracer svc_tracer;
  service::ServiceConfig cfg;
  cfg.buffer_bytes = 256u << 10;
  cfg.fingerprint_on_device = true;  // fingerprint-kernel spans too
  cfg.registry = &svc_reg;
  cfg.tracer = &svc_tracer;
  const std::size_t n_tenants = 4;
  cfg.max_tenants = n_tenants;
  const std::size_t per_tenant = 512u << 10;
  std::vector<ByteVec> payloads;
  for (std::size_t k = 0; k < n_tenants; ++k) {
    payloads.push_back(random_bytes(per_tenant, 7100 + k));
  }
  service::ChunkingService svc(cfg);
  {
    std::vector<service::ChunkingService::StreamId> ids;
    for (std::size_t k = 0; k < n_tenants; ++k) ids.push_back(svc.open());
    std::vector<std::thread> producers;
    for (std::size_t k = 0; k < n_tenants; ++k) {
      producers.emplace_back([&, k] {
        svc.submit(ids[k], as_bytes(payloads[k]));
        svc.finish(ids[k]);
      });
    }
    for (auto& t : producers) t.join();
    for (const auto id : ids) svc.wait(id);
  }
  const auto svc_report = svc.shutdown();
  const double svc_err = std::max(
      {busy_rel_err(svc_tracer.track_busy("engine/h2d"),
                    svc_report.h2d_busy_seconds),
       busy_rel_err(svc_tracer.track_busy("engine/compute"),
                    svc_report.compute_busy_seconds),
       busy_rel_err(svc_tracer.track_busy("engine/d2h"),
                    svc_report.d2h_busy_seconds)});
  const std::string svc_trace_path = trace_prefix + "service.json";
  svc_tracer.write_json(svc_trace_path);

  // Part 3 — backup over a 1%-loss transport, chunked through a shared
  // service so one trace carries the whole story: engine spans, per-tenant
  // buffers, scheduler series, and the wire's frame/retransmit/repair
  // lifecycle on the transport tracks.
  obs::Registry wire_reg;
  obs::Tracer wire_tracer;
  service::ServiceConfig scv2;
  scv2.chunker.window = 48;
  scv2.chunker.mask_bits = 11;  // ~2 KB chunks: enough frames for 1% loss
  scv2.chunker.marker = 0x78;
  scv2.chunker.min_size = 1024;
  scv2.chunker.max_size = 8 * 1024;
  scv2.buffer_bytes = 512u << 10;
  scv2.fingerprint_on_device = true;
  scv2.max_tenants = 2;
  scv2.registry = &wire_reg;
  scv2.tracer = &wire_tracer;
  auto wire_svc = std::make_shared<service::ChunkingService>(scv2);

  BackupServerConfig bcfg;
  bcfg.backend = ChunkerBackend::kSharedService;
  bcfg.service = wire_svc;
  bcfg.chunker = scv2.chunker;
  bcfg.fingerprint_on_device = true;
  bcfg.index.kind = dedup::IndexKind::kSparse;
  bcfg.transport.max_frame_bytes = 64 * 1024;
  bcfg.transport.max_payload_retx = 2;
  bcfg.transport.faults.drop = 0.01;
  bcfg.transport.faults.reorder = 0.10;
  bcfg.transport.faults.reorder_jitter_s = 100e-6;
  bcfg.transport.faults.duplicate = 0.02;
  bcfg.transport.faults.seed = 29;
  bcfg.registry = &wire_reg;
  bcfg.tracer = &wire_tracer;

  ImageRepoConfig repo_cfg;
  repo_cfg.image_bytes = 4ull << 20;
  repo_cfg.segment_bytes = 256ull << 10;
  repo_cfg.seed = 4711;
  ImageRepository repo(repo_cfg);
  const auto base = repo.snapshot(0.0, 1);
  const auto snap = repo.snapshot(0.25, 2);

  BackupServer server(bcfg);
  BackupAgent agent;
  server.backup_image("base", as_bytes(base), repo, agent);
  const auto wire_stats = server.backup_image("snap", as_bytes(snap), repo,
                                              agent);
  if (!wire_stats.verified) {
    std::fprintf(stderr, "obs bench: lossy backup verification failed\n");
    return 1;
  }
  const auto wire_report = wire_svc->shutdown();
  const double wire_err = std::max(
      {busy_rel_err(wire_tracer.track_busy("engine/h2d"),
                    wire_report.h2d_busy_seconds),
       busy_rel_err(wire_tracer.track_busy("engine/compute"),
                    wire_report.compute_busy_seconds),
       busy_rel_err(wire_tracer.track_busy("engine/d2h"),
                    wire_report.d2h_busy_seconds)});
  const std::string wire_trace_path = trace_prefix + "transport.json";
  wire_tracer.write_json(wire_trace_path);
  const std::uint64_t wire_recoveries =
      wire_stats.transport.retransmits + wire_stats.transport.repair_frames;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"disabled_overhead_pct\": %.3f,\n", overhead_pct);
  std::fprintf(f, "  \"overhead_input_bytes\": %llu,\n",
               static_cast<unsigned long long>(overhead_bytes));
  std::fprintf(
      f,
      "  \"service\": {\"tenants\": %zu, \"buffers\": %llu, "
      "\"trace_events\": %zu, \"engine_busy_max_rel_err\": %.6f, "
      "\"trace_path\": \"%s\"},\n",
      n_tenants, static_cast<unsigned long long>(svc_report.n_buffers),
      svc_tracer.event_count(), svc_err, svc_trace_path.c_str());
  std::fprintf(
      f,
      "  \"transport\": {\"loss\": 0.01, \"retransmits\": %llu, "
      "\"repair_frames\": %llu, \"trace_events\": %zu, "
      "\"engine_busy_max_rel_err\": %.6f, \"trace_path\": \"%s\"},\n",
      static_cast<unsigned long long>(wire_stats.transport.retransmits),
      static_cast<unsigned long long>(wire_stats.transport.repair_frames),
      wire_tracer.event_count(), wire_err, wire_trace_path.c_str());
  // The registry's own export, verbatim — the machine-readable face of the
  // service run's metrics (docs/observability.md).
  std::fprintf(f, "  \"service_metrics\": %s\n", svc_reg.to_json().c_str());
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("obs overhead (registry disabled): %+.2f%%  "
              "(median of %d paired runs; mean CPU plain %.1f ms vs "
              "instrumented %.1f ms)\n",
              overhead_pct, pairs, plain_total / pairs * 1e3,
              instr_total / pairs * 1e3);
  std::printf("service run:   %zu tenants, %llu buffers, %zu trace events, "
              "engine-busy err %.4f%% -> %s\n",
              n_tenants, static_cast<unsigned long long>(svc_report.n_buffers),
              svc_tracer.event_count(), svc_err * 100, svc_trace_path.c_str());
  std::printf("transport run: 1%% loss, %llu retransmits, %llu repairs, "
              "%zu trace events, engine-busy err %.4f%% -> %s\n",
              static_cast<unsigned long long>(wire_stats.transport.retransmits),
              static_cast<unsigned long long>(
                  wire_stats.transport.repair_frames),
              wire_tracer.event_count(), wire_err * 100,
              wire_trace_path.c_str());
  std::printf("-> %s\n", path.c_str());

  if (overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "obs bench: disabled-registry overhead %.2f%% exceeds the "
                 "2%% bar\n",
                 overhead_pct);
    return 1;
  }
  if (svc_err > 0.01 || wire_err > 0.01) {
    std::fprintf(stderr,
                 "obs bench: traced engine busy disagrees with "
                 "GpuTimeline::engine_busy beyond 1%% (service %.4f, "
                 "transport %.4f)\n",
                 svc_err, wire_err);
    return 1;
  }
  if (svc_tracer.event_count() == 0 || wire_tracer.event_count() == 0) {
    std::fprintf(stderr, "obs bench: empty trace export\n");
    return 1;
  }
  if (wire_recoveries == 0) {
    std::fprintf(stderr,
                 "obs bench: 1%% loss run recorded no retransmits or "
                 "repairs - fault injection is not reaching the wire\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs_json") == 0) {
      return run_obs_json("BENCH_obs.json");
    }
    if (std::strncmp(argv[i], "--obs_json=", 11) == 0) {
      return run_obs_json(argv[i] + 11);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
