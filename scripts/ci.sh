#!/usr/bin/env bash
# CI entry point, fail-fast order (docs/static_analysis.md):
#   1. repo-invariant lint (module DAG + wall-clock ban) — cheapest, runs first
#   2. strict build + full test suite (-Werror; clang adds
#      -Werror=thread-safety over the annotations in src/common/annotations.h)
#   3. golden model outputs: the strict build's figure, table, ablation and
#      chunking-explorer binaries diffed against tests/golden/
#   4. Debug build + full test suite (-Werror, compiled without NDEBUG, so
#      every assert and ChunkStore::put's digest recheck run)
#   5. best-effort clang-tidy (skips cleanly on gcc-only toolchains)
#   6. microbench's obs bar (fails when microbench was not built)
#   7. perfbench build + traced correctness run of each workload
#   8. ASan/UBSan lane (unaligned loads, arena-backed block chains, the
#      engine's pinned-slot leases and per-stream carries, kernel launches,
#      the Inc-HDFS and middlebox case studies)
#   9. TSan lane over the concurrency-heavy suites (queues, thread pool,
#      simulated device, obs registry/tracer, multi-tenant service,
#      transport, hashing, backup server, MapReduce engine)
#
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "=== repo-invariant lint (module DAG + wall-clock ban) ==="
python3 scripts/check_invariants.py --self-test
python3 scripts/check_invariants.py

echo "=== strict build (-Wall -Wextra -Werror; clang: -Werror=thread-safety) ==="
cmake -B "$BUILD_DIR" -S . -DSHREDDER_WERROR=ON
cmake --build "$BUILD_DIR" -j "$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "=== golden model outputs (tests/golden/) ==="
# Each tests/golden/<binary>.txt is <binary>'s stdout at its default
# arguments. Every number it prints comes from the virtual cost model or
# from counting, so it repeats byte for byte from run to run, and a change
# that moves one printed digit fails here. fig6, fig12 and fig15 print their
# host-measured columns on stderr (fig15's wall-clock speedups; it takes
# about 26 s), so their stdout is pinned too. Re-baselining:
# tests/golden/README.md.
for golden in tests/golden/*.txt; do
  bin="$(basename "$golden" .txt)"
  echo "--- $bin"
  "$BUILD_DIR/$bin" | diff -u "$golden" -
done

echo "=== Debug build (no NDEBUG: asserts + ChunkStore::put digest recheck) ==="
# CMakeLists.txt defaults to Release and no other lane passes a build type,
# so this is the only lane where the Debug-only checks are compiled in.
DEBUG_DIR="${BUILD_DIR}-debug"
cmake -B "$DEBUG_DIR" -S . -DCMAKE_BUILD_TYPE=Debug -DSHREDDER_WERROR=ON
cmake --build "$DEBUG_DIR" -j "$JOBS"
ctest --test-dir "$DEBUG_DIR" --output-on-failure -j "$JOBS"

echo "=== clang-tidy (best-effort; skips when the binary is absent) ==="
scripts/run_clang_tidy.sh "$BUILD_DIR"

# microbench's obs mode holds the only host-time bar on Shredder::run's host
# path; a build without microbench must fail, not pass with no bar checked.
if [ ! -x "$BUILD_DIR/microbench" ]; then
  echo "microbench not built (google-benchmark missing): cannot run the obs bar" >&2
  exit 1
fi

echo "=== observability bar (microbench --obs_json + Perfetto trace export) ==="
# Enforces the <=2% disabled-registry overhead bar and the <=1% traced
# engine-busy vs GpuTimeline::engine_busy agreement (docs/observability.md),
# and checks the JSON and the exported Chrome trace-event files are
# well-formed. The bars that need no host timing are ctest cases.
"$BUILD_DIR/microbench" --obs_json="$BUILD_DIR/BENCH_obs.json"
python3 -m json.tool "$BUILD_DIR/BENCH_obs.json" >/dev/null
python3 -m json.tool "$BUILD_DIR/TRACE_obs_service.json" >/dev/null
python3 -m json.tool "$BUILD_DIR/TRACE_obs_transport.json" >/dev/null
echo "trace exports are well-formed JSON"

echo "=== perfbench build + traced correctness runs (1 s per workload) ==="
# perfbench/ is its own CMake package compiled against the src/ APIs, and
# nothing else here builds it. Each traced run re-runs the backup path in
# its replay mirror, which cross-checks manifests, unique bytes, wire bytes
# and GC bytes freed against the server. Correctness only, no timing bar.
# The traced run writes .bench_build/out/ under its working directory, so
# the runs start inside the build directory.
PERF_DIR="${BUILD_DIR}-perfbench"
cmake -S perfbench -B "$PERF_DIR" -DCMAKE_BUILD_TYPE=Release
cmake --build "$PERF_DIR" -j "$JOBS"
for wl in similar-gpu churn-cpu fleet-shared; do
  (cd "$PERF_DIR" && ./perfbench_e2e --workload "$wl" --seed 1 --seconds 1 \
      --trace 1) | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
mismatches = r["metrics"]["trace.replay_mismatches"]["value"]
print("perfbench %s: correct=%s failed=%s replay_mismatches=%g"
      % (sys.argv[1], r["correct"], r["failed"], mismatches))
sys.exit(0 if r["correct"] is True and r["failed"] == 0 and mismatches == 0
         else 1)' "$wl"
done

echo "=== ASan/UBSan build (chunking + fingerprint + index + service + wire + agent + obs + device stack + case studies) ==="
# backup_test joins because the agent's frame validation is the backup
# protocol's trust boundary and every agent test goes through receive_batch.
# service_test joins because every tenant's buffers are staged into leased
# pinned slots and resolved by the store stage (core::StreamStore) the
# service drives per session. gpusim_test joins because kernel launches
# keep per-block tallies and exact-DRAM traces and allocate no per-block
# shared memory, and core_test's kernels index the staged bytes in place:
# the simulated device holds no copy of a buffer.
# inchdfs_test and redelim_test join because both case studies key their
# content (HDFS blocks, memo keys, middlebox cache and tokens) by the
# SHA-256 ChunkDigest, hashed through the shared SHA-256 update path.
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DSHREDDER_WERROR=ON -DSHREDDER_SANITIZE=address
cmake --build "$SAN_DIR" -j "$JOBS" \
  --target chunking_test rabin_test minmax_test fingerprint_test \
  index_test dedup_test retention_test core_test sink_test service_test \
  transport_test backup_test obs_test common_test gpusim_test inchdfs_test \
  redelim_test
ctest --test-dir "$SAN_DIR" --output-on-failure -j "$JOBS" \
  -R 'chunking_test|rabin_test|minmax_test|fingerprint_test|index_test|dedup_test|retention_test|core_test|sink_test|service_test|transport_test|backup_test|obs_test|common_test|gpusim_test|inchdfs_test|redelim_test'

echo "=== TSan build (queues, thread pool, device, obs, service, transport, hashing, backup, mapreduce) ==="
# The suites that genuinely run multiple threads: common_test (BoundedQueue +
# ThreadPool stress), gpusim_test (sim pool threads flush their blocks'
# tallies into one launch's totals), obs_test (timings observed while a
# snapshot reads them, tracer), service_test (N producer threads over one
# engine whose kernel thread runs every tenant's Store stage, and a sink
# failure surfacing on the waiting threads), core_test (slots leased on
# producer threads and released on the kernel thread after its consumer
# returns, in-engine backpressure from a consumer blocked on the kernel
# thread, concurrent submitters of different engine streams, a sink failure
# rethrown on Shredder::run's calling thread), transport_test (the agent
# hashes each frame's unique payloads on its own pool, one range on the
# calling thread) and sink_test (sink delivery on the kernel thread),
# retention_test (pins vs GC sweeps over
# the shared store), dedup_test and fingerprint_test (the device hash kernel
# runs on many sim_threads workers, so the first SHA-256 calls race through
# the one-time CPUID dispatch), backup_test (the CPU backend hashes every
# snapshot's chunks on the chunker's pool threads, each writing its own
# range of one digest vector), inchdfs_test (MapReduceEngine runs its map
# and reduce tasks on a pool against one shared MemoServer). TSan's
# happens-before checking is what the thread-safety annotations cannot give
# us under gcc.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DSHREDDER_WERROR=ON -DSHREDDER_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target common_test gpusim_test obs_test service_test core_test \
  transport_test sink_test retention_test dedup_test fingerprint_test \
  backup_test inchdfs_test
TSAN_OPTIONS="halt_on_error=1" \
  ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -R 'common_test|gpusim_test|obs_test|service_test|core_test|transport_test|sink_test|retention_test|dedup_test|fingerprint_test|backup_test|inchdfs_test'

echo "=== ci OK ==="
