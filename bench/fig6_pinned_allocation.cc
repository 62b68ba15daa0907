// Figure 6 — allocation overhead: pageable vs pinned host memory, and the
// pageable->pinned memcpy that is the steady-state cost once the circular
// ring of pinned buffers (§4.1.2) is in place.
//
// Prints the calibrated model values on stdout and a real measurement of
// the pageable path (malloc + bzero, the paper's methodology) on this host
// on stderr, so stdout repeats byte for byte (tests/golden/ pins it).
#include <cstdio>
#include <cstring>
#include <memory>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "gpusim/pinned.h"
#include "gpusim/spec.h"

int main() {
  using namespace shredder;
  using namespace shredder::gpu;
  bench::print_header(
      "F6", "Figure 6: pageable vs pinned allocation overhead",
      "pinned allocation ~10x pageable; ring-buffer reuse amortizes pinning "
      "to one-time setup, leaving only a pageable->pinned memcpy per buffer");

  const DeviceSpec spec;
  TablePrinter t({"BufferSize", "PageableAlloc(ms)", "MemcpyToPinned(ms)",
                  "PinnedAlloc(ms)"},
                 19);
  TablePrinter host({"BufferSize", "HostMeasured(ms)"}, 19);
  for (const auto size : bench::paper_buffer_sweep()) {
    // Real pageable allocation forced resident, as the paper measures.
    Stopwatch sw;
    {
      auto block = std::make_unique<std::uint8_t[]>(size);
      std::memset(block.get(), 0, size);
    }
    const double measured = sw.elapsed_seconds();
    t.add_row({bench::mb_label(size),
               TablePrinter::fmt(pageable_alloc_seconds(spec, size) * 1e3, 2),
               TablePrinter::fmt(
                   pageable_to_pinned_copy_seconds(spec, size) * 1e3, 2),
               TablePrinter::fmt(pinned_alloc_seconds(spec, size) * 1e3, 2)});
    host.add_row({bench::mb_label(size), TablePrinter::fmt(measured * 1e3, 2)});
  }
  t.print();
  std::fputs(host.to_string().c_str(), stderr);

  // Ring amortization: steady-state per-iteration cost after N iterations.
  const std::uint64_t buffer = 64ull << 20;
  PinnedRing ring(spec, 4, static_cast<std::size_t>(buffer));
  const double per_iter_with_ring =
      pageable_to_pinned_copy_seconds(spec, buffer);
  const double per_iter_naive = pinned_alloc_seconds(spec, buffer);
  std::printf("\nring of 4 x 64MB: one-time setup %.1f ms; per-iteration cost "
              "%.2f ms vs %.2f ms for per-iteration pinned allocation "
              "(%.1fx cheaper steady-state)\n",
              ring.construction_cost_seconds() * 1e3, per_iter_with_ring * 1e3,
              per_iter_naive * 1e3, per_iter_naive / per_iter_with_ring);
  return 0;
}
