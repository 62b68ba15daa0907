#include "gpusim/device.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/timer.h"

namespace shredder::gpu {

BlockCtx::BlockCtx(int block_idx, const LaunchConfig& config,
                   const DeviceSpec& spec,
                   std::vector<std::uint64_t>* exact_addrs)
    : block_idx_(block_idx),
      config_(&config),
      spec_(&spec),
      exact_addrs_(exact_addrs) {}

void BlockCtx::record_global_read(std::uint64_t addr,
                                  std::uint64_t bytes) noexcept {
  if (bytes == 0) return;
  const std::uint64_t txn = config_->txn_bytes;
  const std::uint64_t n = (bytes + txn - 1) / txn;
  transactions_ += n;
  if (exact_addrs_ != nullptr) {
    for (std::uint64_t i = 0; i < n; ++i) {
      exact_addrs_->push_back(addr + i * txn);
    }
  }
}

Device::Device(DeviceSpec spec, std::size_t worker_threads)
    : spec_(spec), pool_(worker_threads) {}

KernelRunStats Device::launch(const LaunchConfig& config, const KernelFn& fn) {
  if (config.blocks <= 0 || config.threads_per_block <= 0) {
    throw std::invalid_argument("launch: blocks/threads must be positive");
  }
  if (config.txn_bytes == 0) {
    throw std::invalid_argument("launch: txn_bytes must be positive");
  }
  Stopwatch wall;
  // Launch totals: each block adds its tallies once, after its callable.
  std::atomic<std::uint64_t> processed{0};
  std::atomic<std::uint64_t> transactions{0};
  std::atomic<std::uint64_t> staged{0};
  // Per-block exact address traces (exact_dram mode only).
  std::vector<std::vector<std::uint64_t>> traces(
      config.exact_dram ? static_cast<std::size_t>(config.blocks) : 0);

  pool_.for_each_index(static_cast<std::size_t>(config.blocks),
                       [&](std::size_t b) {
                         BlockCtx ctx(static_cast<int>(b), config, spec_,
                                      config.exact_dram ? &traces[b] : nullptr);
                         fn(ctx);
                         processed.fetch_add(ctx.bytes_processed(),
                                             std::memory_order_relaxed);
                         transactions.fetch_add(ctx.transactions(),
                                                std::memory_order_relaxed);
                         staged.fetch_add(ctx.shared_staged_bytes(),
                                          std::memory_order_relaxed);
                       });

  KernelRunStats stats;
  stats.bytes_processed = processed.load();
  stats.transactions = transactions.load();
  stats.shared_staged_bytes = staged.load();
  stats.bytes_fetched = stats.transactions * spec_.burst_bytes;

  // Row-switch fraction: exact replay (SIMT round-robin across block traces)
  // or the analytic estimator.
  if (config.exact_dram) {
    DramSimulator dram(spec_);
    bool any = true;
    std::vector<std::size_t> cursor(traces.size(), 0);
    while (any) {
      any = false;
      for (std::size_t b = 0; b < traces.size(); ++b) {
        if (cursor[b] < traces[b].size()) {
          dram.access(traces[b][cursor[b]++], config.txn_bytes);
          any = true;
        }
      }
    }
    stats.row_switch_fraction = dram.stats().row_switch_fraction();
  } else {
    const std::uint64_t streams =
        config.concurrent_streams != 0
            ? config.concurrent_streams
            : static_cast<std::uint64_t>(config.total_threads());
    stats.row_switch_fraction =
        estimate_row_switch_fraction(spec_, streams, config.txn_bytes);
  }

  const double cpb = config.cycles_per_byte > 0 ? config.cycles_per_byte
                                                : spec_.compute_cycles_per_byte;
  stats.compute_seconds =
      static_cast<double>(stats.bytes_processed) * cpb /
      (static_cast<double>(spec_.total_sps()) * spec_.clock_hz);
  stats.memory_seconds =
      dram_time_seconds(spec_, stats.transactions, stats.row_switch_fraction);
  stats.launch_seconds = stats.bytes_processed >= spec_.launch_large_threshold
                             ? spec_.launch_large_s
                             : spec_.launch_small_s;
  stats.virtual_seconds =
      stats.launch_seconds + std::max(stats.compute_seconds, stats.memory_seconds);
  stats.wall_seconds = wall.elapsed_seconds();
  return stats;
}

}  // namespace shredder::gpu
