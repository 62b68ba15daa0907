// Kernel launch/execution types for the simulated GPU.
//
// A kernel is a C++ callable executed once per thread block (CUDA's dynamic
// block-to-SM scheduling is modelled by a host thread pool). The callable
// does *real* work on real bytes; it reports its memory behaviour through
// BlockCtx so the launch can convert the work into virtual C2050 time:
//
//   virtual time = launch overhead + max(compute time, device-memory time)
//
// compute time  = bytes_processed * cycles_per_byte / (SMs * SPs * clock)
// memory time   = DRAM transaction accounting (gpusim/dram.h) using the
//                 row-switch fraction for the launch's access pattern.
//
// Shared-memory tile staging is accounting only: a kernel reports the tiles
// it would stage (record_shared_stage) and reads its host-staged input in
// place, so a launch allocates no per-block shared memory on the host.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gpusim/spec.h"

namespace shredder::gpu {

struct LaunchConfig {
  int blocks = 1;
  int threads_per_block = 128;
  // Compute intensity of this kernel's inner loop, SP cycles per processed
  // byte. Defaults to the Rabin loop cost from DeviceSpec when <= 0.
  double cycles_per_byte = -1.0;
  // Number of concurrent access streams presented to DRAM (the row-switch
  // estimator's input): total threads for the per-thread-substream pattern,
  // ~num_sms for the block-cooperative (coalesced) pattern. When 0, defaults
  // to blocks * threads_per_block.
  std::uint64_t concurrent_streams = 0;
  // Transaction size presented to DRAM by this kernel.
  std::uint64_t txn_bytes = 16;
  // When true, every transaction address is recorded and replayed through
  // the exact DramSimulator in SIMT round-robin order (tests / small runs).
  bool exact_dram = false;

  int total_threads() const noexcept { return blocks * threads_per_block; }
};

struct KernelRunStats {
  double virtual_seconds = 0;   // launch + max(compute, memory)
  double launch_seconds = 0;
  double compute_seconds = 0;
  double memory_seconds = 0;
  double row_switch_fraction = 0;
  std::uint64_t transactions = 0;
  std::uint64_t bytes_processed = 0;
  std::uint64_t bytes_fetched = 0;  // full DRAM bursts
  std::uint64_t shared_staged_bytes = 0;
  double wall_seconds = 0;      // real host time spent simulating

  // Aggregates per-launch stats across buffers. Times/counters add;
  // row_switch_fraction is constant for a fixed launch configuration, so
  // the latest value stands.
  KernelRunStats& operator+=(const KernelRunStats& o) noexcept {
    virtual_seconds += o.virtual_seconds;
    launch_seconds += o.launch_seconds;
    compute_seconds += o.compute_seconds;
    memory_seconds += o.memory_seconds;
    row_switch_fraction = o.row_switch_fraction;
    transactions += o.transactions;
    bytes_processed += o.bytes_processed;
    bytes_fetched += o.bytes_fetched;
    shared_staged_bytes += o.shared_staged_bytes;
    wall_seconds += o.wall_seconds;
    return *this;
  }
};

// Per-block execution context handed to the kernel callable. It tallies the
// block's recorded work in plain members; Device::launch adds them to the
// launch totals once the block's callable has returned.
class BlockCtx {
 public:
  BlockCtx(int block_idx, const LaunchConfig& config, const DeviceSpec& spec,
           std::vector<std::uint64_t>* exact_addrs);

  int block_idx() const noexcept { return block_idx_; }
  int num_blocks() const noexcept { return config_->blocks; }
  int threads_per_block() const noexcept { return config_->threads_per_block; }
  int total_threads() const noexcept { return config_->total_threads(); }
  const DeviceSpec& spec() const noexcept { return *spec_; }

  // Accounts `bytes` of input consumed by the kernel's compute loop.
  void record_processed(std::uint64_t bytes) noexcept { processed_ += bytes; }

  // Accounts a global-memory read of `bytes` issued as `txn_bytes`-sized
  // transactions starting at device address `addr`.
  void record_global_read(std::uint64_t addr, std::uint64_t bytes) noexcept;

  // Accounts data staged into the SM's shared memory by a cooperative fetch.
  // Staging is accounting only: the simulated SM has no shared-memory bytes
  // (at most DeviceSpec::shared_mem_per_sm per block on the modelled card),
  // and kernels read their host-staged input in place instead.
  void record_shared_stage(std::uint64_t bytes) noexcept { staged_ += bytes; }

  std::uint64_t bytes_processed() const noexcept { return processed_; }
  std::uint64_t transactions() const noexcept { return transactions_; }
  std::uint64_t shared_staged_bytes() const noexcept { return staged_; }

 private:
  int block_idx_;
  const LaunchConfig* config_;
  const DeviceSpec* spec_;
  std::vector<std::uint64_t>* exact_addrs_;  // non-null in exact_dram mode
  std::uint64_t processed_ = 0;
  std::uint64_t transactions_ = 0;
  std::uint64_t staged_ = 0;
};

using KernelFn = std::function<void(BlockCtx&)>;

}  // namespace shredder::gpu
