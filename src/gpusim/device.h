// Device facade: kernel launches on the simulated C2050, the simulated
// equivalent of the CUDA runtime surface Shredder uses.
//
// Kernels read host-staged bytes in place (a launch's callable does real
// work on them; the device holds no copy), and every transfer is priced by
// dma_seconds (gpusim/dma.h) without moving a byte. Each launch also
// returns its *virtual* duration under the DeviceSpec timing model.
// Virtual-time composition across operations is the caller's job, via
// GpuTimeline (double buffering) or pipeline_makespan.
#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "gpusim/dma.h"
#include "gpusim/dram.h"
#include "gpusim/kernel.h"
#include "gpusim/spec.h"

namespace shredder::gpu {

class Device {
 public:
  // `worker_threads` host threads simulate the SMs (0 = hardware
  // concurrency).
  explicit Device(DeviceSpec spec = DeviceSpec{}, std::size_t worker_threads = 0);

  const DeviceSpec& spec() const noexcept { return spec_; }

  // Runs `fn` once per block on the worker pool and converts the recorded
  // work into virtual time.
  KernelRunStats launch(const LaunchConfig& config, const KernelFn& fn);

 private:
  DeviceSpec spec_;
  ThreadPool pool_;
};

}  // namespace shredder::gpu
