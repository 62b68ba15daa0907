// Pinned (page-locked) host memory: real page-aligned buffers plus the
// allocation cost model behind Figure 6 and the ring-buffer optimization of
// §4.1.2.
//
// We cannot page-lock memory inside this container, so PinnedBuffer holds
// ordinary page-aligned memory (functionally identical for the simulator's
// DMA engine) and the *cost* of pinning is modelled from DeviceSpec.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "gpusim/spec.h"

namespace shredder::gpu {

// Modelled cost (seconds) of allocating + page-locking `bytes`.
double pinned_alloc_seconds(const DeviceSpec& spec, std::uint64_t bytes) noexcept;

// Modelled cost (seconds) of a pageable allocation forced resident with
// bzero (the paper's measurement methodology for Figure 6).
double pageable_alloc_seconds(const DeviceSpec& spec,
                              std::uint64_t bytes) noexcept;

// Modelled cost (seconds) of memcpy'ing a pageable buffer into an already-
// pinned region (the steady-state cost once the ring buffer is in place).
double pageable_to_pinned_copy_seconds(const DeviceSpec& spec,
                                       std::uint64_t bytes) noexcept;

// A page-aligned host buffer standing in for a CUDA pinned allocation.
class PinnedBuffer {
 public:
  PinnedBuffer() = default;
  explicit PinnedBuffer(std::size_t size);

  MutableByteSpan span() noexcept { return {data_.get(), size_}; }
  ByteSpan span() const noexcept { return {data_.get(), size_}; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

 private:
  struct AlignedDelete {
    void operator()(std::uint8_t* p) const noexcept { ::operator delete[](p, std::align_val_t{4096}); }
  };
  std::unique_ptr<std::uint8_t[], AlignedDelete> data_;
  std::size_t size_ = 0;
};

// Circular ring of pinned buffers (§4.1.2, Figure 7): allocated once at
// construction and reused, so the per-iteration pinned-allocation cost
// drops to zero after startup. The ring hands out storage only; which slots
// are in flight is its owner's bookkeeping (core/lease.h's SlotPool leases
// the PipelineEngine's slots).
class PinnedRing {
 public:
  // Throws std::invalid_argument if slots == 0 or slot_size == 0.
  PinnedRing(const DeviceSpec& spec, std::size_t slots, std::size_t slot_size);

  std::size_t slots() const noexcept { return buffers_.size(); }
  std::size_t slot_size() const noexcept { return slot_size_; }

  // Modelled one-time construction cost (all slots pinned at startup).
  double construction_cost_seconds() const noexcept { return construction_cost_s_; }

  // One slot's storage.
  MutableByteSpan slot_span(std::size_t index) noexcept {
    return buffers_[index].span();
  }

 private:
  std::size_t slot_size_;
  std::vector<PinnedBuffer> buffers_;
  double construction_cost_s_ = 0.0;
};

}  // namespace shredder::gpu
