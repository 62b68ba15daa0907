// Pinned-slot leases: the pipeline engine's ownership of one staged buffer
// (docs/zero_copy.md).
//
// Every submitted buffer is staged once, carry ++ payload, into a leased
// ring slot, in every GpuMode. The lease travels inside the engine with its
// work item through the priced H2D DMA, the kernels and the Store stage,
// and ends when the kernel thread has handed the item's batch to the
// consumer: no lease leaves the engine, so none outlives it. submit()
// blocks while every slot is leased, which is the engine-level
// backpressure point; the pipeline.slots_leased gauge tracks the slots in
// flight.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/annotations.h"
#include "common/bytes.h"
#include "common/mutex.h"
#include "gpusim/pinned.h"
#include "obs/registry.h"

namespace shredder::core {
namespace detail {

// Owns the pinned staging ring plus its free-slot accounting. acquire() is
// the engine-level backpressure point: it blocks while every slot is leased
// and returns nullopt once stop() has run — even when slots are free,
// because a stopping engine must not hand out new work.
class SlotPool {
 public:
  // `gauge` (may be null; must outlive the pool) receives the leased count.
  SlotPool(const gpu::DeviceSpec& spec, std::size_t slots,
           std::size_t slot_size, obs::Gauge* gauge = nullptr);

  SlotPool(const SlotPool&) = delete;
  SlotPool& operator=(const SlotPool&) = delete;

  std::optional<std::size_t> acquire();
  void release(std::size_t slot);

  // Wakes every acquire() waiter with nullopt. Outstanding leases stay
  // valid and still release into the free list.
  void stop();

  MutableByteSpan slot_span(std::size_t index) noexcept {
    return ring_.slot_span(index);
  }
  double construction_cost_seconds() const noexcept {
    return ring_.construction_cost_seconds();
  }
  // Leases currently outstanding (slot-leak checks in tests).
  std::size_t leased() const;

 private:
  gpu::PinnedRing ring_;
  obs::Gauge* const gauge_;
  mutable Mutex mu_;
  CondVar cv_;
  std::vector<std::size_t> free_ GUARDED_BY(mu_);
  std::size_t leased_ GUARDED_BY(mu_) = 0;
  bool stopping_ GUARDED_BY(mu_) = false;
};

}  // namespace detail

// Move-only ownership of one staged buffer's bytes: a leased ring slot,
// released back to its pool at destruction, reset() or move-assignment.
// The pool must outlive the lease.
class SlotLease {
 public:
  SlotLease() = default;
  ~SlotLease() { reset(); }

  SlotLease(const SlotLease&) = delete;
  SlotLease& operator=(const SlotLease&) = delete;
  SlotLease(SlotLease&& other) noexcept;
  SlotLease& operator=(SlotLease&& other) noexcept;

  // Takes `pool`'s already-acquired slot `slot`, viewing its first `len`
  // bytes.
  static SlotLease from_slot(detail::SlotPool& pool, std::size_t slot,
                             std::size_t len);

  ByteSpan bytes() const noexcept { return span_; }
  std::size_t size() const noexcept { return span_.size(); }
  bool empty() const noexcept { return span_.empty(); }
  void reset() noexcept;

 private:
  detail::SlotPool* pool_ = nullptr;  // non-null while holding a slot
  std::size_t slot_ = 0;
  ByteSpan span_;
};

}  // namespace shredder::core
