#include "core/lease.h"

#include <utility>

#include "common/check.h"

namespace shredder::core {
namespace detail {

SlotPool::SlotPool(const gpu::DeviceSpec& spec, std::size_t slots,
                   std::size_t slot_size, obs::Gauge* gauge)
    : ring_(spec, slots, slot_size), gauge_(gauge) {
  free_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) free_.push_back(i);
}

std::optional<std::size_t> SlotPool::acquire() {
  MutexLock lock(mu_);
  while (free_.empty() && !stopping_) cv_.wait(mu_);
  if (stopping_) return std::nullopt;
  const std::size_t slot = free_.back();
  free_.pop_back();
  ++leased_;
  if (gauge_ != nullptr) gauge_->set(static_cast<double>(leased_));
  return slot;
}

void SlotPool::release(std::size_t slot) {
  {
    MutexLock lock(mu_);
    SHREDDER_CHECK_MSG(leased_ > 0, "SlotPool: release without a lease");
    free_.push_back(slot);
    --leased_;
    if (gauge_ != nullptr) gauge_->set(static_cast<double>(leased_));
  }
  cv_.notify_one();
}

void SlotPool::stop() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
}

std::size_t SlotPool::leased() const {
  MutexLock lock(mu_);
  return leased_;
}

}  // namespace detail

SlotLease::SlotLease(SlotLease&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      slot_(other.slot_),
      span_(std::exchange(other.span_, {})) {}

SlotLease& SlotLease::operator=(SlotLease&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    slot_ = other.slot_;
    span_ = std::exchange(other.span_, {});
  }
  return *this;
}

SlotLease SlotLease::from_slot(detail::SlotPool& pool, std::size_t slot,
                               std::size_t len) {
  const MutableByteSpan storage = pool.slot_span(slot);
  SHREDDER_CHECK_MSG(len <= storage.size(),
                     "SlotLease: length exceeds the slot");
  SlotLease lease;
  lease.pool_ = &pool;
  lease.slot_ = slot;
  lease.span_ = ByteSpan{storage.data(), len};
  return lease;
}

void SlotLease::reset() noexcept {
  if (pool_ != nullptr) std::exchange(pool_, nullptr)->release(slot_);
  span_ = {};
}

}  // namespace shredder::core
