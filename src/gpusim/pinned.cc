#include "gpusim/pinned.h"

#include <cstring>
#include <new>
#include <stdexcept>

namespace shredder::gpu {

double pinned_alloc_seconds(const DeviceSpec& spec,
                            std::uint64_t bytes) noexcept {
  return spec.pin_fixed_s + static_cast<double>(bytes) * spec.pin_per_byte_s;
}

double pageable_alloc_seconds(const DeviceSpec& spec,
                              std::uint64_t bytes) noexcept {
  return spec.pageable_fixed_s +
         static_cast<double>(bytes) / spec.pageable_touch_bw;
}

double pageable_to_pinned_copy_seconds(const DeviceSpec& spec,
                                       std::uint64_t bytes) noexcept {
  return static_cast<double>(bytes) / spec.staging_memcpy_bw;
}

PinnedBuffer::PinnedBuffer(std::size_t size) : size_(size) {
  if (size == 0) throw std::invalid_argument("PinnedBuffer: size 0");
  auto* raw = static_cast<std::uint8_t*>(
      ::operator new[](size, std::align_val_t{4096}));
  std::memset(raw, 0, size);  // force residency, as the paper does with bzero
  data_.reset(raw);
}

PinnedRing::PinnedRing(const DeviceSpec& spec, std::size_t slots,
                       std::size_t slot_size)
    : slot_size_(slot_size) {
  if (slots == 0) throw std::invalid_argument("PinnedRing: slots must be >= 1");
  if (slot_size == 0) throw std::invalid_argument("PinnedRing: slot_size 0");
  buffers_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    buffers_.emplace_back(slot_size);
    construction_cost_s_ += pinned_alloc_seconds(spec, slot_size);
  }
}

}  // namespace shredder::gpu
