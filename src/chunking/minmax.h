// Min/max chunk-size post-processing (paper §2.1 and §7.3).
//
// The GPU pipeline computes *raw* content boundaries and only afterwards does
// the Store stage (a) discard boundaries closer than `min_size` to the last
// accepted boundary and (b) force a boundary whenever `max_size` bytes pass
// without one. We adopt that post-filter as the canonical min/max semantics
// for every backend so outputs are comparable bit-for-bit.
//
// MinMaxFilter is the streaming form used by the Store stage (emit chunks as
// soon as they are final); apply_min_max is the batch convenience wrapper.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "chunking/chunk.h"

namespace shredder::chunking {

class MinMaxFilter {
 public:
  using EmitFn = std::function<void(std::uint64_t end)>;

  // min_size == 0 disables the minimum; max_size == 0 disables the maximum.
  // Throws std::invalid_argument if 0 < max_size < min_size.
  MinMaxFilter(std::uint64_t min_size, std::uint64_t max_size, EmitFn emit);

  // Feeds the next raw boundary (strictly ascending). Emits zero or more
  // accepted boundaries.
  void push(std::uint64_t raw_boundary);

  // Closes the stream at `total` bytes: forces trailing max-size boundaries
  // and the final boundary at `total` (the final chunk may be < min_size).
  void finish(std::uint64_t total);

  // Eagerly emits every max-size boundary at or before `upto`, given that
  // all raw boundaries <= upto have already been pushed. The emitted
  // sequence stays identical to what later push()/finish() calls would
  // produce — this only moves emission earlier, which is what lets the GPU
  // fingerprint stage cut chunk hashes while the buffer is still resident
  // on the device. No-op when max_size == 0.
  void drain_forced(std::uint64_t upto);

 private:
  void force_up_to(std::uint64_t target);

  std::uint64_t min_size_;
  std::uint64_t max_size_;
  EmitFn emit_;
  std::uint64_t last_ = 0;
  std::uint64_t prev_raw_ = 0;
  bool finished_ = false;
};

// Batch form: applies min/max to ascending raw boundary end-offsets over a
// stream of `total` bytes and appends the final boundary at `total`. The
// result always partitions [0, total):
//   * every chunk except possibly the last has size >= min_size
//   * every chunk has size <= max_size (when max_size != 0)
// Throws std::invalid_argument if `raw` is not strictly ascending or exceeds
// `total`.
std::vector<std::uint64_t> apply_min_max(const std::vector<std::uint64_t>& raw,
                                         std::uint64_t total,
                                         std::uint64_t min_size,
                                         std::uint64_t max_size);

}  // namespace shredder::chunking
