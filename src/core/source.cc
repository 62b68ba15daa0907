#include "core/source.h"

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"

namespace shredder::core {

MemorySource::MemorySource(ByteSpan data, double channel_bw)
    : data_(data), channel_bw_(channel_bw) {
  if (channel_bw <= 0) {
    throw std::invalid_argument("MemorySource: bandwidth must be positive");
  }
}

ByteSpan MemorySource::next(std::size_t max_bytes) {
  const std::size_t n = std::min(max_bytes, data_.size() - offset_);
  const ByteSpan view = data_.subspan(offset_, n);
  offset_ += n;
  return view;
}

double MemorySource::read_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / channel_bw_;
}

SyntheticSource::SyntheticSource(std::uint64_t total, std::uint64_t seed,
                                 double channel_bw)
    : total_(total), seed_(seed), channel_bw_(channel_bw) {
  if (channel_bw <= 0) {
    throw std::invalid_argument("SyntheticSource: bandwidth must be positive");
  }
}

ByteSpan SyntheticSource::next(std::size_t max_bytes) {
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(max_bytes, total_ - produced_));
  if (buf_.size() < n) buf_.resize(n);
  // Deterministic content independent of read granularity: each 8-byte
  // aligned word of the stream is SplitMix64(seed ^ word_index), computed
  // once per word rather than per byte.
  std::size_t i = 0;
  while (i < n) {
    const std::uint64_t pos = produced_ + i;
    const std::uint64_t word_index = pos / 8;
    SplitMix64 rng(seed_ ^ (word_index * 0x9e3779b97f4a7c15ull));
    const std::uint64_t w = rng.next();
    const std::size_t byte_in_word = static_cast<std::size_t>(pos % 8);
    const std::size_t take = std::min<std::size_t>(8 - byte_in_word, n - i);
    for (std::size_t b = 0; b < take; ++b) {
      buf_[i + b] = static_cast<std::uint8_t>(w >> (8 * (byte_in_word + b)));
    }
    i += take;
  }
  produced_ += n;
  return ByteSpan(buf_).first(n);
}

double SyntheticSource::read_seconds(std::uint64_t bytes) const {
  return static_cast<double>(bytes) / channel_bw_;
}

}  // namespace shredder::core
