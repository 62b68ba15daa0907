// Data sources for the Shredder Reader stage (paper §3.1, §5.2.1).
//
// The paper's Reader consumes a SAN stream at ~2 GB/s via asynchronous I/O.
// Here a DataSource hands out sequential views of the stream and reports the
// *modelled* read time per buffer. Shredder::run's calling thread is the
// Reader: it takes one view at a time and submits it into the pinned ring,
// so the ring's free slots are the read-ahead depth: the lio_listio-style
// overlap of §5.2.1.
#pragma once

#include <cstdint>

#include "common/bytes.h"

namespace shredder::core {

// Sequential byte source. Implementations are single-consumer.
class DataSource {
 public:
  virtual ~DataSource() = default;

  // Returns a view of the stream's next bytes, at most `max_bytes` of them;
  // an empty view means end of stream. The view stays valid until the next
  // call to next() or the source's destruction, so a consumer copies (or
  // finishes with) the bytes before asking for more.
  virtual ByteSpan next(std::size_t max_bytes) = 0;

  // Modelled seconds to deliver `bytes` from this source's backing channel.
  virtual double read_seconds(std::uint64_t bytes) const = 0;
};

// Serves a caller-owned in-memory buffer at a modelled channel bandwidth
// (default: the paper's 2 GB/s SAN reader). Its views are subspans of the
// caller's bytes, so it copies nothing; the buffer must outlive the source.
class MemorySource final : public DataSource {
 public:
  MemorySource(ByteSpan data, double channel_bw);

  ByteSpan next(std::size_t max_bytes) override;
  double read_seconds(std::uint64_t bytes) const override;

 private:
  ByteSpan data_;
  std::size_t offset_ = 0;
  double channel_bw_;
};

// Deterministic synthetic stream (seeded) without materialising the whole
// payload: useful for multi-GB runs. It generates each view into one
// buffer it owns.
class SyntheticSource final : public DataSource {
 public:
  SyntheticSource(std::uint64_t total, std::uint64_t seed, double channel_bw);

  ByteSpan next(std::size_t max_bytes) override;
  double read_seconds(std::uint64_t bytes) const override;

 private:
  std::uint64_t total_;
  std::uint64_t produced_ = 0;
  std::uint64_t seed_;
  double channel_bw_;
  ByteVec buf_;
};

}  // namespace shredder::core
